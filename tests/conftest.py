from fractions import Fraction
from math import gcd

import pytest
import sympy

from zsig import RunConfig, pool
from zsig.orbits import decimal_digits

# Lean budgets keep the suite fast; correctness of stripping verdicts does
# not depend on the factoring budget.
LEAN = RunConfig(factor_rho_budget=200_000)


@pytest.fixture(scope="session")
def lean_config() -> RunConfig:
    return LEAN


class PoolRecord:
    """What the callers hand ``pool.imap`` and the pools it starts, with the
    pool itself left as it is.  ``calls`` holds each call's worker count and
    tasks, and ``pools`` each started pool's count of children; ``imap`` is
    ``pool.imap`` unrecorded, for the tests of the pool itself."""

    def __init__(self, monkeypatch) -> None:
        self.calls, self.pools, self.imap = [], [], pool.imap
        self._monkeypatch, fork = monkeypatch, pool._fork

        def recording_imap(run, workers, tasks):
            tasks = list(tasks)
            self.calls.append((workers, tasks))
            return self.imap(run, workers, iter(tasks))

        def recording_fork(run, share, children):
            if not children:  # the first child of a pool
                self.pools.append(0)
            self.pools[-1] += 1
            fork(run, share, children)

        monkeypatch.setattr(pool, "imap", recording_imap)
        monkeypatch.setattr(pool, "_fork", recording_fork)

    def platform(self, cpus, affinity=None, fork=True) -> None:
        """``cpus`` is the CPU count, ``affinity`` the affinity mask or None
        for a platform without one, and ``fork`` whether it has ``os.fork``."""
        self._monkeypatch.setattr(pool.os, "cpu_count", lambda: cpus)
        if affinity is None:
            self._monkeypatch.delattr(pool.os, "sched_getaffinity", raising=False)
        else:
            self._monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(affinity))
        if not fork:
            self._monkeypatch.delattr(pool.os, "fork")


@pytest.fixture
def pool_record(monkeypatch) -> PoolRecord:
    return PoolRecord(monkeypatch)


def frac(s) -> Fraction:
    return Fraction(s)


def full_strip(entries, n):
    """|A_n| stripped, to full multiplicity, against every earlier |A_m|.

    The definition of the stripped part, with n - 1 gcds of full-size
    operands: the reference for ``zsigmondy.stripped_numerator``.
    """
    r = abs(entries[n - 1].A)
    for m in range(1, n):
        am = abs(entries[m - 1].A)
        if am <= 1:
            continue
        g = gcd(r, am)
        while g > 1:
            r //= g
            g = gcd(r, am)
    return r


def oracle_elements(entries, digit_cap=40):
    """Factorization-based 'no primitive prime divisor' verdicts per index.

    Independent of the gcd-stripping path: factors each numerator with sympy
    and applies the definition directly.  None marks indices the oracle
    cannot settle (numerator too large or not fully factored).
    """
    decided = {}
    for n in range(1, len(entries) + 1):
        an = abs(entries[n - 1].A)
        if an == 1:
            decided[n] = True
            continue
        if decimal_digits(an) > digit_cap:
            decided[n] = None
            continue
        fac = sympy.factorint(an, limit=10**6, use_rho=False, use_pm1=False)
        if not all(sympy.isprime(p) for p in fac):
            decided[n] = None
            continue
        has_primitive = any(
            all(entries[m - 1].A % p != 0 for m in range(1, n)) for p in fac
        )
        decided[n] = not has_primitive
    return decided
