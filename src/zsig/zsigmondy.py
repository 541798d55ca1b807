"""Primitive prime divisors and Zsigmondy sets of orbit numerator sequences.

The central trick: an index has a primitive prime divisor iff its numerator
still exceeds 1 after dividing out, at full multiplicity, every prime shared
with an earlier numerator.  That gcd-stripping never factors the huge A_n,
so it stays exact at any size; factorization only decorates the verdicts
with explicit witness primes where the budget allows, and a report built
without witnesses certifies rigid divisibility without factoring at all.

Strong divisibility (Rice 2007; Ingram-Silverman 2009) keeps the strip
short.  Let L be the lcm of the coefficient denominators of f and p a prime
not dividing L, with v = v_p(A_m) > 0.  Then f^m(0) = 0 mod p^v, so
f^n(0) = f^(n-m)(0) mod p^v, and Euclid's algorithm on the indices gives
min(v_p(A_n), v_p(A_m)) = v_p(A_gcd(n,m)).  A prime of A_n that is not in
L and divides an earlier A_m therefore divides A_(n/q) for some prime q | n.
The primes of L obey no such law, so the strip of A_n runs against |A_(n/q)|
for the omega(n) primes q | n plus the small gcd(A_m, L) for each m < n.
Without a polynomial (L = 0) the second list is every earlier |A_m|.

A report without witnesses decides an unbuilt last entry (not ``built``)
from residues when gcd(A_m, L) = 1 for m < N and the law of
``rigid_law_holds`` holds below N.  Then the primes of the A_(N/q) are those
of P, the product of the S_k over k | N, k < N, and P is prime to L.  With
|A_N| = U V W, U of the primes of P and V of those of L, the strip leaves
S_N = V W and the law at N reads P W = U W: it holds exactly when P | A_N
and gcd(A_N / P, P) = 1, read off acc mod P^2.  Then S_N = |A_N| / P, so N
has a primitive prime divisor exactly when |A_N| > P, and is then no unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import gcd, lcm, prod
from typing import Sequence

from . import pool
from .arith import TRIAL_BOUND, build_trial_products, distinct_primes, factor, v_p
from .config import RunConfig
from .orbits import OrbitEntry, wandering_entries
from .polynomials import PolyQ


@dataclass(frozen=True)
class PrimitiveVerdict:
    n: int
    has_primitive: bool
    stripped_part: int | None  # None: decided with A_n unbuilt
    witness_primes: tuple[int, ...]
    is_unit: bool


@dataclass
class ZsigmondyReport:
    horizon: int
    elements: list[int]
    per_index: list[PrimitiveVerdict]
    k_table: dict[int, int]
    rigid_violations: list["RigidViolation"] = field(default_factory=list)


@dataclass(frozen=True)
class RigidViolation:
    prime: int
    n: int
    observed: int
    expected: int


def stripped_numerator(entries: Sequence[OrbitEntry], n: int, denominator_lcm: int = 0) -> int:
    """|A_n| with every prime occurring in some earlier A_m divided out fully.

    ``denominator_lcm`` is L of the module docstring; 0 means no polynomial
    is known, and since gcd(A_m, 0) = |A_m| the strip is then against every
    earlier numerator.
    """
    r = abs(entries[n - 1].A)
    moduli = [entries[n // q - 1].A for q in distinct_primes(n)]
    moduli += [gcd(e.A, denominator_lcm) for e in entries[: n - 1]]
    for modulus in moduli:
        r = _strip(r, modulus)
    return r


def _strip(r: int, modulus: int) -> int:
    """r > 0 with every prime it shares with modulus divided out fully."""
    g = gcd(r, modulus)
    while g > 1:
        r //= g
        g = gcd(r, g)  # every prime r still shares with the modulus divides g
    return r


def _witness_primes(stripped: int, cfg: RunConfig) -> tuple[int, ...]:
    """Sorted witness primes of a stripped part, as far as the budgets reach."""
    if stripped <= 1:
        return ()
    report = factor(stripped, rho_budget=cfg.factor_rho_budget)
    primes = [p for p, _ in report.factored]
    if report.cofactor_status == "probable_prime":
        primes.append(report.cofactor)
    return tuple(sorted(primes))


# Trial division leaves a part below this 1 or a prime, so only the parts at
# or above it can reach rho.
_RHO_FLOOR = TRIAL_BOUND**2


def _witness_lists(stripped: Sequence[int], cfg: RunConfig, workers: int) -> list[tuple]:
    """``_witness_primes`` of each stripped part.  The parts that can reach rho
    go to ``pool.imap`` with ``workers``, in index order, and their results
    are put back by index; the rest are factored here.  Each ``factor`` call
    has its own budget and seeds rho from its input, so where a part runs
    changes nothing."""
    witness = partial(_witness_primes, cfg=cfg)
    large = [i for i, s in enumerate(stripped) if s >= _RHO_FLOOR]
    if len(large) > 1:
        build_trial_products()  # once before any fork, not once in each child
    found = dict(zip(large, pool.imap(witness, workers, [stripped[i] for i in large])))
    return [found[i] if i in found else witness(s) for i, s in enumerate(stripped)]


def zsigmondy_set(f: PolyQ, N: int, config: RunConfig | None = None) -> ZsigmondyReport:
    """Indices n <= N whose numerator lacks a primitive prime divisor.

    Requires a vanishing linear coefficient and a wandering orbit; a finite
    orbit raises FiniteOrbitError since the set is not defined there.  The
    stripped parts go to the pool with ``config.workers`` (``_witness_lists``).
    """
    if not f.admissible:
        raise ValueError("linear coefficient is nonzero; Zsigmondy computations require a_1 = 0")
    cfg = config or RunConfig()
    entries = wandering_entries(f, N, digit_budget=cfg.digit_budget)
    return zsigmondy_report_from_entries(
        entries, cfg, denominator_lcm=f.cleared[1], workers=cfg.workers
    )


def zsigmondy_report_from_entries(
    entries: Sequence[OrbitEntry],
    config: RunConfig | None = None,
    *,
    witnesses: bool = True,
    denominator_lcm: int = 0,
    workers: int = 1,
) -> ZsigmondyReport:
    """Per-index verdicts, elements and rigid-divisibility violations.

    ``denominator_lcm`` is the lcm of the coefficient denominators of the
    polynomial the entries come from, or 0 when no polynomial is known; it
    shortens the strip and names the primes the valuation law exempts (the
    primes of some B_m when it is 0).  A zero numerator, where the orbit
    returns to 0, has no stripped part and raises ValueError.

    ``rigid_law_holds`` decides the valuation law at every non-exempt prime at
    once, and only when it fails are violations listed at the witness primes.
    With ``witnesses=False`` nothing is factored unless it fails: witness lists
    and the k(p) table stay empty, and ``rigid_violations`` is the same either way.
    An unbuilt last entry stays unbuilt where ``_unbuilt_primitive`` decides it.
    ``workers`` goes to the pool that factors (``_witness_lists``); the
    verifiers pass none, so a sweep's pool child never forks.
    """
    if any(not e.sign for e in entries):
        raise ValueError("a zero numerator has no stripped part: the orbit returns to 0")
    cfg = config or RunConfig()
    N = len(entries)
    exempt = denominator_lcm or lcm(*(e.B for e in entries))
    stripped = [stripped_numerator(entries, n, denominator_lcm) for n in range(1, N)]
    unbuilt = not witnesses and _unbuilt_primitive(entries, stripped, denominator_lcm)
    if N:
        stripped.append(None if unbuilt else stripped_numerator(entries, N, denominator_lcm))
    holds = unbuilt or rigid_law_holds(entries, stripped, exempt)
    factoring = witnesses or not holds
    witness_lists = _witness_lists(stripped, cfg, workers) if factoring else [()] * N
    per_index: list[PrimitiveVerdict] = []
    k_table: dict[int, int] = {}
    for n, (s, primes) in enumerate(zip(stripped, witness_lists), start=1):
        # s is None: primitive, so |A_n| > 1 is no unit
        unit = s is not None and entries[n - 1].is_unit
        per_index.append(PrimitiveVerdict(n, s is None or s > 1, s, primes, unit))
        # S_n is coprime to every earlier A_m, so a prime found in it first divides A_n
        k_table.update(dict.fromkeys(primes, n))
    elements = [v.n for v in per_index if not v.has_primitive]
    k_table = dict(sorted(k_table.items()))
    report = ZsigmondyReport(N, elements, per_index, k_table)
    report.rigid_violations = [] if holds else verify_rigid_divisibility(entries, k_table, exempt)
    return report


def _unbuilt_primitive(entries: Sequence[OrbitEntry], stripped: Sequence[int], L: int) -> bool:
    """Whether the last entry N, still unbuilt, is shown to obey the law and
    to have a primitive prime divisor (module docstring); ``stripped`` holds
    S_1 .. S_(N-1).  False leaves A_N to be built."""
    if not (L and entries and not entries[-1].built):
        return False
    last, N = entries[-1], len(entries)
    if any(gcd(e.A, L) > 1 for e in entries[:-1]) or not rigid_law_holds(entries[:-1], stripped):
        return False
    P = prod(stripped[k - 1] for k in range(1, N) if N % k == 0)
    # acc = g A_N, and g is prime to P: it divides m q^d, whose primes are L's
    r = last.residue(P * P)
    return r % P == 0 and gcd(r // P, P) == 1 and last.compare([], [[(P, 1)]], numerator=True) > 0


def rigid_law_holds(
    entries: Sequence[OrbitEntry], stripped: Sequence[int], exempt: int = 1
) -> bool:
    """Whether |A_n| = prod of the stripped parts S_k over k | n, for every n,
    once the primes of ``exempt`` are divided out of both sides.

    That identity is the rigid-divisibility valuation law at every other
    prime at once.  S_k is the product of p^v_p(A_k) over the primes p
    first dividing A_k (k(p) = k), so the product over k | n is the product
    of p^v_p(A_k(p)) over the primes with k(p) | n; it equals |A_n| exactly
    when v_p(A_n) = v_p(A_k(p)) if k(p) | n and 0 otherwise.  One product
    per index replaces factoring anything.
    """
    cores = [_strip(s, exempt) for s in stripped]
    for n in range(1, len(entries) + 1):
        product = 1
        for k in range(1, n + 1):
            if n % k == 0:
                product *= cores[k - 1]
        if product != _strip(abs(entries[n - 1].A), exempt):
            return False
    return True


def verify_rigid_divisibility(
    entries: Sequence[OrbitEntry], k_table: dict[int, int], exempt: int = 1
) -> list[RigidViolation]:
    """Check the valuation law: v_p(A_n) equals v_p(A_k(p)) when k(p) | n, else 0.

    The law holds only for primes not dividing a coefficient denominator of
    f, so the primes of ``exempt`` are skipped; the report passes the lcm
    of the coefficient denominators, or of the B_m when no polynomial is
    known.  An empty result means the law held at every other prime.
    """
    violations: list[RigidViolation] = []
    for p, k in sorted(k_table.items()):
        if exempt % p == 0:
            continue
        base = v_p(entries[k - 1].A, p)
        for e in entries:
            expected = base if e.n % k == 0 else 0
            observed = v_p(e.A, p) if e.A != 0 else -1
            if observed != expected:
                violations.append(RigidViolation(p, e.n, observed, expected))
    return violations


def divisor_product(entries: Sequence[OrbitEntry], n: int) -> int:
    """prod of A_(n/q) over distinct primes q | n (empty product = 1)."""
    prod = 1
    for q in distinct_primes(n):
        prod *= entries[n // q - 1].A
    return abs(prod)


def check_zsigmondy_divisibility(entries: Sequence[OrbitEntry], n: int) -> bool:
    """Exact divisibility A_n | prod_{q | n} A_(n/q), the law satisfied by
    every index without a primitive prime divisor."""
    if not 1 <= n <= len(entries):
        raise ValueError(f"index {n} outside computed orbit")
    an = abs(entries[n - 1].A)
    prod = divisor_product(entries, n)
    if prod == 0:
        return an == 0
    return prod % an == 0
