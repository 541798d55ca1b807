"""Primitive prime divisors and Zsigmondy sets of orbit numerator sequences.

The central trick: an index has a primitive prime divisor iff its numerator
still exceeds 1 after dividing out, at full multiplicity, every prime shared
with an earlier numerator.  That gcd-stripping never factors the huge A_n,
so it stays exact at any size; factorization only decorates the verdicts
with explicit witness primes where the budget allows, and a report built
without witnesses certifies rigid divisibility without factoring at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Sequence

from .arith import distinct_primes, factor, v_p
from .config import RunConfig
from .orbits import OrbitEntry, wandering_entries
from .polynomials import PolyQ


@dataclass(frozen=True)
class PrimitiveVerdict:
    n: int
    has_primitive: bool
    stripped_part: int
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


def stripped_numerator(entries: Sequence[OrbitEntry], n: int) -> int:
    """|A_n| with every prime occurring in some earlier A_m divided out fully."""
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


def _witness_primes(stripped: int, cfg: RunConfig) -> tuple[tuple[int, ...], list[int]]:
    """(sorted witness primes, primes found by trial division) of a stripped part."""
    if stripped <= 1:
        return (), []
    report = factor(
        stripped,
        trial_bound=cfg.factor_trial_bound,
        rho_budget=cfg.factor_rho_budget,
        seed=cfg.seed,
    )
    primes = [p for p, _ in report.factored]
    small_primes = [p for p in primes if p <= cfg.factor_trial_bound]
    if report.cofactor_status == "probable_prime":
        primes.append(report.cofactor)
    return tuple(sorted(primes)), small_primes


def zsigmondy_set(f: PolyQ, N: int, config: RunConfig | None = None) -> ZsigmondyReport:
    """Indices n <= N whose numerator lacks a primitive prime divisor.

    Requires a vanishing linear coefficient and a wandering orbit; a finite
    orbit raises FiniteOrbitError since the set is not defined there.
    """
    if not f.admissible:
        raise ValueError("Zsigmondy computations require a zero linear coefficient")
    cfg = config or RunConfig()
    entries = wandering_entries(f, N, digit_budget=cfg.digit_budget)
    return zsigmondy_report_from_entries(entries, cfg)


def zsigmondy_report_from_entries(
    entries: Sequence[OrbitEntry], config: RunConfig | None = None, *, witnesses: bool = True
) -> ZsigmondyReport:
    """Per-index verdicts, elements and rigid-divisibility violations.

    With ``witnesses=False`` no stripped part is factored: witness lists and
    the k(p) table stay empty, and ``rigid_law_holds`` certifies the
    valuation law at every prime at once.  Only if it fails does the report
    take the factoring path, so ``rigid_violations`` is the same either way.
    """
    cfg = config or RunConfig()
    N = len(entries)
    stripped = [stripped_numerator(entries, n) for n in range(1, N + 1)]
    factoring = witnesses or not rigid_law_holds(entries, stripped)
    per_index: list[PrimitiveVerdict] = []
    discovered: set[int] = set()
    # Every prime's first appearance sits inside that index's stripped part,
    # so the stripped-part factorizations surface all small primes of all A_n.
    for n, s in enumerate(stripped, start=1):
        primes, small = _witness_primes(s, cfg) if factoring else ((), [])
        per_index.append(PrimitiveVerdict(n, s > 1, s, primes, entries[n - 1].is_unit))
        discovered.update(small)
        discovered.update(primes)
    elements = [v.n for v in per_index if not v.has_primitive]
    k_table: dict[int, int] = {}
    for p in sorted(discovered):
        for entry in entries:
            if entry.A % p == 0:
                k_table[p] = entry.n
                break
    report = ZsigmondyReport(N, elements, per_index, k_table)
    report.rigid_violations = verify_rigid_divisibility(entries, k_table)
    return report


def rigid_law_holds(entries: Sequence[OrbitEntry], stripped: Sequence[int]) -> bool:
    """Whether |A_n| = prod of the stripped parts S_k over k | n, for every n.

    That identity is the rigid-divisibility valuation law at every prime at
    once, denominator primes included.  S_k is the product of p^v_p(A_k)
    over the primes p first dividing A_k (k(p) = k), so the product over
    k | n is the product of p^v_p(A_k(p)) over the primes with k(p) | n; it
    equals |A_n| exactly when v_p(A_n) = v_p(A_k(p)) if k(p) | n and 0
    otherwise.  One product per index replaces factoring anything.
    """
    for n in range(1, len(entries) + 1):
        product = 1
        for k in range(1, n + 1):
            if n % k == 0:
                product *= stripped[k - 1]
        if product != abs(entries[n - 1].A):
            return False
    return True


def verify_rigid_divisibility(
    entries: Sequence[OrbitEntry], k_table: dict[int, int]
) -> list[RigidViolation]:
    """Check the valuation law: v_p(A_n) equals v_p(A_k(p)) when k(p) | n, else 0.

    Primes dividing any denominator B_m are excluded; the law is asserted only
    for numerator primes.  An empty result means the law held everywhere.
    """
    violations: list[RigidViolation] = []
    for p, k in sorted(k_table.items()):
        if any(e.B % p == 0 for e in entries):
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
