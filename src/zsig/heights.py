"""Weil heights, explicit per-place constants, certified canonical-height intervals.

The canonical height of x under f is lim h(f^N(x)) / d^N.  Telescoping that
limit with an explicit constant C (summed from per-place coefficients of f)
yields two-sided intervals that shrink by a factor d per extra iteration;
resultant-based and family-specific routes give certified one-sided lower
bounds that stay positive where the telescoped lower end collapses to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import compare_sums, factor, v_p
from .config import DEFAULT_DIGIT_BUDGET
from .orbits import iterate_point
from .polynomials import PolyQ


def global_height(x: Fraction) -> float:
    """h(x) = log max(|numerator|, denominator) for x in lowest terms."""
    return math.log(max(abs(x.numerator), x.denominator))


@dataclass(frozen=True)
class GlobalC:
    archimedean_logCv: float
    nonarch_contribs: dict[int, float]
    total_C: float


@dataclass(frozen=True)
class HeightInterval:
    lower: float
    upper: float
    method: str  # "telescoped" | "lemma41" | "ingram" | "family_trinomial"
    iterations: int = 0

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0


def _vp_fraction(x: Fraction, p: int) -> int:
    return v_p(x.numerator, p) - v_p(x.denominator, p)


def local_C_v(f: PolyQ, place: int | None) -> float:
    """log of the per-place constant bounding local canonical-height drift.

    place=None is the archimedean place; otherwise a prime.  Archimedean:
    C = max(1, A+B, sum|a_i|) with A the root-size bound from coefficient
    ratios and B = |a_d|^(-1/d).  Nonarchimedean: the same shape with exact
    p-adic absolute values and A computed exactly.
    """
    (d, a_d), *lower = f.terms
    if place is None:
        try:
            # summed in ascending exponent order: the last bit of the float depends on it
            A = sum(float(abs(a / a_d)) ** (1.0 / (d - j)) for j, a in reversed(lower))
            B = float(abs(a_d)) ** (-1.0 / d)
            coeff_sum = float(sum(abs(a) for _, a in f.terms))
        except (OverflowError, ZeroDivisionError) as exc:  # no float holds the constant
            raise ValueError("a coefficient or a ratio of two is beyond the float range") from exc
        return math.log(max(1.0, A + B, coeff_sum))
    p = place
    logp = math.log(p)
    # log|a_j/a_d|_p^(1/(d-j)) = -v_p(a_j/a_d) * log p / (d-j)
    log_A = max(
        (-_vp_fraction(a / a_d, p) * logp / (d - j) for j, a in lower), default=-math.inf
    )
    log_B = _vp_fraction(a_d, p) * logp / d
    log_coeffs = max(-_vp_fraction(a, p) * logp for _, a in f.terms)
    return max(0.0, log_A, log_B, log_coeffs)


def _coefficient_primes(f: PolyQ) -> list[int]:
    primes: set[int] = set()
    for _, c in f.terms:
        for part in (abs(c.numerator), c.denominator):
            if part > 1:
                report = factor(part)
                if not report.complete:
                    raise ValueError(
                        f"cannot enumerate the primes of coefficient part {part}; "
                        "per-place constants would be uncertified"
                    )
                primes.update(p for p, _ in report.factored)
    return sorted(primes)


def global_C(f: PolyQ) -> GlobalC:
    """Sum of per-place log constants over the archimedean place and every
    prime dividing some coefficient numerator or denominator (the rest are 0)."""
    arch = local_C_v(f, None)
    nonarch = {}
    for p in _coefficient_primes(f):
        contrib = local_C_v(f, p)
        if contrib > 0.0:
            nonarch[p] = contrib
    return GlobalC(arch, nonarch, arch + sum(nonarch.values()))


def family_C(c: Fraction) -> float:
    """Closed-form constant log 2 + h(c), valid for z^d + c and z^d + z^e + c."""
    return math.log(2) + global_height(c)


def canonical_height_interval(
    f: PolyQ,
    x: Fraction,
    iterations: int,
    *,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> HeightInterval:
    """Two-sided interval for the canonical height of x, telescoped through
    f^N(x).  Width is 2*dC/(d-1)/d^N; the lower end is clipped at 0.

    If the digit budget stops iteration early, the deepest computed iterate
    is used and recorded in ``iterations``.  A finite orbit gives [0, 0].
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    d = f.degree
    slack = d * global_C(f).total_C / (d - 1)
    values = iterate_point(f, x, iterations, digit_budget=digit_budget)
    if values[-1] in values[:-1]:  # a finite orbit: the canonical height is 0
        return HeightInterval(0.0, 0.0, "telescoped", iterations)
    N = len(values) - 1
    h_N = global_height(values[N])
    scale = d**N  # exact: float(d**N) overflows, the quotients only underflow
    return HeightInterval(
        lower=max(0.0, float(Fraction(h_N - slack) / scale)),
        upper=float(Fraction(h_N + slack) / scale),
        method="telescoped",
        iterations=N,
    )


def resultant_constant(f: PolyQ) -> int:
    """|Res(f1, f2)| = m^d after writing f = f1/m with integer f1."""
    return f.cleared[1] ** f.degree


def lemma41_lower_bound(
    f: PolyQ,
    x: Fraction,
    iterations: int,
    D_lower: Fraction,
    *,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> HeightInterval:
    """One-sided certified bound d^(-i) * [h(f^i(x)) - log(|R|/D) / (d-1)],
    where R is the cleared-denominator resultant and D a certified lower
    bound on the projective minimum of f."""
    if D_lower <= 0:
        raise ValueError("D_lower must be positive")
    d = f.degree
    R = resultant_constant(f)
    log_D = math.log(D_lower.numerator) - math.log(D_lower.denominator)
    values = iterate_point(f, x, iterations, digit_budget=digit_budget)
    if values[-1] in values[:-1]:  # a finite orbit: the canonical height is 0
        return HeightInterval(0.0, math.inf, "lemma41", iterations)
    i = len(values) - 1
    h_i = global_height(values[i])
    lower = float(Fraction(h_i - (math.log(R) - log_D) / (d - 1)) / d**i)
    return HeightInterval(max(0.0, lower), math.inf, "lemma41", iterations=i)


def trinomial_D_lower(f: PolyQ) -> Fraction:
    """Certified projective-minimum bound 1/s^d, s = max(2, |c|), for the
    family z^d [+ z^e] + c with |c| >= 1."""
    form = f.trinomial_form()
    if form is None:
        raise ValueError("polynomial is not of the form z^d [+ z^e] + c")
    d, _, c = form
    if abs(c) < 1:
        raise ValueError("family bound requires |c| >= 1")
    s = max(Fraction(2), abs(c))
    return 1 / s**d


def ingram_lower_bound(f: PolyQ) -> HeightInterval:
    """h(c)/d lower bound for z^d + c when |c| > 2^(d/(d-1)), checked exactly."""
    form = f.trinomial_form()
    if form is None or form[1] is not None:
        raise ValueError("bound applies to z^d + c only")
    d, _, c = form
    if not hypothesis_abs_c_exceeds(c, d):
        raise ValueError("bound requires |c| > 2^(d/(d-1))")
    return HeightInterval(global_height(c) / d, math.inf, "ingram")


def hypothesis_abs_c_exceeds(c: Fraction, d: int) -> bool:
    """Exact test of |c| > 2^(d/(d-1)), i.e. |c|^(d-1) > 2^d."""
    return compare_sums([[(abs(c), d - 1)]], [[(2, d)]]) > 0


def trinomial_family_lower(f: PolyQ) -> HeightInterval:
    """Certified canonical-height lower bound at c for z^d + z^e + c.

    |c| > 2: h(c)/(d-1) when d >= 5, else h(c)/(3(d-1)).
    1 < c < 2: (d-2) h(2c) / (d (d-1)).
    """
    form = f.trinomial_form()
    if form is None or form[1] is None:
        raise ValueError("bound applies to z^d + z^e + c only")
    d, _, c = form
    hc = global_height(c)
    if abs(c) > 2:
        lower = hc / (d - 1) if d >= 5 else hc / (3 * (d - 1))
    elif 1 < c < 2:
        lower = (d - 2) * global_height(2 * c) / (d * (d - 1))
    else:
        raise ValueError("no family lower bound for this c range")
    return HeightInterval(lower, math.inf, "family_trinomial")

