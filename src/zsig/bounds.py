"""Sign-set machinery, growth inequalities, and the index bound for
Zsigmondy elements.

The index bound needs (a) a positive certified lower bound on the canonical
height of the constant term and (b) a growth certificate guaranteeing every
iterate of the constant term has absolute value >= 1.  The certificate is
either the exact coefficient-domination inequality evaluated at the constant
term, or a family-specific fact for z^d [+ z^e] + c shapes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import compare_sums, distinct_primes
from .polynomials import PolyQ

# Directed-rounding slack: bound comparisons must fail safe toward larger n.
_REL_SLACK = 1e-12


class SignSets(NamedTuple):
    N_plus: frozenset[int]
    N_minus: frozenset[int]
    n_plus: int
    n_minus: int


def _sgn(x: Fraction) -> int:
    return (x.numerator > 0) - (x.numerator < 0)  # no Fraction comparison: a hot path


def _alt_sgn(i: int, a: Fraction) -> int:
    """The sign of (-1)^i a."""
    return -_sgn(a) if i % 2 else _sgn(a)


def compute_sign_sets(f: PolyQ) -> SignSets:
    """The off-sign sets N: the indices in 0..d where the (alternating-)sign
    of a_i differs from that of the leading coefficient, read from the
    nonzero terms (a zero coefficient is never off-sign), and n = max(N, 1)."""
    d, lead = f.terms[0]
    n_plus = frozenset(i for i, a in f.terms if _sgn(a) != _sgn(lead))
    n_minus = frozenset(i for i, a in f.terms if _alt_sgn(i, a) != _alt_sgn(d, lead))
    return SignSets(n_plus, n_minus, max({1, *n_plus}), max({1, *n_minus}))


def check_condition3(f: PolyQ, z: Fraction) -> bool:
    """Exact test that |z| dominates the off-sign coefficients on both sides:

        sum_{n< i <= d} |a_i| |z|^(i-n)  >=  sum_{i in N} |a_i| + 1

    for (N, n) = (N+, n+) and (N-, n-).  Requires |z| >= 1.
    """
    az = abs(z)
    if az < 1:
        raise ValueError("inequality is only meaningful for |z| >= 1")
    signs = compute_sign_sets(f)
    f1, m = f.cleared  # both sides times m: integer coefficients
    for n_set, n_idx in ((signs.N_plus, signs.n_plus), (signs.N_minus, signs.n_minus)):
        lhs = [[(abs(a), 1), (az, i - n_idx)] for i, a in f1 if i > n_idx]
        rhs = [[(abs(a), 1)] for i, a in f1 if i in n_set] + [[(m, 1)]]
        if compare_sums(lhs, rhs) < 0:
            return False
    return True


def omega(n: int) -> int:
    """Number of distinct prime factors."""
    return len(distinct_primes(n))


def omega_inequality_audit(d: int, n_max: int) -> tuple[list[int], list[int]]:
    """Exact audit of 2*omega(n) + 1 < d^(n/2) for 2 <= n <= n_max.

    Returns (equality indices, strict violation indices); compared via
    (2w+1)^2 against d^n so no real arithmetic is involved.  Only n <= 64
    is examined: from there on 2w+1 <= 31 < d^32.
    """
    if d < 3:
        raise ValueError("audit applies to d >= 3")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    equalities, violations = [], []
    for n in range(2, min(n_max, 64) + 1):
        sign = compare_sums([[(2 * omega(n) + 1, 2)]], [[(d, n)]])
        if sign == 0:
            equalities.append(n)
        elif sign > 0:
            violations.append(n)
    return equalities, violations


class BoundResult(NamedTuple):
    n_max: float
    n_max_floor: int
    hhat_lower_used: float
    C_used: float
    certified: bool


def growth_certificate(f: PolyQ) -> bool:
    """True when every iterate of the constant term is certified >= 1 in
    absolute value: the domination inequality at a_0, or membership in a
    z^d [+ z^e] + c family with |c| > 2 or c > 1."""
    a0 = f.constant
    if abs(a0) >= 1 and check_condition3(f, a0):
        return True
    form = f.trinomial_form()
    if form is not None:
        _, _, c = form
        if abs(c) > 2 or c > 1:
            return True
    return False


def theorem1_bound(f: PolyQ, hhat_lower: float, C: float) -> BoundResult:
    """Evaluate the index bound (2/log d) log(dC / ((d-1) hhat)) + 2.

    C up, hhat down and the result up by a 1e-12 relative slack, not a checked
    outward rounding; the claims' cap verdict ``n_max < cap + 1`` reads that
    float (ROADMAP item 1, which ``arith.compare_sums`` can now serve).
    ``certified`` is set when a growth certificate holds for the constant term.
    """
    if not f.admissible:
        raise ValueError("bound requires a zero linear coefficient")
    if abs(f.constant) < 1:
        raise ValueError("bound requires |a_0| >= 1")
    if hhat_lower <= 0:
        raise ValueError("bound is vacuous without a positive height lower bound")
    d = f.degree
    c_up = C * (1 + _REL_SLACK)
    h_down = hhat_lower * (1 - _REL_SLACK)
    n_max = 2 / math.log(d) * math.log(d * c_up / ((d - 1) * h_down)) + 2
    n_max = n_max * (1 + _REL_SLACK)
    return BoundResult(
        n_max=n_max,
        n_max_floor=math.floor(n_max),
        hhat_lower_used=hhat_lower,
        C_used=C,
        certified=growth_certificate(f),
    )
