"""Forward orbit of 0 under a rational polynomial, with exact bookkeeping.

Each iterate f^n(0) = A_n / B_n is kept in lowest terms (B_n > 0).  Orbits
terminate early when an iterate repeats (preperiodic) or returns to 0, and a
digit budget guards against runaway growth (sizes scale like d^n digits).  An
iterate is over the budget when A_n or B_n has B bits or more, B fixed by the
budget; ``_step`` rejects one whose size provably reaches B before building it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from .arith import _EXACT_BITS, compare_sums
from .config import DEFAULT_DIGIT_BUDGET
from .polynomials import PolyQ

# Up to this size ceiling an iterate costs less to build than the comparisons
# that stand in for it (they break even at 12k-25k bits for d = 3..5).
_PENDING_BITS = 4 * _EXACT_BITS

# decimal digits <= floor(bits * log10(2)) + 1
_LOG10_2 = 0.30102999566398120


def _digits_for_bits(bits: int) -> int:
    return int(bits * _LOG10_2) + 1


def decimal_digits(n: int) -> int:
    """Upper estimate of the decimal digit count of |n|, cheap for huge ints."""
    return _digits_for_bits(abs(n).bit_length())


class DigitBudgetError(RuntimeError):
    """An iterate outgrew the digit budget; ``entries`` holds what was computed."""

    def __init__(self, message: str, entries: list["OrbitEntry"]):
        super().__init__(message)
        self.entries = entries


class FiniteOrbitError(ValueError):
    """Raised where a wandering orbit is required but the orbit is finite."""


@dataclass(frozen=True)
class OrbitEntry:
    n: int
    value: Fraction

    @property
    def A(self) -> int:
        return self.value.numerator

    @property
    def B(self) -> int:
        return self.value.denominator

    @property
    def is_unit(self) -> bool:
        return abs(self.value.numerator) == 1

    @property
    def sign(self) -> int:
        a = self.value.numerator
        return (a > 0) - (a < 0)

    built = True  # a ``PendingEntry`` is not until its value is read

    def compare(self, lhs: list, rhs: list, numerator: bool = False) -> int:
        """The sign of |v| + sum(lhs) - sum(rhs), v the value (its numerator
        with ``numerator``), for terms as ``compare_sums`` takes them."""
        v = abs(self.A) if numerator else abs(self.value)
        if not lhs and len(rhs) == 1 and len(rhs[0]) == 1 and rhs[0][0][1] == 1:
            return (v > rhs[0][0][0]) - (v < rhs[0][0][0])  # against one rational: compare it
        return compare_sums([[(v, 1)], *lhs], rhs)


class PendingEntry(OrbitEntry):
    """Entry n = f(x), its iterate built only when ``value`` is first read.

    With x = p/q and f = f1/m of degree d, acc = sum f1_i p^i q^(d-i) is kept
    as its terms of sign ``sign`` (``big``) and of the other sign (``small``),
    so |acc| = sum(big) - sum(small).  f(x) = acc / (m q^d) = A / B with
    g = gcd(acc, m q^d) = |acc / A|.  Under ``_step``'s valuation rule g
    divides K = m |f1_d|, so g = gcd(acc mod K, m q^d mod K, K).
    """

    def __init__(self, n: int, f: PolyQ, x: Fraction, big: list, small: list, sign: int):
        object.__setattr__(self, "n", n)  # a frozen field
        self.f, self.x, self.big, self.small, self._sign = f, x, big, small, sign
        (f1, m), q, d = f.cleared, x.denominator, f.degree
        K = m * abs(f1[0][1])
        self.g = gcd(self.residue(K), m * pow(q, d, K), K)
        self.den = [(m, 1), (q, d)]

    value = cached_property(lambda self: self.f.evaluate(self.x))
    sign = property(lambda self: self._sign)
    built = property(lambda self: "value" in vars(self))

    def residue(self, modulus: int) -> int:
        """acc mod ``modulus``, from the residues of p and q."""
        p, q, d = self.x.numerator % modulus, self.x.denominator % modulus, self.f.degree
        terms = (a * pow(p, i, modulus) * pow(q, d - i, modulus) for i, a in self.f.cleared[0])
        return sum(terms) % modulus

    def compare(self, lhs: list, rhs: list, numerator: bool = False) -> int:
        """``OrbitEntry.compare``, first from the terms of acc: both sides times
        m q^d (times g with ``numerator``).  The value is built only where
        ``compare_sums(..., exact=False)`` leaves the sign undecided."""
        if not self.built:
            unit = [(self.g, 1)] if numerator else self.den
            lhs_, rhs_ = ([*t, *unit] for t in lhs), ([*t, *unit] for t in rhs)
            if sign := compare_sums([*self.big, *lhs_], [*self.small, *rhs_], exact=False):
                return sign
        return super().compare(lhs, rhs, numerator)


WANDERING = "wandering"
PREPERIODIC = "preperiodic"
HIT_ZERO = "hit_zero"


@dataclass
class Orbit:
    """Computed orbit data plus its classification.

    kind is one of "wandering", "preperiodic", "hit_zero".  For preperiodic
    orbits, f^(tail+period)(0) = f^tail(0) with tail >= 1; a return to 0
    itself is reported as hit_zero with ``step`` the first n with f^n(0)=0.
    """

    kind: str
    entries: list[OrbitEntry] = field(default_factory=list)
    tail: int | None = None
    period: int | None = None
    step: int | None = None

    @property
    def wandering(self) -> bool:
        return self.kind == WANDERING

    def describe_cycle(self) -> str:
        if self.kind == HIT_ZERO:
            vals = ["0"] + [str(e.value) for e in self.entries]
            return " -> ".join(vals)
        if self.kind == PREPERIODIC:
            vals = ["0"] + [str(e.value) for e in self.entries]
            vals.append(str(self.entries[self.tail - 1].value))
            return " -> ".join(vals)
        return "wandering"


def _budget_bits(budget: int) -> int:
    """The fewest bits B >= 1 whose digit estimate exceeds ``budget``: an integer
    is over the budget exactly when it has B bits or more (a denominator has at
    least one bit, so B = 1 rejects everything, as a budget below 1 does)."""
    lo, hi = 1, 4 * budget + 4  # 4 * budget + 3 bits have more than budget digits
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _digits_for_bits(mid) > budget else (mid + 1, hi)
    return lo


def _gcd_ceiling(f1: tuple[tuple[int, int], ...], q: int) -> list[tuple[int, int]]:
    """G, as a product of powers, with gcd(acc, q^d) <= G (see ``_step``).

    ``f1`` holds the (degree, coefficient) pairs of the cleared polynomial,
    leading term first.  G = |f1_d| when the leading term of acc has the
    strictly smallest valuation at every prime of gcd(q, f1_d), else q^d.
    """
    d, lead = f1[0][0], abs(f1[0][1])
    # at a prime r of gcd(q0, f1_d) (those of gcd(q, f1_d)), v_r(f1_d) < cap
    # and v_r(q0) = min(v_r(q), 2 v_r(f1_d)), so f1_i q^(d-i) outvalues the
    # leading term exactly when f1_i q0^min(d-i, cap) does; all lower terms
    # do when r divides t // gcd(t, f1_d), t their gcd (0 for none), and
    # the pow tests every r at once
    cap, q0 = lead.bit_length(), gcd(q, lead * lead)
    t = gcd(*(a * q0 ** min(d - i, cap) for i, a in f1[1:]))
    return [(lead, 1)] if pow(t // gcd(t, lead), cap, gcd(q0, lead)) == 0 else [(q, d)]


def _signed_terms(f: PolyQ, x: Fraction) -> tuple[list, list]:
    """acc's terms of sign +1 and of sign -1, each a product of powers."""
    f1, d = f.cleared[0], f.degree
    p, q = x.numerator, x.denominator
    pos, neg = [], []
    for i, a in f1:
        side = neg if (a < 0) != (p < 0 and i % 2 == 1) else pos
        side.append([(abs(a), 1), (abs(p), i), (q, d - i)])
    return pos, neg


def _step(f: PolyQ, x: Fraction, B: int, earlier: list | None = None) -> Fraction | None:
    """f(x), or None when its numerator or denominator has B bits or more.
    Given the ``earlier`` values, ending in x, f(x) may instead come unbuilt
    as a ``PendingEntry`` past ``_PENDING_BITS``.

    Write x = p/q, f = f1/m, d = deg f and acc = sum f1_i p^i q^(d-i), so that
    f(x) = acc / (m q^d) and the reducing gcd divides m gcd(acc, q^d).  Since
    acc = f1_d p^d mod q, only a prime r of gcd(q, f1_d) can divide
    gcd(acc, q^d).  If the leading term of acc has the strictly smallest
    valuation at every such r, then v_r(acc) = v_r(f1_d) there and the gcd is
    at most m G with G = |f1_d|; otherwise take G = q^d.  The lowest-terms
    denominator is then at least q^d / G and the numerator at least
    |acc| / (m G), so q^d > 2^(B-1) G or |acc| > 2^(B-1) m G puts f(x) over
    budget.  ``compare_sums`` decides both from the signed terms of acc and
    builds no power of d; a tie or a near-tie, such as top terms that cancel,
    is left to the evaluation.  Neither can hold unless a size ceiling reaches
    B: bits(acc) <= max_i(bits(f1_i) + i bits(p) + (d-i) bits(q)) + (term
    count) and bits(m q^d) <= bits(m) + d bits(q).  So the screen runs only
    near the budget, and every early rejection is one the post-check makes.
    Below B the post-check would pass, so an unbuilt entry needs only
    G = |f1_d|, a sign and a denominator or |numerator| past every earlier one.
    """
    f1, m = f.cleared
    d = f1[0][0]
    p, q = x.numerator, x.denominator
    bp, bq = abs(p).bit_length(), q.bit_length()
    ceiling = max(a.bit_length() + i * bp + (d - i) * bq for i, a in f1) + len(f1)
    ceiling = max(ceiling, m.bit_length() + d * bq)
    pending = earlier is not None and _PENDING_BITS < ceiling < B
    if pending or ceiling >= B:
        G, (pos, neg) = _gcd_ceiling(f1, q), _signed_terms(f, x)
    if ceiling >= B:
        floor = [(2, B - 1), (m, 1), *G]
        if (compare_sums([[(q, d)]], [[(2, B - 1), *G]], exact=False) > 0
                or compare_sums(pos, [*neg, floor], exact=False) > 0
                or compare_sums(neg, [*pos, floor], exact=False) > 0):
            return None
    elif pending and G[0][1] == 1 and (sign := compare_sums(pos, neg, exact=False)):
        entry = PendingEntry(len(earlier), f, x, *((pos, neg) if sign > 0 else (neg, pos)), sign)
        B_max, A_max = max(v.denominator for v in earlier), max(abs(v.numerator) for v in earlier)
        # bracket-only, like the sign: a near-tie builds f(x) once, below
        g = (entry.g, 1)
        if (compare_sums([entry.den], [[g, (B_max, 1)]], exact=False) > 0
                or compare_sums(entry.big, [*entry.small, [g, (A_max, 1)]], exact=False) > 0):
            return entry
    y = f.evaluate(x)
    if max(y.numerator.bit_length(), y.denominator.bit_length()) >= B:
        return None
    return y


def orbit(
    f: PolyQ, N: int, *, digit_budget: int = DEFAULT_DIGIT_BUDGET, lazy: bool = False
) -> Orbit:
    """Compute f^1(0) .. f^N(0), stopping early on a finite orbit.  With
    ``lazy``, entry N may be a ``PendingEntry`` (see ``iterate_point``)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    values = iterate_point(f, Fraction(0), N, digit_budget=digit_budget, lazy=lazy)
    *head, last = values
    if isinstance(last, PendingEntry):  # new and under budget: the orbit wanders
        return Orbit(WANDERING, [OrbitEntry(i, x) for i, x in enumerate(head[1:], 1)] + [last])
    n = len(values) - 1
    entries = [OrbitEntry(i, x) for i, x in enumerate(values[1:], 1)]
    # a finite orbit ends on its first repeat, and a return to 0 repeats index 0
    first = values.index(values[-1])
    if first == n:
        if n < N:
            raise DigitBudgetError(
                f"iterate {n + 1} exceeds digit budget of {digit_budget} decimal digits", entries
            )
        return Orbit(WANDERING, entries)
    if first == 0:
        return Orbit(HIT_ZERO, entries, tail=0, period=n, step=n)
    return Orbit(PREPERIODIC, entries[:-1], tail=first, period=n - first)


def iterate_point(
    f: PolyQ, x: Fraction, N: int, *, digit_budget: int = DEFAULT_DIGIT_BUDGET, lazy: bool = False
) -> list:
    """Return [x, f(x), ..., f^N(x)] exactly, guarding sizes.

    On budget exhaustion the values computed so far are returned (callers use
    the deepest iterate they got).  A finite orbit stops at its first repeated
    value, which ends the list: every later iterate repeats one already there.
    With ``lazy``, f^N(x) may come unbuilt, as a ``PendingEntry`` (``_step``).
    """
    values, seen, bits = [x], {x}, _budget_bits(digit_budget)
    for k in range(N, 0, -1):
        x = _step(f, x, bits, values if lazy and k == 1 else None)
        if x is None:
            break
        values.append(x)
        if isinstance(x, PendingEntry) or x in seen:  # an unbuilt entry is new
            break
        seen.add(x)
    return values


def wandering_entries(
    f: PolyQ, N: int, *, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> list[OrbitEntry]:
    """Orbit entries 1..N for a wandering orbit; FiniteOrbitError otherwise."""
    orb = orbit(f, N, digit_budget=digit_budget)
    if not orb.wandering:
        raise FiniteOrbitError(f"orbit of 0 is finite ({orb.describe_cycle()})")
    return orb.entries
