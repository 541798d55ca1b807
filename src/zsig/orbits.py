"""Forward orbit of 0 under a rational polynomial, with exact bookkeeping.

Each iterate f^n(0) = A_n / B_n is kept in lowest terms (B_n > 0).  Orbits
terminate early when an iterate repeats (preperiodic) or returns to 0, and a
digit budget guards against runaway growth (sizes scale like d^n digits).  An
iterate is over the budget when A_n or B_n has B bits or more, B fixed by the
budget; ``_step`` rejects one whose size provably reaches B before building it.

With ``lazy`` (the verdict path) an iterate past ``_PENDING_BITS`` may stay
unbuilt, as a ``PendingEntry`` that keeps a bracket lo <= |acc| <= hi of the
Horner sum acc = g A_n: at the horizon, and where the next step may reach B.
That step's screen then runs on the bracket: each of its inequalities puts
terms increasing in |A_n| on both sides, taken at lo on the side that must
be large and at hi on the side that must be small, so a rejection holds for
the true A_n.  A case left open builds A_n and steps on as from any value,
so every stop falls at the index it would with A_n built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple

from .arith import _EXACT_BITS, compare_sums, sum_bracket
from .config import DEFAULT_DIGIT_BUDGET
from .polynomials import PolyQ

# Up to this size ceiling an iterate costs less to build than the comparisons
# that stand in for it (they break even at 10k-16k bits for d = 3..5).
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


class OrbitEntry(NamedTuple):
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
        return compare_sums([[(v, 1)], *lhs], rhs)


class PendingEntry(OrbitEntry):
    """Entry n = f(x), its iterate built only when ``value`` is first read.

    With x = p/q and f = f1/m of degree d, acc = sum f1_i p^i q^(d-i) is kept
    as ``bracket`` = (lo, hi, e) with lo 2^e <= |acc| <= hi 2^e, from one
    ``sum_bracket`` of its positive and negative terms.  f(x) = acc / (m q^d)
    = A / B with g = gcd(acc, m q^d) = |acc / A|.  Under ``_step``'s valuation
    rule g divides K = m |f1_d|, so g = gcd(acc mod K, m q^d mod K, K).
    ``sign`` is 0 where the bracket leaves it open.
    """

    def __new__(cls, n: int, f: PolyQ, x: Fraction, pos: list, neg: list) -> PendingEntry:
        self = super().__new__(cls, n, None)  # the value field stays None: see ``value``
        lo, hi, e = sum_bracket(pos, neg)
        self.f, self.x, self._sign = f, x, (lo > 0) - (hi < 0)
        self.bracket = (-hi, -lo, e) if self._sign < 0 else (lo, hi, e)
        (f1, m), q, d = f.cleared, x.denominator, f.degree
        K = m * abs(f1[0][1])
        self.g = gcd(self.residue(K), m * pow(q, d, K), K)
        self.den = [(m, 1), (q, d)]
        return self

    value = cached_property(lambda self: self.f.evaluate(self.x))
    sign = property(lambda self: self._sign)
    built = property(lambda self: "value" in vars(self))

    def residue(self, modulus: int) -> int:
        """acc mod ``modulus``, from the residues of p and q."""
        p, q, d = self.x.numerator % modulus, self.x.denominator % modulus, self.f.degree
        terms = (a * pow(p, i, modulus) * pow(q, d - i, modulus) for i, a in self.f.cleared[0])
        return sum(terms) % modulus

    def den_residue(self, modulus: int) -> int:
        """B mod ``modulus``, from m q^d mod g ``modulus`` (B = m q^d / g)."""
        (_, m), mod = self.f.cleared, self.g * modulus
        return m * pow(self.x.denominator, self.f.degree, mod) % mod // self.g

    def compare(self, lhs: list, rhs: list, numerator: bool = False, exact: bool = True) -> int:
        """``OrbitEntry.compare``, first from ``bracket``: the other terms, times
        m q^d (times g with ``numerator``), are bracketed on their own and added
        to it.  The value is built only where that leaves the sign undecided;
        with ``exact=False`` such a sign is 0 and nothing is built."""
        if not self.built:
            unit = [(self.g, 1)] if numerator else self.den
            lo, hi, e = sum_bracket([[*t, *unit] for t in lhs], [[*t, *unit] for t in rhs])
            acc_lo, acc_hi, acc_e = self.bracket
            s = min(e, acc_e)  # the finer grid: both sums are exact on it
            lo, hi = (acc_lo << acc_e - s) + (lo << e - s), (acc_hi << acc_e - s) + (hi << e - s)
            if (sign := (lo > 0) - (hi < 0)) or not exact:
                return sign
        return super().compare(lhs, rhs, numerator)


WANDERING = "wandering"
PREPERIODIC = "preperiodic"
HIT_ZERO = "hit_zero"


class Orbit(NamedTuple):
    """Computed orbit data plus its classification.

    kind is one of "wandering", "preperiodic", "hit_zero".  For preperiodic
    orbits, f^(tail+period)(0) = f^tail(0) with tail >= 1; a return to 0
    itself is reported as hit_zero with ``step`` the first n with f^n(0)=0.
    """

    kind: str
    entries: list[OrbitEntry]
    tail: int | None = None
    period: int | None = None
    step: int | None = None

    @property
    def wandering(self) -> bool:
        return self.kind == WANDERING

    def describe_cycle(self) -> str:
        if self.wandering:
            return "wandering"
        vals = ["0"] + [str(e.value) for e in self.entries]
        if self.kind == PREPERIODIC:  # back to the first value of the cycle
            vals.append(str(self.entries[self.tail - 1].value))
        return " -> ".join(vals)


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
    That test reads q only modulo f1_d^2.  G has exponent 1 only where
    |f1_d| holds: at d = 1 it always does, as gcd(acc, q) = gcd(f1_1, q).
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


def _pow(term: list, k: int) -> list:  # the k-th power of a product of powers
    return [(b, j * k) for b, j in term]


def _signed_terms(f1: tuple, negative: bool, p: list, q: list) -> tuple[list, list]:
    """acc's terms of sign +1 and of sign -1, each a product of powers, for
    x = -p/q if ``negative`` else p/q, p >= 0 and q > 0 products of powers."""
    d, pos, neg = f1[0][0], [], []
    for i, a in f1:
        side = neg if (a < 0) != (negative and i % 2 == 1) else pos
        side.append([(abs(a), 1), *_pow(p, i), *_pow(q, d - i)])
    return pos, neg


def _over_budget(B: int, m: int, G: list, qd: list, low: tuple, high: tuple) -> bool:
    """The screen of ``_step``: whether q^d > 2^(B-1) G or |acc| > 2^(B-1) m G,
    given G and q^d as products of powers and the signed terms of acc at a
    lower (``low``) and an upper (``high``) bound of |p|.  Each side that must
    be large takes ``low`` and each side that must be small takes ``high``, so
    a rejection holds for every |p| in between.  A near-tie rejects nothing."""
    floor = [(2, B - 1), (m, 1), *G]
    return (compare_sums([qd], [[(2, B - 1), *G]], exact=False) > 0
            or compare_sums(low[0], [*high[1], floor], exact=False) > 0
            or compare_sums(low[1], [*high[0], floor], exact=False) > 0)


def _step(
    f: PolyQ, x: Fraction, B: int, earlier: list | None = None, last: bool = True
) -> Fraction | None:
    """f(x), or None when its numerator or denominator has B bits or more.
    Given the ``earlier`` values, ending in x, f(x) may instead come unbuilt
    as a ``PendingEntry`` past ``_PENDING_BITS``: if it is the ``last`` step,
    or if the next step's size ceiling may reach B.

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
    Its bits are at most the ceiling C, so the next step's ceiling is at most
    d C + bits(max(m, |f1_i|)) + (term count); ``_unbuilt_over_budget`` runs
    that step's screen on the entry's bracket.
    """
    f1, m = f.cleared
    d = f1[0][0]
    p, q = x.numerator, x.denominator
    bp, bq = abs(p).bit_length(), q.bit_length()
    ceiling = max(a.bit_length() + i * bp + (d - i) * bq for i, a in f1) + len(f1)
    ceiling = max(ceiling, m.bit_length() + d * bq)
    reach = d * ceiling + max(m, *(abs(a) for _, a in f1)).bit_length() + len(f1)
    pending = earlier is not None and _PENDING_BITS < ceiling < B and (last or reach >= B)
    if pending or ceiling >= B:
        G, terms = _gcd_ceiling(f1, q), _signed_terms(f1, p < 0, [(abs(p), 1)], [(q, 1)])
    if ceiling >= B:
        if _over_budget(B, m, G, [(q, d)], terms, terms):
            return None
    elif pending and G[0][1] == 1:
        entry = PendingEntry(len(earlier), f, x, *terms)
        B_max, A_max = max(v.denominator for v in earlier), max(abs(v.numerator) for v in earlier)
        # bracket-only, like the sign: a near-tie builds f(x) once, below
        if entry.sign and (
            compare_sums([entry.den], [[(entry.g, 1), (B_max, 1)]], exact=False) > 0
            or entry.compare([], [[(A_max, 1)]], numerator=True, exact=False) > 0
        ):
            return entry
    y = f.evaluate(x)
    if max(y.numerator.bit_length(), y.denominator.bit_length()) >= B:
        return None
    return y


def _unbuilt_over_budget(f: PolyQ, x: PendingEntry, B: int) -> bool:
    """``_step``'s screen for f(x), x = A/B' unbuilt: x = f(p/q), so g |A| = |acc|
    lies in x's ``bracket`` [lo 2^e, hi 2^e] and g B' = m q^d.  Every term of
    the next acc has degree d in (A, B'), so the screen times g^d reads the
    same on g |A| and g B', with g^d G for G.  The valuation rule reads B'
    only mod f1_d^2.  False leaves x to be built."""
    f1, m = f.cleared
    d, g, (lo, hi, e) = f1[0][0], x.g, x.bracket
    G = _gcd_ceiling(f1, x.den_residue(f1[0][1] ** 2))
    G = [(abs(f1[0][1]), 1), (g, d)] if G[0][1] == 1 else _pow(x.den, d)
    two = (2, e) if e >= 0 else (Fraction(1, 2), -e)
    low, high = (_signed_terms(f1, x.sign < 0, [(b, 1), two], x.den) for b in (lo, hi))
    return _over_budget(B, m, G, _pow(x.den, d), low, high)


def orbit(
    f: PolyQ, N: int, *, digit_budget: int = DEFAULT_DIGIT_BUDGET, lazy: bool = False
) -> Orbit:
    """Compute f^1(0) .. f^N(0), stopping early on a finite orbit.  With
    ``lazy``, the last entry may be a ``PendingEntry`` (see ``iterate_point``),
    also when it ends the orbit at a budget stop."""
    if N < 1:
        raise ValueError("N must be >= 1")
    values = iterate_point(f, Fraction(0), N, digit_budget=digit_budget, lazy=lazy)
    n = len(values) - 1
    entries = [x if isinstance(x, PendingEntry) else OrbitEntry(i, x)
               for i, x in enumerate(values[1:], 1)]
    # a finite orbit ends on its first repeat, and a return to 0 repeats index 0;
    # an unbuilt entry is new
    first = n if isinstance(values[-1], PendingEntry) else values.index(values[-1])
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
    With ``lazy``, an iterate may come unbuilt, as a ``PendingEntry`` (``_step``).
    The next step's budget screen then runs on it (``_unbuilt_over_budget``):
    a rejection ends the list with it unbuilt, and otherwise it is built and
    the step runs as on any value.  So only the last item can be unbuilt.
    """
    # keyed by (numerator, denominator): a Fraction's own hash costs a modular inverse
    values, seen, bits = [x], {x.as_integer_ratio()}, _budget_bits(digit_budget)
    for k in range(N, 0, -1):
        if isinstance(x, PendingEntry):
            if _unbuilt_over_budget(f, x, bits):
                break
            x = values[-1] = x.value
            seen.add(x.as_integer_ratio())
        x = _step(f, x, bits, values if lazy else None, k == 1)
        if x is None:
            break
        values.append(x)
        if not isinstance(x, PendingEntry):  # an unbuilt entry is new
            if (key := x.as_integer_ratio()) in seen:
                break
            seen.add(key)
    return values


def wandering_entries(
    f: PolyQ, N: int, *, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> list[OrbitEntry]:
    """Orbit entries 1..N for a wandering orbit; FiniteOrbitError otherwise."""
    orb = orbit(f, N, digit_budget=digit_budget)
    if not orb.wandering:
        raise FiniteOrbitError(f"orbit of 0 is finite ({orb.describe_cycle()})")
    return orb.entries
