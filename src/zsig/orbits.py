"""Forward orbit of 0 under a rational polynomial, with exact bookkeeping.

Each iterate f^n(0) = A_n / B_n is kept in lowest terms (B_n > 0).  Orbits
terminate early when an iterate repeats (preperiodic) or returns to 0, and a
digit budget guards against runaway growth (sizes scale like d^n digits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .config import DEFAULT_DIGIT_BUDGET
from .polynomials import PolyQ

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


def _denominator_bits_floor(f: PolyQ, x: Fraction) -> int:
    """A lower bound on the bit length of the denominator of f(x), from sizes.

    Write x = p/q, f = f1/m and d = deg f.  In the Horner value
    sum f1_i p^i q^(d-i) the leading term has v_r = v_r(f1_d) at each prime r
    of q, and a lower term has v_r >= (d-i) v_r(q).  That exceeds v_r(f1_d) if
    v_r(f1_d) < v_r(q), or if d - e >= bits(f1_d) > v_r(f1_d) for the second
    exponent e of f1 (a lone term needs nothing).  The Horner value then has
    v_r = v_r(f1_d) at those r, the reducing gcd divides m*f1_d, and the
    denominator is at least q^d / |f1_d|.  Otherwise the bound is 0.
    """
    f1, _ = f.cleared
    lead = abs(f1[0][1])
    q = x.denominator
    if len(f1) > 1 and f1[0][0] - f1[1][0] < lead.bit_length():
        # every prime of gcd(q, f1_d) must still divide q / gcd(q, f1_d)
        shared = gcd(q, lead)
        rest = q // shared
        while shared > 1:
            t = gcd(shared, rest)
            if t == 1:
                return 0
            shared //= t
    return f.degree * (q.bit_length() - 1) - lead.bit_length() + 1


def _numerator_bits_floor(f: PolyQ, x: Fraction, den_floor: int) -> int:
    """A lower bound on the bit length of the numerator of f(x), from sizes.

    Write f = f1/m, x = p/q, d = deg f and S = sum_(i<d) |f1_i|.  When S = 0,
    or |p| >= q and |f1_d| |p| >= 2qS, the tail is small next to the leading
    term: |sum_(i<d) f1_i x^i| <= S |x|^(d-1) <= |f1_d| |x|^d / 2, so
    |f(x)| >= |f1_d| |x|^d / (2m).  The lowest-terms numerator is |f(x)| times
    the denominator, which is at least 2^(den_floor-1) (and at least 1), with
    ``den_floor`` from ``_denominator_bits_floor``.  So

        log2 |numerator| >= log2 |f1_d| + d log2 p - d log2 q - log2 m - 1
                            + max(den_floor - 1, 0).

    Bound each log2 by bit lengths: log2 a >= bits(a) - 1 for a >= 1,
    log2 q <= bits(q - 1) (= ceil(log2 q), exact for q = 1 and powers of
    two) and log2 m < bits(m).  The last is strict, so log2 |numerator| > R
    for the integer R = (returned value) - 1, and the bit length, which is
    floor(log2 |numerator|) + 1, is at least R + 1.  Otherwise the bound is 0.
    """
    f1, m = f.cleared
    d, lead = f1[0][0], abs(f1[0][1])
    p, q = abs(x.numerator), x.denominator
    tail = sum(abs(a) for _, a in f1[1:])
    if p == 0 or (tail and (p < q or lead * p < 2 * q * tail)):
        return 0
    return (
        lead.bit_length() + d * (p.bit_length() - 1) - d * (q - 1).bit_length()
        - m.bit_length() + max(den_floor - 1, 0) - 1
    )


def _step(f: PolyQ, x: Fraction, budget: int) -> Fraction | None:
    """f(x), or None when it outgrows the digit budget.

    Iterates whose denominator or numerator bound breaks the budget are
    rejected before the costly evaluation runs.  Both bounds are at most the
    true bit lengths and ``_digits_for_bits`` is monotone, so the early
    rejection is exactly the decision the post-check would make.
    """
    den_floor = _denominator_bits_floor(f, x)
    if _digits_for_bits(den_floor) > budget or (
        _digits_for_bits(_numerator_bits_floor(f, x, den_floor)) > budget
    ):
        return None
    y = f.evaluate(x)
    if decimal_digits(y.numerator) > budget or decimal_digits(y.denominator) > budget:
        return None
    return y


def orbit(f: PolyQ, N: int, *, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> Orbit:
    """Compute f^1(0) .. f^N(0), stopping early on a finite orbit."""
    if N < 1:
        raise ValueError("N must be >= 1")
    values = iterate_point(f, Fraction(0), N, digit_budget=digit_budget)
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
    f: PolyQ, x: Fraction, N: int, *, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> list[Fraction]:
    """Return [x, f(x), ..., f^N(x)] exactly, guarding sizes.

    On budget exhaustion the values computed so far are returned (callers use
    the deepest iterate they got).  A finite orbit stops at its first repeated
    value, which ends the list: every later iterate repeats one already there.
    """
    values, seen = [x], {x}
    for _ in range(N):
        x = _step(f, x, digit_budget)
        if x is None:
            break
        values.append(x)
        if x in seen:
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
