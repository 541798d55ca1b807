from bisect import bisect_right
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from zsig import (
    DigitBudgetError,
    FiniteOrbitError,
    OrbitEntry,
    PolyQ,
    iterate_point,
    orbit,
    parse_poly,
    wandering_entries,
)
from zsig.config import DEFAULT_DIGIT_BUDGET
from zsig.orbits import _budget_bits, _digits_for_bits, _gcd_ceiling, _step, decimal_digits
from zsig.verifiers import trinomial


def test_orbit_z2_plus_1():
    orb = orbit(parse_poly("1,0,1"), 6)
    assert orb.wandering
    assert [e.A for e in orb.entries] == [1, 2, 5, 26, 677, 458330]
    assert all(e.B == 1 for e in orb.entries)


def test_orbit_z3_plus_5_halves():
    orb = orbit(parse_poly("5/2,0,0,1"), 3)
    assert [(e.A, e.B) for e in orb.entries] == [(5, 2), (145, 8), (3049905, 512)]


def test_hit_zero_cycle():
    orb = orbit(parse_poly("-1,0,1"), 5)
    assert orb.kind == "hit_zero"
    assert orb.step == 2
    assert orb.describe_cycle() == "0 -> -1 -> 0"


def test_preperiodic_without_zero():
    # 0 -> -2 -> 2 -> 2 ...
    orb = orbit(parse_poly("-2,0,1"), 6)
    assert orb.kind == "preperiodic"
    assert (orb.tail, orb.period) == (2, 1)
    assert [e.A for e in orb.entries] == [-2, 2]


@pytest.mark.parametrize("coeffs, x, values", [
    ("-1,0,1", 0, [0, -1, 0]),
    ("-2,0,1", 0, [0, -2, 2, 2]),
    ("-2,0,1", 2, [2, 2]),
    ("-2,0,1", -1, [-1, -1]),
])
def test_iterate_point_stops_at_the_first_repeat(coeffs, x, values):
    assert iterate_point(parse_poly(coeffs), Fraction(x), 10**9) == values


def test_wandering_entries_raises_on_finite():
    with pytest.raises(FiniteOrbitError):
        wandering_entries(parse_poly("-1,0,1"), 5)


def test_digit_budget():
    f = parse_poly("3,0,1")
    with pytest.raises(DigitBudgetError) as exc:
        orbit(f, 30, digit_budget=50)
    assert exc.value.entries  # partial results preserved
    assert all(len(str(abs(e.A))) <= 50 for e in exc.value.entries)


def test_entries_reduced_and_composable():
    f = parse_poly("z^3-2z^2+3")
    orb = orbit(f, 5)
    prev = Fraction(0)
    for e in orb.entries:
        assert gcd(abs(e.A), e.B) == 1
        assert e.B >= 1
        assert e.value == f.evaluate(prev)
        prev = e.value


def test_wandering_orbit_values_distinct():
    orb = orbit(parse_poly("1,0,1"), 8)
    values = [e.value for e in orb.entries]
    assert len(set(values)) == len(values)


@pytest.mark.parametrize(
    "d,e,c",
    [(3, 2, Fraction(5, 2)), (4, 2, Fraction(-5, 2)), (4, 3, Fraction(3, 2)),
     (5, 2, Fraction(1, 2)), (3, 2, Fraction(-7, 3))],
)
def test_denominator_tower_for_trinomials(d, e, c):
    b = c.denominator
    orb = orbit(trinomial(d, e, c), 5)
    assert orb.wandering
    for entry in orb.entries:
        assert entry.B == b ** (d ** (entry.n - 1))


def test_denominator_tower_for_binomial():
    f = parse_poly("z^3+7/2")
    for entry in orbit(f, 5).entries:
        assert entry.B == 2 ** (3 ** (entry.n - 1))


def _post_check_orbit(f, N, budget):
    """Reference loop: evaluate every iterate, then apply the digit budget.

    Returns (index of the first iterate over budget or None, entries kept).
    """
    entries = []
    x = Fraction(0)
    for n in range(1, N + 1):
        x = f.evaluate(x)
        if decimal_digits(x.numerator) > budget or decimal_digits(x.denominator) > budget:
            return n, entries
        entries.append(OrbitEntry(n, x))
    return None, entries


@pytest.mark.parametrize(
    "f",
    [trinomial(5, 2, Fraction(-3, 2)), trinomial(3, 2, Fraction(5, 2)),
     trinomial(4, 3, Fraction(-7, 3)), parse_poly("z^3+7/2"), parse_poly("1/2,0,8"),
     parse_poly("5/6,0,3/4,9/2")],
)
def test_budget_stop_matches_post_check(f):
    for budget in list(range(1, 80)) + [150, 300, 700, 1500, 4000, 5000]:
        stop, kept = _post_check_orbit(f, 8, budget)
        if stop is None:
            assert orbit(f, 8, digit_budget=budget).entries == kept
        else:
            with pytest.raises(DigitBudgetError, match=f"iterate {stop} ") as exc:
                orbit(f, 8, digit_budget=budget)
            assert exc.value.entries == kept
        values = iterate_point(f, Fraction(0), 8, digit_budget=budget)
        assert values == [Fraction(0)] + [e.value for e in kept]


def test_budget_precheck_skips_the_evaluation(monkeypatch):
    # iterate 7 of z^5+z^2-3/2 has a 4704-digit denominator: the size bound
    # rejects it at budget 4000 before it is computed
    f = trinomial(5, 2, Fraction(-3, 2))
    calls = []
    evaluate = PolyQ.evaluate
    monkeypatch.setattr(PolyQ, "evaluate", lambda self, x: calls.append(x) or evaluate(self, x))
    with pytest.raises(DigitBudgetError, match="iterate 7 ") as exc:
        orbit(f, 10, digit_budget=4000)
    assert len(exc.value.entries) == 6
    assert len(calls) == 6
    calls.clear()
    assert len(iterate_point(f, Fraction(0), 10, digit_budget=4000)) == 7
    assert len(calls) == 6


def test_numerator_bound_skips_the_evaluation(monkeypatch):
    # iterate 9 of z^5+z^2+5/2 has a 390625-bit denominator, inside the
    # default budget, over a 917k-bit numerator: the numerator bound alone
    # rejects it before it is computed
    f = trinomial(5, 2, Fraction(5, 2))
    stop, kept = _post_check_orbit(f, 10, DEFAULT_DIGIT_BUDGET)
    assert stop == 9
    calls = []
    evaluate = PolyQ.evaluate
    monkeypatch.setattr(PolyQ, "evaluate", lambda self, x: calls.append(x) or evaluate(self, x))
    with pytest.raises(DigitBudgetError, match="iterate 9 ") as exc:
        orbit(f, 10)
    assert exc.value.entries == kept
    assert len(calls) == len(kept)
    calls.clear()
    assert iterate_point(f, Fraction(0), 10) == [Fraction(0)] + [e.value for e in kept]
    assert len(calls) == len(kept)


@pytest.mark.parametrize("poly, stop", [
    # f1_d = 3 shares the prime of q = 3, and d - e = 1
    ("z^1001+z^1000-1/3", 2),
    # an integer iterate under a tail that outweighs the leading coefficient
    ("z^1001+z^1000+3", 2),
    # a negative middle coefficient: iterate 4 is 1 - 2 * 3^1001
    ("z^1001-3z^1000+1", 4),
])
def test_budget_precheck_skips_the_evaluation_next_to_a_large_tail(monkeypatch, poly, stop):
    f = parse_poly(poly)
    assert _post_check_orbit(f, 6, 100)[0] == stop
    calls = []
    evaluate = PolyQ.evaluate
    monkeypatch.setattr(PolyQ, "evaluate", lambda self, x: calls.append(x) or evaluate(self, x))
    with pytest.raises(DigitBudgetError, match=f"iterate {stop} ") as exc:
        orbit(f, 6, digit_budget=100)
    assert len(exc.value.entries) == stop - 1
    assert len(calls) == stop - 1


def test_budget_precheck_leaves_cancelling_top_terms_to_the_evaluation(monkeypatch):
    # z^1001 - 3z^1000 + 3 fixes 3: the top terms of f(3) cancel, so no size
    # bound decides it, and that near-tie must not read as over the budget
    f = parse_poly("z^1001-3z^1000+3")
    calls = []
    evaluate = PolyQ.evaluate
    monkeypatch.setattr(PolyQ, "evaluate", lambda self, x: calls.append(x) or evaluate(self, x))
    orb = orbit(f, 4, digit_budget=100)
    assert orb.kind == "preperiodic" and [e.value for e in orb.entries] == [3]
    assert len(calls) == 2


def test_budget_bits_is_the_first_bit_count_over_the_budget():
    # 2^63 and 10^23 are past ssize_t, where no range of bit counts fits
    for budget in [*range(1, 5001), 65536, 200_000, 123_456_789, 10**9, 2**31, 2**63, 10**23]:
        B = _budget_bits(budget)
        assert _digits_for_bits(B - 1) <= budget < _digits_for_bits(B)


def test_budget_bits_matches_the_range_bisection_it_replaced():
    for budget in range(1, 10**5 + 1):
        old = bisect_right(range(1, 4 * budget + 4), budget, key=_digits_for_bits) + 1
        assert _budget_bits(budget) == old


_shared_dens = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 16, 27])


def _screen_parts(coeffs, x):
    """f(x), acc, m and the gcd ceiling G that ``_step`` screens with."""
    f = PolyQ.from_coeffs(coeffs)
    f1, m = f.cleared
    d = f1[0][0]
    p, q = x.numerator, x.denominator
    acc = sum(a * p**i * q ** (d - i) for i, a in f1)
    G = 1
    for base, e in _gcd_ceiling(f1, q):
        G *= base**e
    return f.evaluate(x), acc, m, q**d, G


_coeff_lists = st.lists(
    st.builds(Fraction, st.integers(min_value=-20, max_value=20), _shared_dens),
    min_size=3, max_size=6,
).filter(lambda cs: cs[-1] != 0)
_points = st.builds(Fraction, st.integers(min_value=-40, max_value=40), _shared_dens)


@given(_coeff_lists, _points)
# z^3 + z^2/2 + 1/2 at -5/2: the prime 2 of q is absorbed by f1_d = 2, and
# q^d / |f1_d| would overstate the denominator 1, so G must fall back to q^d
@example([Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(1)], Fraction(-5, 2))
# z^5 + 5/2 at 5/2 and 3z^5 + 1/3 at 1/3: f1_d = 2 and 9 share q's prime, but
# the gap d - e = 5 keeps the leading term's valuation strictly smallest
@example([Fraction(5, 2), 0, 0, 0, 0, Fraction(1)], Fraction(5, 2))
@example([Fraction(1, 3), 0, 0, 0, 0, Fraction(3)], Fraction(1, 3))
def test_denominator_bits_floor_is_a_lower_bound(coeffs, x):
    # the denominator floor q^d / G of the screen never exceeds the
    # lowest-terms denominator of f(x)
    y, _, _, qd, G = _screen_parts(coeffs, x)
    assert qd <= y.denominator * G


@given(_coeff_lists, _points)
# -9/4 z^3: no lower terms, so the leading valuation is trivially smallest
@example([Fraction(0), Fraction(0), Fraction(0), Fraction(-9, 4)], Fraction(3, 8))
# 512 z^3 - 124 at 5/8: f(x) = 1, far below |f1_d| |x|^d / (2m) = 125/2
@example([Fraction(-124), Fraction(0), Fraction(0), Fraction(512)], Fraction(5, 8))
# the coefficient denominators 2 and 4 share the prime 2 with q = 4
@example([Fraction(1, 2), Fraction(0), Fraction(1, 4), Fraction(1, 2)], Fraction(81, 4))
def test_numerator_bits_floor_is_a_lower_bound(coeffs, x):
    # the numerator floor |acc| / (m G) of the screen never exceeds the
    # lowest-terms numerator of f(x)
    y, acc, m, _, G = _screen_parts(coeffs, x)
    assert abs(acc) <= abs(y.numerator) * m * G


@given(_coeff_lists, _points)
# z^3 + z^2/2 + 1/2 at -5/2: the prime 2 of q is absorbed by f1_d = 2, and
# q^d / |f1_d| overstates the denominator 1
@example([Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(1)], Fraction(-5, 2))
# z^5 + 5/2 at 5/2 and 3z^5 + 1/3 at 1/3: f1_d = 2 and 9 share q's prime, but
# the gap d - e = 5 keeps the leading term's valuation strictly smallest
@example([Fraction(5, 2), 0, 0, 0, 0, Fraction(1)], Fraction(5, 2))
@example([Fraction(1, 3), 0, 0, 0, 0, Fraction(3)], Fraction(1, 3))
# -9/4 z^3: no lower terms, so the leading valuation is trivially smallest
@example([Fraction(0), Fraction(0), Fraction(0), Fraction(-9, 4)], Fraction(3, 8))
# 512 z^3 - 124 at 5/8: f(x) = 1, far below |f1_d| |x|^d / (2m) = 125/2
@example([Fraction(-124), Fraction(0), Fraction(0), Fraction(512)], Fraction(5, 8))
# the coefficient denominators 2 and 4 share the prime 2 with q = 4
@example([Fraction(1, 2), Fraction(0), Fraction(1, 4), Fraction(1, 2)], Fraction(81, 4))
def test_step_rejects_exactly_what_the_post_check_rejects(coeffs, x):
    # every bit threshold from 1 to one past the value's size: a screen that
    # overstates a size by a single bit rejects at one of them
    f = PolyQ.from_coeffs(coeffs)
    y = f.evaluate(x)
    bits = max(y.numerator.bit_length(), y.denominator.bit_length())
    for B in range(1, bits + 2):
        assert _step(f, x, B) == (None if bits >= B else y)
