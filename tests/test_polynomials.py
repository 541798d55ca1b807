import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from zsig import ParseError, PolyQ, parse_poly
from zsig.verifiers import trinomial


def test_parse_coefficient_list():
    f = parse_poly("5/2,0,0,1")
    assert f.degree == 3
    assert f.terms == ((3, 1), (0, Fraction(5, 2)))
    assert f.admissible


def test_parse_symbolic():
    f = parse_poly("z^3+5/2")
    assert f.terms == ((3, 1), (0, Fraction(5, 2)))
    g = parse_poly("z^2 + 1")
    assert g.terms == ((2, 1), (0, 1))
    h = parse_poly("z^3 - 2*z^2 + 3")
    assert h.terms == ((3, 1), (2, -2), (0, 3))
    assert parse_poly("z^4+z^2+5/2").terms == ((4, 1), (2, 1), (0, Fraction(5, 2)))
    # terms cancelling below the top drop out; a written top term must survive
    assert parse_poly("z^3+z^2-z^2+1") == parse_poly("1,0,0,1")
    assert all(type(a) is Fraction for _, a in parse_poly("3,0,1").terms)


def test_admissible_flag():
    assert parse_poly("1,0,1").admissible
    assert not parse_poly("1,2,1").admissible


@pytest.mark.parametrize(
    "text",
    [
        "", "1,2", "1,0,0", "z", "z^1+1", "3", "1,0,x", "1//2,0,1", "z^2+q",
        "z^3-z^3+z^2+1", "0*z^3+z^2+1",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_poly(text)


def test_evaluate_examples():
    assert parse_poly("z^2+1").evaluate(Fraction(0)) == 1
    assert parse_poly("z^3+5/2").evaluate(Fraction(5, 2)) == Fraction(145, 8)
    assert parse_poly("z^3-2z^2+3").evaluate(Fraction(3)) == 12


def test_clear_denominators():
    assert parse_poly("z^3+5/2").cleared == (((3, 2), (0, 5)), 2)
    assert parse_poly("z^2+1").cleared == (((2, 1), (0, 1)), 1)
    assert parse_poly("z^4+z^2+5/2").cleared == (((4, 2), (2, 2), (0, 5)), 2)
    assert parse_poly("5/6*z^5+1/4*z^2").cleared == (((5, 10), (2, 3)), 12)


def test_trinomial_form():
    assert parse_poly("z^4+z^2+5/2").trinomial_form() == (4, 2, Fraction(5, 2))
    assert parse_poly("z^3+7/2").trinomial_form() == (3, None, Fraction(7, 2))
    assert parse_poly("z^3-2z^2+3").trinomial_form() is None
    assert parse_poly("1,2,1").trinomial_form() is None


def test_str_round_trips_through_parser():
    for text in ("z^3+5/2", "z^3-2z^2+3", "-1,0,1", "z^4+z^2+5/2", "0,0,-3,0,1/2"):
        f = parse_poly(text)
        assert parse_poly(str(f)) == f


def test_a_huge_sparse_degree_costs_its_terms():
    # a dense form of degree 10^6 would hold a million coefficients
    tracemalloc.start()
    try:
        f = parse_poly("z^1000000+1")
        g = trinomial(10**6, 2, Fraction(5, 2))
        texts = str(f), str(g)
        forms = f.trinomial_form(), g.trinomial_form()
        cleared = f.cleared, g.cleared
        values = f.evaluate(Fraction(1)), g.evaluate(Fraction(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert texts == ("z^1000000 + 1", "z^1000000 + z^2 + 5/2")
    assert forms == ((10**6, None, 1), (10**6, 2, Fraction(5, 2)))
    assert cleared == ((((10**6, 1), (0, 1)), 1), (((10**6, 2), (2, 2), (0, 5)), 2))
    assert values == (2, Fraction(9, 2))
    assert peak < 1_000_000


def test_evaluate_skips_the_power_of_a_cancelled_accumulator():
    # f(3) = 3^d - 3 * 3^(d-1) + 3 = 3: the top terms cancel, so the 2 MB
    # power 3^(10^7) is never built
    f = parse_poly("z^10000000-3z^9999999+3")
    tracemalloc.start()
    try:
        value = f.evaluate(Fraction(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 3
    assert peak < 100_000


_small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)


def _sparse(coeff):
    """Coefficients that are zero half the time: interior zeros, gaps of
    several exponents and a zero constant term (a final power of p) all occur."""
    return st.one_of(st.just(Fraction(0)), coeff)


@given(
    st.lists(_sparse(_small_fractions), min_size=3, max_size=9),
    st.builds(Fraction, st.integers(min_value=-30, max_value=30),
              st.integers(min_value=1, max_value=10)),
)
# 5z^7 - 3/4 z^3: gaps of 4 and a final p^3
@example([0, 0, 0, Fraction(-3, 4), 0, 0, 0, 5], Fraction(-7, 3))
def test_evaluate_matches_naive_horner(coeffs, x):
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    f = PolyQ.from_coeffs(coeffs)
    naive = Fraction(0)
    for c in reversed(coeffs):
        naive = naive * x + c
    assert f.evaluate(x) == naive


def _horner_value(f, x):
    """The unreduced pair (acc, m*q^d) that evaluate() brings to lowest terms."""
    f1, m = f.cleared
    p, q = x.numerator, x.denominator
    acc = sum(a * p**i * q ** (f.degree - i) for i, a in f1)
    return acc, m * q**f.degree


# Denominators built from the primes of the point's denominators, so the
# coefficient denominators and x's denominator share primes.
_shared_dens = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 27, 36])


@given(
    st.lists(
        _sparse(st.builds(Fraction, st.integers(min_value=-40, max_value=40), _shared_dens)),
        min_size=3, max_size=9,
    ),
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.builds(Fraction, st.integers(min_value=-30, max_value=30), _shared_dens),
)
# -2/9 z^8 + 1/6 z^2 at 9/4: a gap of 6, a final p^2, and shared primes 2, 3
@example([0, 0, Fraction(1, 6), 0, 0, 0, 0, 0, Fraction(1, 9)], -2, Fraction(9, 4))
def test_evaluate_lowest_terms_chained(coeffs, lead, x):
    coeffs[-1] = Fraction(lead, coeffs[-1].denominator)  # non-monic, nonzero leading
    f = PolyQ.from_coeffs(coeffs)
    for _ in range(4):
        acc, den = _horner_value(f, x)
        y = f.evaluate(x)
        assert type(y) is Fraction
        assert y.denominator > 0 and gcd(y.numerator, y.denominator) == 1
        assert y == Fraction(acc, den)
        x = y
