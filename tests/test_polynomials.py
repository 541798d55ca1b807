from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from zsig import ParseError, PolyQ, clear_denominators, parse_poly


def test_parse_coefficient_list():
    f = parse_poly("5/2,0,0,1")
    assert f.degree == 3
    assert f.coeffs == (Fraction(5, 2), 0, 0, 1)
    assert f.admissible


def test_parse_symbolic():
    f = parse_poly("z^3+5/2")
    assert f.coeffs == (Fraction(5, 2), 0, 0, 1)
    g = parse_poly("z^2 + 1")
    assert g.coeffs == (1, 0, 1)
    h = parse_poly("z^3 - 2*z^2 + 3")
    assert h.coeffs == (3, 0, -2, 1)
    assert parse_poly("z^4+z^2+5/2").coeffs == (Fraction(5, 2), 0, 1, 0, 1)


def test_admissible_flag():
    assert parse_poly("1,0,1").admissible
    assert not parse_poly("1,2,1").admissible


@pytest.mark.parametrize(
    "text",
    ["", "1,2", "1,0,0", "z", "z^1+1", "3", "1,0,x", "1//2,0,1", "z^2+q"],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_poly(text)


def test_evaluate_examples():
    assert parse_poly("z^2+1").evaluate(Fraction(0)) == 1
    assert parse_poly("z^3+5/2").evaluate(Fraction(5, 2)) == Fraction(145, 8)
    assert parse_poly("z^3-2z^2+3").evaluate(Fraction(3)) == 12


def test_clear_denominators():
    assert clear_denominators(parse_poly("z^3+5/2")) == ((5, 0, 0, 2), 2)
    assert clear_denominators(parse_poly("z^2+1")) == ((1, 0, 1), 1)
    assert clear_denominators(parse_poly("z^4+z^2+5/2")) == ((5, 0, 2, 0, 2), 2)


def test_trinomial_form():
    assert parse_poly("z^4+z^2+5/2").trinomial_form() == (4, 2, Fraction(5, 2))
    assert parse_poly("z^3+7/2").trinomial_form() == (3, None, Fraction(7, 2))
    assert parse_poly("z^3-2z^2+3").trinomial_form() is None
    assert parse_poly("1,2,1").trinomial_form() is None


def test_str_round_trips_through_parser():
    for text in ("z^3+5/2", "z^3-2z^2+3", "-1,0,1", "z^4+z^2+5/2"):
        f = parse_poly(text)
        assert parse_poly(str(f)) == f


_small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)


@given(
    st.lists(_small_fractions, min_size=3, max_size=6),
    st.builds(Fraction, st.integers(min_value=-30, max_value=30),
              st.integers(min_value=1, max_value=10)),
)
def test_evaluate_matches_naive_horner(coeffs, x):
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    f = PolyQ(tuple(coeffs))
    naive = Fraction(0)
    for c in reversed(coeffs):
        naive = naive * x + c
    assert f.evaluate(x) == naive


def _horner_value(f, x):
    """The unreduced pair (acc, m*q^d) that evaluate() brings to lowest terms."""
    f1, m = clear_denominators(f)
    p, q = x.numerator, x.denominator
    acc = sum(a * p**i * q ** (f.degree - i) for i, a in enumerate(f1))
    return acc, m * q**f.degree


# Denominators built from the primes of the point's denominators, so the
# coefficient denominators and x's denominator share primes.
_shared_dens = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 27, 36])


@given(
    st.lists(
        st.builds(Fraction, st.integers(min_value=-40, max_value=40), _shared_dens),
        min_size=3, max_size=6,
    ),
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.builds(Fraction, st.integers(min_value=-30, max_value=30), _shared_dens),
)
def test_evaluate_lowest_terms_chained(coeffs, lead, x):
    coeffs[-1] = Fraction(lead, coeffs[-1].denominator)  # non-monic, nonzero leading
    f = PolyQ(tuple(coeffs))
    for _ in range(4):
        acc, den = _horner_value(f, x)
        y = f.evaluate(x)
        assert type(y) is Fraction
        assert y.denominator > 0 and gcd(y.numerator, y.denominator) == 1
        assert y == Fraction(acc, den)
        x = y
