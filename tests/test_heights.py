import math
import random
from fractions import Fraction

import pytest

from zsig import (
    canonical_height_interval,
    family_C,
    global_C,
    global_height,
    ingram_lower_bound,
    lemma41_lower_bound,
    local_C_v,
    parse_poly,
    trinomial_D_lower,
    trinomial_family_lower,
)
from zsig.heights import hypothesis_abs_c_exceeds, resultant_constant
from zsig.verifiers import binomial, trinomial


def test_global_height_examples():
    assert math.isclose(global_height(Fraction(5, 2)), math.log(5))
    assert global_height(Fraction(0)) == 0.0
    assert math.isclose(global_height(Fraction(145, 8)), math.log(145))
    assert math.isclose(global_height(Fraction(1, 7)), math.log(7))


def test_local_constants_archimedean():
    # z^d + c: the coefficient-sum term 1 + |c| dominates for |c| >= 1,
    # and the family-level constant 2 + |c| is an upper envelope for it
    for d, c in ((3, Fraction(7, 2)), (4, Fraction(5, 2)), (2, Fraction(3))):
        v = local_C_v(binomial(d, c), None)
        assert math.isclose(v, math.log(1 + abs(c)))
        assert v <= math.log(2 + abs(c))
    # z^d + z^e + c matches the 2 + |c| form exactly
    assert math.isclose(
        local_C_v(parse_poly("z^4+z^2+5/2"), None), math.log(2 + Fraction(5, 2))
    )


def test_local_constants_nonarchimedean():
    f = parse_poly("z^4+z^2+5/2")
    assert math.isclose(local_C_v(f, 2), math.log(2))  # v_2(b) log 2
    assert local_C_v(f, 7) == 0.0
    assert local_C_v(parse_poly("1,0,1"), 7) == 0.0
    g = trinomial(3, 2, Fraction(-7, 12))
    assert math.isclose(local_C_v(g, 2), 2 * math.log(2))
    assert math.isclose(local_C_v(g, 3), math.log(3))


def test_global_C_examples():
    gc = global_C(parse_poly("z^3+7/2"))
    assert math.isclose(gc.total_C, math.log(9))
    assert math.isclose(gc.archimedean_logCv, math.log(4.5))
    assert gc.nonarch_contribs == pytest.approx({2: math.log(2)})
    assert gc.total_C <= family_C(Fraction(7, 2)) + 1e-12
    gc2 = global_C(parse_poly("1,0,1"))
    assert gc2.nonarch_contribs == {}
    # monic integer coefficients with |a_i| <= 1: no finite-place contribution
    gc3 = global_C(parse_poly("1,0,-1,1"))
    assert gc3.nonarch_contribs == {}


def test_interval_shrinks_by_degree_factor():
    # start at N=1: at N=0 the lower end is clipped at zero, breaking the ratio
    f = parse_poly("z^3+7/2")
    c = Fraction(7, 2)
    widths = [canonical_height_interval(f, c, n).width for n in range(1, 5)]
    for a, b in zip(widths, widths[1:]):
        assert b == pytest.approx(a / 3, rel=1e-9)


def test_interval_nesting_and_n0_form():
    f = parse_poly("z^3+7/2")
    c = Fraction(7, 2)
    gc = global_C(f)
    iv0 = canonical_height_interval(f, c, 0)
    slack = 3 * gc.total_C / 2
    assert iv0.lower == pytest.approx(max(0.0, global_height(c) - slack))
    assert iv0.upper == pytest.approx(global_height(c) + slack)
    previous = iv0
    for n in range(1, 7):
        iv = canonical_height_interval(f, c, n)
        assert iv.lower >= previous.lower - 1e-9
        assert iv.upper <= previous.upper + 1e-9
        previous = iv


def test_interval_contains_later_estimates():
    f = parse_poly("z^3+7/2")
    c = Fraction(7, 2)
    iv3 = canonical_height_interval(f, c, 3)
    iv6 = canonical_height_interval(f, c, 6)
    assert iv3.lower - 1e-9 <= iv6.midpoint <= iv3.upper + 1e-9


def test_resultant_constant():
    assert resultant_constant(parse_poly("z^3+7/2")) == 8
    assert resultant_constant(parse_poly("1,0,1")) == 1
    assert resultant_constant(parse_poly("z^4+z^2+5/2")) == 16


def test_trinomial_D_lower_examples():
    assert trinomial_D_lower(parse_poly("z^3+7/2")) == Fraction(8, 343)
    assert trinomial_D_lower(trinomial(4, 3, Fraction(3, 2))) == Fraction(1, 16)
    assert trinomial_D_lower(trinomial(4, 2, Fraction(5, 2))) == Fraction(16, 625)
    with pytest.raises(ValueError):
        trinomial_D_lower(parse_poly("z^3-2z^2+3"))
    with pytest.raises(ValueError):
        trinomial_D_lower(trinomial(3, 2, Fraction(1, 2)))


def test_lemma41_matches_family_closed_form():
    # for z^d + z^e + c with |c| >= 2, the bound collapses to
    # d^-i [h(f^i(x)) - d/(d-1) h(c)]
    f = trinomial(4, 2, Fraction(5, 2))
    c = Fraction(5, 2)
    iv = lemma41_lower_bound(f, c, 1, trinomial_D_lower(f))
    h1 = global_height(f.evaluate(c))
    expected = (h1 - Fraction(4, 3) * global_height(c)) / 4
    assert iv.lower == pytest.approx(float(expected))
    assert iv.upper == math.inf


def test_lemma41_clips_at_zero():
    f = parse_poly("z^3+7/2")
    iv = lemma41_lower_bound(f, Fraction(1), 0, trinomial_D_lower(f))
    assert iv.lower == 0.0
    with pytest.raises(ValueError):
        lemma41_lower_bound(f, Fraction(1), 0, Fraction(0))


def test_deep_preperiodic_bounds_do_not_overflow():
    # 0 -> -1 -> 0: the depth reaches 1100 and 2^1100 is past the largest double
    f = parse_poly("z^2-1")
    iv = lemma41_lower_bound(f, Fraction(0), 1100, trinomial_D_lower(f))
    assert iv.lower == 0.0 and iv.iterations == 1100
    iv = canonical_height_interval(f, Fraction(0), 1100)
    assert iv.lower == 0.0 and iv.iterations == 1100
    assert 0.0 <= iv.upper < 1e-300


def test_ingram_lower_bound():
    f = parse_poly("z^3+7/2")
    iv = ingram_lower_bound(f)
    assert iv.lower == pytest.approx(math.log(7) / 3)
    assert iv.method == "ingram"
    with pytest.raises(ValueError):
        ingram_lower_bound(binomial(3, Fraction(5, 2)))  # below the threshold


def test_hypothesis_exact_comparisons():
    assert hypothesis_abs_c_exceeds(Fraction(7, 2), 3)
    assert not hypothesis_abs_c_exceeds(Fraction(5, 2), 3)
    assert not hypothesis_abs_c_exceeds(Fraction(9, 4), 4)  # 729/64 < 16


def test_family_lower_bound_cases():
    assert trinomial_family_lower(trinomial(5, 3, Fraction(21, 8))).lower == pytest.approx(
        math.log(21) / 4
    )
    assert trinomial_family_lower(trinomial(4, 2, Fraction(5, 2))).lower == pytest.approx(
        math.log(5) / 9
    )
    # h(2c) is the height of the reduced rational 2c: h(3) = log 3 here
    assert trinomial_family_lower(trinomial(3, 2, Fraction(3, 2))).lower == pytest.approx(
        math.log(3) / 6
    )
    with pytest.raises(ValueError):
        trinomial_family_lower(trinomial(3, 2, Fraction(1, 2)))


def test_functional_equation_consistency():
    rng = random.Random(0)
    polys = [parse_poly("1,0,1"), parse_poly("z^3+7/2"), trinomial(4, 2, Fraction(5, 2))]
    for _ in range(12):
        f = rng.choice(polys)
        x = Fraction(rng.randrange(1, 8), rng.randrange(1, 4))
        d = f.degree
        iv_fx = canonical_height_interval(f, f.evaluate(x), 4)
        iv_x = canonical_height_interval(f, x, 4)
        assert abs(iv_fx.midpoint - d * iv_x.midpoint) <= iv_fx.width + d * iv_x.width


def test_lemma41_below_interval_upper():
    for f in (parse_poly("z^3+7/2"), trinomial(4, 2, Fraction(5, 2)),
              trinomial(3, 2, Fraction(3, 2))):
        c = f.constant
        lower = lemma41_lower_bound(f, c, 2, trinomial_D_lower(f)).lower
        upper = canonical_height_interval(f, c, 5).upper
        assert lower <= upper + 1e-9
