import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from zsig import (
    PolyQ,
    check_condition3,
    compute_sign_sets,
    family_C,
    global_height,
    iterate_point,
    omega,
    omega_inequality_audit,
    parse_poly,
    theorem1_bound,
    wandering_entries,
)
from zsig.bounds import growth_certificate
from zsig.verifiers import binomial, trinomial
from zsig.zsigmondy import zsigmondy_report_from_entries
from tests.conftest import LEAN


def test_sign_sets_all_positive():
    s = compute_sign_sets(parse_poly("1,0,1"))
    assert s.N_plus == s.N_minus == frozenset()
    assert s.n_plus == s.n_minus == 1


def test_sign_sets_mixed():
    s = compute_sign_sets(parse_poly("z^3-2z^2+3"))
    assert s.N_plus == frozenset({2})
    assert s.n_plus == 2
    assert s.N_minus == frozenset({0})
    assert s.n_minus == 1


def test_sign_sets_trinomial_positive_c():
    s = compute_sign_sets(trinomial(4, 2, Fraction(7, 2)))
    assert s.N_plus == frozenset()


def test_sign_sets_partition_property():
    import random

    rng = random.Random(3)
    for _ in range(60):
        d = rng.randrange(2, 6)
        coeffs = [Fraction(rng.randrange(-4, 5)) for _ in range(d)] + [
            Fraction(rng.choice([-3, -1, 1, 2]))
        ]
        f = PolyQ.from_coeffs(coeffs)
        s = compute_sign_sets(f)
        assert s.N_plus | s.N_minus <= frozenset(range(d + 1))
        # negating all coefficients preserves the split exactly
        assert compute_sign_sets(PolyQ.from_coeffs([-c for c in coeffs])) == s


def test_condition3_examples():
    assert check_condition3(parse_poly("1,0,1"), Fraction(1))
    f = parse_poly("z^3-2z^2+3")
    assert check_condition3(f, Fraction(3))
    assert not check_condition3(f, Fraction(2))
    with pytest.raises(ValueError):
        check_condition3(f, Fraction(1, 2))


def test_condition3_monotone_in_magnitude():
    f = parse_poly("z^3-2z^2+3")
    held = False
    for t in range(1, 30):
        z = Fraction(t, 4)
        if z < 1:
            continue
        ok = check_condition3(f, z)
        if held:
            assert ok  # once true it stays true as |z| grows
        held = held or ok
    assert held


@pytest.mark.parametrize("poly", ["z^7-2z^3+3", "z^6+z^2-5/2", "-z^5+4z-1", "z^9-3z^8+1/2"])
def test_condition3_agrees_with_the_sum_over_every_index(poly):
    f = parse_poly(poly)
    signs = compute_sign_sets(f)
    for z in (Fraction(1), Fraction(3, 2), Fraction(-2), Fraction(5, 2), Fraction(-7, 3), Fraction(4)):
        az = abs(z)
        coeffs = dict(f.terms)
        every_index = all(
            sum(abs(coeffs.get(i, 0)) * az ** (i - n) for i in range(n + 1, f.degree + 1))
            >= sum(abs(coeffs.get(i, 0)) for i in n_set) + 1
            for n_set, n in ((signs.N_plus, signs.n_plus), (signs.N_minus, signs.n_minus))
        )
        assert check_condition3(f, z) == every_index


def test_condition3_barely_above_one_builds_no_power():
    # |z|^999998 = 1.105... < 2: decided from size brackets (15 s when the
    # exact fallback built |z|^999998)
    f = parse_poly("z^1000000-z^2+10000001/10000000")
    start = time.perf_counter()
    assert not check_condition3(f, f.constant)
    assert time.perf_counter() - start < 2


def test_prop31_examples():
    # Prop 3.1: where |z| >= 1 satisfies the domination inequality,
    # |f^k(z)| >= |z| for every k
    for poly, z, K in (("1,0,1", 1, 5), ("z^3-2z^2+3", 3, 4), ("z^3+7/2", Fraction(7, 2), 4)):
        f = parse_poly(poly)
        assert check_condition3(f, Fraction(z))
        values = iterate_point(f, Fraction(z), K)
        assert len(values) == K + 1
        assert all(abs(v) >= abs(z) for v in values[1:])
    assert not check_condition3(parse_poly("z^3-2z^2+3"), Fraction(2))


def test_omega_and_s_d():
    assert omega(12) == 2
    assert omega(1) == 0
    assert omega(30030) == 6


def test_omega_inequality_boundary():
    equalities, violations = omega_inequality_audit(3, 10_000)
    assert equalities == [2]  # 2*1+1 = 3 = 3^(2/2), equality not strict
    assert violations == []
    for d in (4, 5):
        assert omega_inequality_audit(d, 10_000) == ([], [])


def test_omega_inequality_audit_small_memory():
    # only n <= 64 is examined, so a huge n_max must not allocate O(n_max)
    tracemalloc.start()
    try:
        result = omega_inequality_audit(3, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == ([2], [])
    assert peak < 1_000_000


def test_omega_inequality_audit_outputs():
    def brute_omega(n):
        return sum(1 for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q)))

    for d in range(3, 7):
        for n_max in (0, 1, 2, 3, 5, 64, 65, 100, 10**6):
            ns = range(2, min(n_max, 64) + 1)
            expected = (
                [n for n in ns if (2 * brute_omega(n) + 1) ** 2 == d**n],
                [n for n in ns if (2 * brute_omega(n) + 1) ** 2 > d**n],
            )
            got = omega_inequality_audit(d, n_max)
            assert got == expected
            assert got == (([2], []) if d == 3 and n_max >= 2 else ([], []))
    with pytest.raises(ValueError):
        omega_inequality_audit(3, -1)


def test_theorem1_bound_reproduces_worked_value():
    f = parse_poly("z^3+7/2")
    hc = global_height(Fraction(7, 2))
    res = theorem1_bound(f, hc / 3, family_C(Fraction(7, 2)))
    expected = 2 / math.log(3) * math.log(3 * (math.log(2) + hc) / (2 * hc / 3)) + 2
    assert abs(res.n_max - expected) <= 1e-6
    assert 5.0 <= res.n_max < 6.0
    assert res.n_max_floor == 5
    assert res.certified


def test_theorem1_bound_trivial_point():
    f = parse_poly("1,0,1")
    d = f.degree
    C = 0.7
    res = theorem1_bound(f, d * C / (d - 1), C)
    assert res.n_max == pytest.approx(2.0, abs=1e-9)


def test_theorem1_bound_monotone_in_height():
    f = parse_poly("z^3+7/2")
    C = family_C(Fraction(7, 2))
    values = [theorem1_bound(f, h, C).n_max for h in (0.1, 0.2, 0.5, 1.0)]
    assert values == sorted(values, reverse=True)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_theorem1_bound_rejects_bad_inputs():
    f = parse_poly("z^3+7/2")
    with pytest.raises(ValueError):
        theorem1_bound(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        theorem1_bound(parse_poly("1,2,1"), 0.5, 1.0)  # nonzero linear term
    with pytest.raises(ValueError):
        theorem1_bound(binomial(3, Fraction(1, 2)), 0.5, 1.0)  # |a_0| < 1


def test_growth_certificate_paths():
    assert growth_certificate(parse_poly("z^3+7/2"))  # condition holds at a_0
    # d = e+1 with odd d fails the sign condition but the family fact applies
    f = trinomial(3, 2, Fraction(5, 2))
    assert not check_condition3(f, Fraction(5, 2))
    assert growth_certificate(f)
    assert growth_certificate(trinomial(3, 2, Fraction(3, 2)))  # c > 1 family fact
    assert not growth_certificate(parse_poly("1,0,-3,1"))


def test_growth_certificate_off_the_families_is_condition3():
    f = parse_poly("z^4+2z^2+10")  # middle coefficient 2: no family fact applies
    assert f.trinomial_form() is None
    assert check_condition3(f, Fraction(10)) and growth_certificate(f)


def test_certified_bound_contains_observed_elements():
    from zsig import ingram_lower_bound, trinomial_family_lower
    from zsig.heights import hypothesis_abs_c_exceeds

    cases = []
    for d in (3, 4):
        for c in (Fraction(5, 2), Fraction(7, 2), Fraction(-7, 3)):
            if hypothesis_abs_c_exceeds(c, d):
                f = binomial(d, c)
                cases.append((f, ingram_lower_bound(f).lower))
    for d, e in ((3, 2), (4, 2), (4, 3), (5, 2)):
        for c in (Fraction(5, 2), Fraction(-5, 2), Fraction(3, 2)):
            f = trinomial(d, e, c)
            cases.append((f, trinomial_family_lower(f).lower))
    assert len(cases) > 12
    for f, hhat in cases:
        res = theorem1_bound(f, hhat, family_C(f.constant))
        assert res.certified, str(f)
        # the elements do not depend on witnesses (see
        # test_verdict_only_report_agrees_with_full), so none are listed
        entries = wandering_entries(f, res.n_max_floor + 4, digit_budget=LEAN.digit_budget)
        rep = zsigmondy_report_from_entries(
            entries, LEAN, witnesses=False, denominator_lcm=f.cleared[1]
        )
        assert all(n <= res.n_max_floor for n in rep.elements), str(f)
