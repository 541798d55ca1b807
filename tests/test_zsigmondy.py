import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zsig import (
    DigitBudgetError,
    FiniteOrbitError,
    OrbitEntry,
    PolyQ,
    check_zsigmondy_divisibility,
    factor,
    orbit,
    parse_poly,
    verify_rigid_divisibility,
    v_p,
    wandering_entries,
    zsigmondy_set,
)
import zsig.zsigmondy as zmod
from zsig.zsigmondy import rigid_law_holds, stripped_numerator, zsigmondy_report_from_entries
from zsig.verifiers import binomial, trinomial
from tests.conftest import LEAN, full_strip, oracle_elements

Z2P1 = orbit(parse_poly("1,0,1"), 6).entries


def test_primitive_verdict_stripping():
    v = zsigmondy_report_from_entries(Z2P1, LEAN).per_index[4 - 1]
    assert v.stripped_part == 13
    assert v.has_primitive
    assert v.witness_primes == (13,)


def test_primitive_verdict_unit():
    v = zsigmondy_report_from_entries(Z2P1, LEAN).per_index[1 - 1]
    assert v.is_unit and not v.has_primitive
    assert v.stripped_part == 1


def test_primitive_verdict_strips_shared_factor():
    entries = orbit(parse_poly("5/2,0,0,1"), 2).entries
    v = zsigmondy_report_from_entries(entries, LEAN).per_index[2 - 1]
    assert v.stripped_part == 29  # 145 = 5 * 29, the 5 is shared with A_1
    assert v.has_primitive


def test_stripped_part_divides_numerator():
    entries = orbit(parse_poly("3,0,1"), 7).entries
    report = zsigmondy_report_from_entries(entries, LEAN)
    for n in range(1, 8):
        v = report.per_index[n - 1]
        assert abs(entries[n - 1].A) % v.stripped_part == 0


def test_witness_primes_are_primitive():
    for text in ("3,0,1", "5/2,0,0,1", "7/2,0,0,1"):
        entries = orbit(parse_poly(text), 7).entries
        report = zsigmondy_report_from_entries(entries, LEAN)
        for n in range(1, 8):
            v = report.per_index[n - 1]
            for p in v.witness_primes:
                assert entries[n - 1].A % p == 0, (text, n, p)
                assert all(entries[m - 1].A % p != 0 for m in range(1, n)), (text, n, p)


def test_zsigmondy_set_z2_plus_1():
    rep = zsigmondy_set(parse_poly("1,0,1"), 6, LEAN)
    assert rep.elements == [1]
    assert rep.k_table == {2: 2, 5: 3, 13: 4, 677: 5, 45833: 6}
    assert rep.rigid_violations == []


def test_zsigmondy_set_z3_plus_7_halves():
    rep = zsigmondy_set(parse_poly("7/2,0,0,1"), 6, LEAN)
    assert rep.elements == []


def test_zsigmondy_rejects_finite_orbit():
    with pytest.raises(FiniteOrbitError):
        zsigmondy_set(parse_poly("-1,0,1"), 5, LEAN)


def test_zsigmondy_rejects_inadmissible():
    with pytest.raises(ValueError):
        zsigmondy_set(parse_poly("1,2,1"), 5, LEAN)


def test_rigid_divisibility_z2_plus_1():
    # p=2 first divides A_2; p=5 first divides A_3
    assert v_p(Z2P1[1].A, 2) == 1
    assert v_p(Z2P1[3].A, 2) == 1
    assert v_p(Z2P1[5].A, 2) == 1
    assert v_p(Z2P1[2].A, 2) == 0
    assert v_p(Z2P1[4].A, 2) == 0
    assert v_p(Z2P1[5].A, 5) == 1
    violations = verify_rigid_divisibility(Z2P1, {2: 2, 5: 3})
    assert violations == []


def test_rigid_divisibility_vacuous_for_absent_prime():
    assert verify_rigid_divisibility(Z2P1, {}) == []


def test_divisibility_law_at_unit_index():
    assert check_zsigmondy_divisibility(Z2P1, 1)


def test_divisibility_law_fails_off_elements():
    # A_2 = 2 does not divide A_1 = 1
    assert not check_zsigmondy_divisibility(Z2P1, 2)


CORPUS = (
    [binomial(d, Fraction(c)) for d in (2, 3, 4) for c in (1, -1, 2, -2, 3, -3, Fraction(5, 2), Fraction(7, 2), Fraction(-7, 3))]
    + [trinomial(d, e, Fraction(c))
       for (d, e) in ((3, 2), (4, 2), (4, 3), (5, 2))
       for c in (Fraction(5, 2), Fraction(-5, 2), Fraction(3, 2), Fraction(1, 2), Fraction(-2, 3), Fraction(-3, 2))]
)


@pytest.fixture(scope="session")
def corpus_reports():
    reports = {}
    for f in CORPUS:
        try:
            reports[str(f)] = (f, zsigmondy_set(f, 8, LEAN))
        except FiniteOrbitError:
            reports[str(f)] = (f, None)
    return reports


def test_corpus_oracle_equivalence(corpus_reports):
    compared = 0
    for fname, (f, rep) in corpus_reports.items():
        if rep is None:
            continue
        entries = orbit(f, 8).entries
        oracle = oracle_elements(entries)
        for v in rep.per_index:
            expected = oracle[v.n]
            if expected is None:
                continue
            compared += 1
            assert (not v.has_primitive) == expected, (fname, v.n)
    assert compared > 150  # most corpus indices are settled by the oracle


def test_corpus_rigid_divisibility_and_elements(corpus_reports):
    for fname, (f, rep) in corpus_reports.items():
        if rep is None:
            continue
        assert rep.rigid_violations == [], fname
        entries = orbit(f, 8).entries
        for n in rep.elements:
            assert check_zsigmondy_divisibility(entries, n), (fname, n)


def test_verdict_only_report_agrees_with_full(corpus_reports):
    for fname, (f, rep) in corpus_reports.items():
        if rep is None:
            continue
        entries = orbit(f, 8).entries
        lean = zsigmondy_report_from_entries(entries, LEAN, witnesses=False)
        assert lean.elements == rep.elements, fname
        assert [v.is_unit for v in lean.per_index] == [v.is_unit for v in rep.per_index]
        assert [v.stripped_part for v in lean.per_index] == [v.stripped_part for v in rep.per_index]
        assert len(lean.rigid_violations) == len(rep.rigid_violations), fname
        assert all(v.witness_primes == () for v in lean.per_index) and lean.k_table == {}


def _pairwise_rigid(entries):
    """gcd(A_n, A_m) = A_gcd(m,n) for all m < n, and A_n/A_m coprime to A_m
    when m | n: the law at every prime, checked pair by pair."""
    a = [abs(e.A) for e in entries]
    for n in range(2, len(a) + 1):
        for m in range(1, n):
            if math.gcd(a[n - 1], a[m - 1]) != a[math.gcd(m, n) - 1]:
                return False
            if n % m == 0 and math.gcd(a[n - 1] // a[m - 1], a[m - 1]) != 1:
                return False
    return True


def _hand_built(numerators):
    return [OrbitEntry(n, Fraction(a)) for n, a in enumerate(numerators, start=1)]


# A_2 = 2 * 3: the 3 then reappears at the odd index 3 (and its square at 4)
BROKEN = _hand_built([2, 6, 15, 36, 7])
HAND_BUILT = [_hand_built(a) for a in ([1, 4, 3, 16], [3, 5, 3], [2, 2], [5, 7, 11, 35])]


def test_rigid_law_holds_matches_pairwise_check(corpus_reports):
    checked = 0
    for fname, (f, rep) in corpus_reports.items():
        if rep is None:
            continue
        entries = orbit(f, 8).entries
        stripped = [v.stripped_part for v in rep.per_index]
        assert rigid_law_holds(entries, stripped) and _pairwise_rigid(entries), fname
        checked += 1
    assert checked > 20
    for entries in [BROKEN] + HAND_BUILT:
        stripped = [stripped_numerator(entries, n) for n in range(1, len(entries) + 1)]
        assert rigid_law_holds(entries, stripped) == _pairwise_rigid(entries), entries
    assert not _pairwise_rigid(BROKEN)


def test_verdict_only_report_falls_back_when_rigidity_breaks(monkeypatch):
    full = zsigmondy_report_from_entries(BROKEN, LEAN)
    assert full.rigid_violations  # the hand-built sequence breaks the law at p = 3
    calls = []
    monkeypatch.setattr(zmod, "factor", lambda m, **kw: calls.append(m) or factor(m, **kw))
    lean = zsigmondy_report_from_entries(BROKEN, LEAN, witnesses=False)
    assert calls  # took the factoring path
    assert lean.elements == full.elements
    assert len(lean.rigid_violations) == len(full.rigid_violations)


def _refuse_factor(*args, **kwargs):
    raise AssertionError("factor called on the verdict-only path")


def test_verdict_only_report_never_factors_a_rigid_sequence(monkeypatch):
    monkeypatch.setattr(zmod, "factor", _refuse_factor)
    entries = orbit(parse_poly("5/2,0,1,0,1"), 8).entries
    report = zsigmondy_report_from_entries(entries, LEAN, witnesses=False)
    assert report.elements == [] and report.rigid_violations == []


def test_verdict_only_report_strips_the_exempt_primes(monkeypatch):
    # L = 6 and the denominator prime 2 divides some numerators, so |A_n| is
    # not prod S_k at 2; with the primes of L divided out of both sides the
    # identity holds and nothing is factored
    f = parse_poly("1/3,0,1/2,5/6")
    entries = wandering_entries(f, 6)
    expected = zsigmondy_set(f, 6, LEAN).elements
    monkeypatch.setattr(zmod, "factor", _refuse_factor)
    report = zsigmondy_report_from_entries(
        entries, LEAN, witnesses=False, denominator_lcm=f.cleared[1]
    )
    assert report.rigid_violations == [] and report.elements == expected


def test_report_rejects_a_zero_numerator():
    # the orbit of z^3/4 - z^2 + 2 is 2, 0, ...: stripping a zero never ends
    entries = orbit(parse_poly("2,0,-1,1/4"), 4).entries
    assert [e.A for e in entries] == [2, 0]
    with pytest.raises(ValueError, match="zero numerator"):
        zsigmondy_report_from_entries(entries, LEAN)


def test_default_strip_is_the_full_strip():
    # no polynomial known (L = 0): hand-built sequences obey no strong
    # divisibility, so every earlier numerator must take part
    for entries in [BROKEN] + HAND_BUILT:
        for n in range(1, len(entries) + 1):
            assert stripped_numerator(entries, n) == full_strip(entries, n), (entries, n)


def _orbit_prefix(f, horizon, digit_budget):
    try:
        entries = orbit(f, horizon, digit_budget=digit_budget).entries
    except DigitBudgetError as exc:
        entries = exc.entries
    return [e for e in entries if e.A != 0]  # the zero that ends an orbit has no stripped part


# Denominators rich in 2 and 3, so denominator primes meet the numerators.
_dens = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12])
_coeff = st.builds(Fraction, st.integers(min_value=-12, max_value=12), _dens)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_coeff, min_size=2, max_size=4)
    .filter(lambda cs: cs[-1] != 0 and any(c.denominator > 1 for c in cs)),
    st.integers(min_value=1, max_value=7),
)
def test_strip_matches_full_strip(coeffs, horizon):
    f = PolyQ.from_coeffs([coeffs[0], Fraction(0), *coeffs[1:]])
    L = f.cleared[1]
    entries = _orbit_prefix(f, horizon, digit_budget=400)
    for n in range(1, len(entries) + 1):
        assert stripped_numerator(entries, n, L) == full_strip(entries, n), (str(f), n)


@pytest.mark.parametrize("coeffs", ["1/3,0,1/2,5/6", "1,0,5/2,3/2,-2"])
def test_strip_needs_the_denominator_term(coeffs):
    # A_5 shares the denominator prime 2 with A_2 or A_3, which no A_(5/q)
    # holds: only the gcd(A_m, L) moduli strip it
    f = parse_poly(coeffs)
    entries = orbit(f, 5).entries
    L = f.cleared[1]
    assert stripped_numerator(entries, 5, L) == full_strip(entries, 5)
    assert stripped_numerator(entries, 5, 1) != full_strip(entries, 5)


@pytest.mark.parametrize("coeffs", ["1/3,0,1/2,5/6", "1,0,5/2,3/2,-2"])
def test_denominator_primes_are_exempt_from_the_rigidity_law(coeffs):
    # L is 6 and 2, but no B_m is even: the law fails at the denominator
    # prime 2, and that is no violation
    f = parse_poly(coeffs)
    L = f.cleared[1]
    entries = orbit(f, 5).entries
    assert all(e.B % 2 for e in entries)
    report = zsigmondy_set(f, 5, LEAN)
    assert 2 in report.k_table and report.rigid_violations == []
    lean = zsigmondy_report_from_entries(entries, LEAN, witnesses=False, denominator_lcm=L)
    assert lean.rigid_violations == []
    # without the polynomial only the primes of the B_m are exempt
    bare = zsigmondy_report_from_entries(entries, LEAN)
    assert {v.prime for v in bare.rigid_violations} == {2}
