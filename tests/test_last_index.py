"""The last index of a verdict, decided without building its iterate.

On the verdict-only path (``verify`` and ``sweep``) the orbit leaves f^N(0)
unbuilt, as an ``orbits.PendingEntry``, wherever its size ceiling is past
``orbits._PENDING_BITS``; N is the horizon, or the last index kept under the
digit budget, whose next step's screen then runs on the entry's bracket.
The report and every claim check read it through residues and a bracket of
acc, and build it only where those cannot decide.  These tests pin that
every verdict is the one the built iterate gives, that each fallback builds
it, and that the README grid at horizon 10 builds no last iterate.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from zsig import orbits
from zsig.arith import _EXACT_BITS
from zsig.orbits import DigitBudgetError, OrbitEntry, PendingEntry, orbit
from zsig.polynomials import PolyQ
from zsig.sweep import run_sweep
from zsig.verifiers import BINOMIAL, CLAIMS, SweepSpec, classify_point, trinomial, verify
from zsig.zsigmondy import zsigmondy_report_from_entries
from tests.conftest import LEAN
from tests.test_acceptance import TRINOMIAL_CS, TRINOMIAL_DES
from tests.test_golden import DATA, SWEEPS, VERIFY_ARGV, _assert_matches, sweep_bytes


def _verdict(pending_bits, *args, **kwargs):
    """``verify(*args)`` with iterates left unbuilt past ``pending_bits``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_PENDING_BITS", pending_bits)
        return verify(*args, **kwargs)


def _built(*args, **kwargs):
    return _verdict(math.inf, *args, **kwargs)


def _ceiling(f: PolyQ, N: int) -> int:
    """The size ceiling ``orbits._step`` takes for f^N(0): bits of acc and m q^d."""
    x = orbit(f, N - 1).entries[-1].value
    (f1, m), bp, bq = f.cleared, abs(x.numerator).bit_length(), x.denominator.bit_length()
    d = f.degree
    acc = max(a.bit_length() + i * bp + (d - i) * bq for i, a in f1) + len(f1)
    return max(acc, m.bit_length() + d * bq)


def _counting(monkeypatch) -> list[tuple[str, int]]:
    """Record (polynomial, numerator bits) of each ``PolyQ.evaluate`` call."""
    calls = []
    evaluate = PolyQ.evaluate

    def counted(self, x):
        y = evaluate(self, x)
        calls.append((str(self), y.numerator.bit_length()))
        return y

    monkeypatch.setattr(PolyQ, "evaluate", counted)
    return calls


# Each claim's c range as (lo, hi), open at both ends; cor12 takes any c.
_RANGES = {
    "cor12": (F(-6), F(6)), "thm13": (F(2), F(12)), "prop51": (F(1), F(2)),
    "prop52": (F(0), F(1)), "prop53": (F(-1), F(0)), "prop54": (F(-2), F(-1)),
}


@st.composite
def _points(draw):
    """(claim, d, e, c, horizon): c an integer, a fraction inside the claim's
    range, or -1 +- 1/k, where z^d and z^e nearly cancel at the orbit's points
    near -1 (d - e odd)."""
    claim = draw(st.sampled_from(sorted(CLAIMS)))
    lo, hi = _RANGES[claim]
    d = draw(st.integers(3, 5))
    e = None if CLAIMS[claim].family == BINOMIAL else draw(st.integers(2, d - 1))
    den = draw(st.integers(1, 9))
    inside = [F(k, den) for k in range(math.floor(lo * den) + 1, math.ceil(hi * den))]
    kind = draw(st.sampled_from(["fraction", "integer", "near -1"]))
    if claim == "thm13" and draw(st.booleans()):
        lo, hi = -hi, -lo  # |c| > 2 on both sides
        inside = [-c for c in inside]
    if kind == "integer" and claim in ("cor12", "thm13"):
        c = F(draw(st.integers(math.floor(lo) + 1, math.ceil(hi) - 1).filter(bool)))
    elif kind == "near -1" and claim in ("prop53", "prop54"):
        k = draw(st.integers(20, 200))
        c = F(-1) + (F(1, k) if claim == "prop53" else F(-1, k))
    else:
        c = draw(st.sampled_from([c for c in inside if c] or [(lo + hi) / 2]))
    horizon = draw(st.integers(3, {3: 10, 4: 8, 5: 7}[d]))
    return claim, d, e, c, horizon


@given(_points(), st.sampled_from([0, orbits._PENDING_BITS]))
@settings(max_examples=80, deadline=None)
def test_unbuilt_last_index_gives_the_built_verdict(point, pending_bits):
    # at a threshold of 0 every last step is a candidate, so the residue and
    # comparison paths run at every size, exact sums included
    claim, d, e, c, horizon = point
    assert _verdict(pending_bits, claim, d, c, e, LEAN, horizon) == _built(
        claim, d, c, e, LEAN, horizon
    )


def test_golden_bytes_with_every_last_index_a_candidate(monkeypatch, tmp_path):
    for key in [key for key in os.environ if key.startswith("ZSIG_")]:
        monkeypatch.delenv(key)
    monkeypatch.setattr(orbits, "_PENDING_BITS", 0)
    for name in sorted(SWEEPS):
        assert sweep_bytes(name, tmp_path) == (DATA / f"golden_sweep_{name}.jsonl").read_bytes()
    _assert_matches("golden_verify.json", VERIFY_ARGV)


_SMALL_C = {  # test_acceptance's points of criterion 7, by claim: (d, e) pairs and constants
    "prop51": ([(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)], ["3/2", "5/3", "7/4", "9/8", "13/7"]),
    "prop52": ([(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)], ["1/2", "2/3", "3/4", "1/3", "4/5"]),
    "prop53": ([(3, 2), (5, 2), (5, 3), (5, 4)], ["-1/2", "-2/3", "-3/4", "-1/3", "-4/5"]),
    "prop54": ([(3, 2), (5, 2), (5, 3), (4, 2)], ["-3/2", "-4/3", "-5/4", "-7/5", "-8/5"]),
}
_ACCEPTANCE = [
    ("thm13", d, e, c) for d, e in TRINOMIAL_DES for c in TRINOMIAL_CS if abs(c) > 2
] + [
    (claim, d, e, F(c)) for claim, (des, cs) in _SMALL_C.items() for d, e in des for c in cs
] + [("cor12", 3, None, F(7, 2))]


@pytest.mark.parametrize("pending_bits", [0, orbits._PENDING_BITS])
def test_acceptance_points_unbuilt_give_the_built_verdict(pending_bits):
    for claim, d, e, c in _ACCEPTANCE:
        want = _built(claim, d, c, e, LEAN, 8)
        assert _verdict(pending_bits, claim, d, c, e, LEAN, 8) == want, (claim, d, e, c)


@pytest.mark.parametrize("claim, d, e, c, horizon", [
    ("cor12", 3, None, F(7, 2), 10),
    ("thm13", 4, 2, F(5, 2), 8),
    ("prop51", 3, 2, F(3, 2), 10),
    ("prop52", 3, 2, F(1, 2), 10),  # a unit at index 1
    ("prop53", 5, 3, F(-1, 2), 8),  # odd middle exponent: the sandwich
    ("prop53", 5, 2, F(-1, 3), 7),  # even middle exponent: confinement and floor
    ("prop54", 5, 2, F(-8, 5), 7),  # odd degree
    ("prop54", 4, 2, F(-3, 2), 8),  # even degree
])
def test_each_claim_decides_its_last_index_unbuilt(monkeypatch, claim, d, e, c, horizon):
    want = _built(claim, d, c, e, LEAN, horizon)
    calls = _counting(monkeypatch)
    got = verify(claim, d, c, e, LEAN, horizon)
    assert got == want and got.details["horizon_used"] == horizon
    assert len(calls) == horizon - 1


def _lazy_and_built_reports(f: PolyQ, N: int):
    """The report of orbit(f, N, lazy=True) as ``verify`` takes it, with every
    step a candidate, and the report of the built orbit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_PENDING_BITS", 0)
        entries = orbit(f, N, lazy=True).entries
        report = zsigmondy_report_from_entries(
            entries, LEAN, witnesses=False, denominator_lcm=f.cleared[1]
        )
    built = zsigmondy_report_from_entries(
        orbit(f, N).entries, LEAN, witnesses=False, denominator_lcm=f.cleared[1]
    )
    return entries, report, built


def test_fallback_when_the_law_fails_at_the_last_index():
    # the linear term breaks rigid divisibility, first at index 3
    entries, report, built = _lazy_and_built_reports(PolyQ(((2, 1), (1, 1), (0, 3))), 3)
    assert isinstance(entries[-1], PendingEntry) and entries[-1].built
    assert report == built and built.rigid_violations


def test_fallback_when_a_numerator_shares_a_prime_with_L():
    # 2z^2 + 3/2: A_2 = 6 shares the prime of L = 2, and the law holds below 3
    # and at 3 on the primes of P = S_1 = 3 alone
    entries, report, built = _lazy_and_built_reports(PolyQ(((2, 2), (0, F(3, 2)))), 3)
    assert isinstance(entries[-1], PendingEntry) and entries[-1].built
    assert report == built


def test_a_repeat_at_the_last_index_is_built():
    # z^2 - 2: 0, -2, 2, 2; f^3(0) repeats f^2(0), so it cannot be left unbuilt
    f = PolyQ(((2, 1), (0, -2)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_PENDING_BITS", 0)
        lazy = orbit(f, 3, lazy=True)
    assert lazy == orbit(f, 3) and lazy.kind == "preperiodic"


def test_a_repeat_of_an_entry_built_for_the_next_screen_is_found():
    # z^2 + 3z - 3: 0, -3, -3.  At 3 digits step 2 may reach the budget, so
    # f(0) comes unbuilt; step 2's screen builds it, and f(-3) repeats it
    f = PolyQ(((2, 1), (1, 3), (0, -3)))
    screened, screen = [], orbits._unbuilt_over_budget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_PENDING_BITS", 0)
        mp.setattr(orbits, "_unbuilt_over_budget", lambda *a: screened.append(a[1].n) or screen(*a))
        lazy = orbit(f, 5, digit_budget=3, lazy=True)
    assert screened == [1] and lazy == orbit(f, 5, digit_budget=3)
    assert (lazy.kind, lazy.tail, lazy.period) == ("preperiodic", 1, 1)


@pytest.mark.parametrize("f", [
    trinomial(4, 2, F(5, 2)),  # g = 2
    trinomial(5, 3, F(-8, 5)),
    PolyQ(((3, 2), (2, 1), (0, 3))),  # not monic, integer orbit
])
def test_a_pending_entry_holds_acc_and_its_gcd(monkeypatch, f):
    monkeypatch.setattr(orbits, "_PENDING_BITS", 0)
    entry = orbit(f, 4, lazy=True).entries[-1]
    x = orbit(f, 3).entries[-1].value
    (f1, m), p, q, d = f.cleared, x.numerator, x.denominator, f.degree
    acc = sum(a * p**i * q ** (d - i) for i, a in f1)
    assert isinstance(entry, PendingEntry) and entry.sign == (acc > 0) - (acc < 0)
    lo, hi, e = entry.bracket
    assert lo * F(2) ** e <= abs(acc) <= hi * F(2) ** e
    assert entry.residue(10**9 + 7) == acc % (10**9 + 7)
    assert entry.den_residue(10**9 + 7) == m * q**d // entry.g % (10**9 + 7)
    assert not entry.built and entry.g == math.gcd(acc, m * q**d)
    assert acc == entry.g * entry.A and entry.built


_COMPARED = [  # (f, N): f^N(0) comes unbuilt at a threshold of 0; A_N past _EXACT_BITS
    (trinomial(4, 2, F(5, 2)), 7),
    (trinomial(5, 3, F(-8, 5)), 6),
    (PolyQ(((3, 2), (2, 1), (0, 3))), 8),
    (trinomial(3, 2, F(-1, 3)), 9),
    (trinomial(4, 3, F(-5, 4)), 7),  # x < 0: the sign of x splits the next acc's terms
]


def _unbuilt(f: PolyQ, N: int) -> PendingEntry:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_PENDING_BITS", 0)
        entry = orbit(f, N, lazy=True).entries[-1]
    assert isinstance(entry, PendingEntry) and not entry.built
    return entry


@cache
def _built_entry(i: int) -> OrbitEntry:
    f, N = _COMPARED[i]
    return orbit(f, N).entries[-1]


@st.composite
def _comparisons(draw):
    """(which entry, lhs, rhs, numerator): small terms on both sides, and on
    the right at times one term of about |v|, which ties or nearly ties it.
    Half the draws are |v| against that one term alone."""
    i = draw(st.integers(0, len(_COMPARED) - 1))
    numerator = draw(st.booleans())
    v = abs(_built_entry(i).A) if numerator else abs(_built_entry(i).value)
    base = st.fractions(0, 16, max_denominator=16)
    terms = st.lists(st.lists(st.tuples(base, st.integers(0, 3)), max_size=2), max_size=2)
    alone = draw(st.booleans())
    lhs, rhs = ([], []) if alone else (draw(terms), draw(terms))
    if alone or draw(st.booleans()):
        rhs.append([(draw(st.sampled_from([v, v + 1, v - 1, F(v) / 2, 2 * v])), 1)])
    return i, lhs, rhs, numerator


def _total(side) -> F:
    return sum((math.prod(F(b) ** k for b, k in term) for term in side), F(0))


@given(_comparisons())
@settings(max_examples=60, deadline=None)
def test_pending_compare_equals_the_built_compare(comparison):
    # both equal the sign of |v| + sum(lhs) - sum(rhs) in Fractions, for
    # entries past _EXACT_BITS, where compare_sums tries its bracket first
    i, lhs, rhs, numerator = comparison
    built = _built_entry(i)
    assert abs(built.A).bit_length() > _EXACT_BITS
    v = abs(built.A) if numerator else abs(built.value)
    total = v + _total(lhs) - _total(rhs)
    expected = (total > 0) - (total < 0)
    assert built.compare(lhs, rhs, numerator) == expected
    assert _unbuilt(*_COMPARED[i]).compare(lhs, rhs, numerator) == expected


def test_the_next_step_screen_on_a_bracket():
    # step N + 1's screen on the unbuilt f^N(0) answers as it does on the
    # built value at every budget near the size S of f^(N+1)(0); on a bracket
    # widened 2^20-fold both ways it still rejects no budget that fits it
    for i, (f, N) in enumerate(_COMPARED):
        entry, x = _unbuilt(f, N), _built_entry(i).value
        (f1, m), p, q, d = f.cleared, x.numerator, x.denominator, f.degree
        terms = orbits._signed_terms(f1, p < 0, [(abs(p), 1)], [(q, 1)])
        G, y = orbits._gcd_ceiling(f1, q), f.evaluate(x)
        S = max(y.numerator.bit_length(), y.denominator.bit_length())
        for B in range(S - 64, S + 64):
            built = orbits._over_budget(B, m, G, [(q, d)], terms, terms)
            assert orbits._unbuilt_over_budget(f, entry, B) == built, (i, B)
        lo, hi, e = entry.bracket
        entry.bracket = (lo >> 20, hi << 20, e)
        assert orbits._unbuilt_over_budget(f, entry, S // 2)
        assert not any(orbits._unbuilt_over_budget(f, entry, B) for B in range(S + 1, S + 129))
        assert not entry.built


def test_a_near_tie_builds_the_pending_entry_for_the_exact_sign():
    f, N = _COMPARED[0]
    A = abs(_built_entry(0).A)
    entry = _unbuilt(f, N)
    assert entry.compare([], [[(A // 2, 1)]], numerator=True) == 1 and not entry.built
    for rhs, sign in ((A - 1, 1), (A, 0), (A + 1, -1)):
        entry = _unbuilt(f, N)
        assert entry.compare([], [[(rhs, 1)]], numerator=True) == sign and entry.built


def test_fallback_when_the_valuation_rule_is_refused():
    # 2z^3 + z^2 + 1/2: at x_4 the lower terms outvalue the leading one at 2,
    # so G = q^d and the reducing gcd is not read off m |f1_d|
    f = PolyQ(((3, 2), (2, 1), (0, F(1, 2))))
    entries, report, built = _lazy_and_built_reports(f, 5)
    q = entries[-2].B
    assert orbits._gcd_ceiling(f.cleared[0], q) == [(q, 3)]
    assert type(entries[-1]) is OrbitEntry and report == built


def test_fallback_at_the_budget_boundary(monkeypatch):
    # the last step's ceiling C against B: B <= C builds, B > C leaves it unbuilt
    claim, d, e, c, N = "prop54", 4, 2, F(-3, 2), 8
    f = trinomial(d, e, c)
    C = _ceiling(f, N)
    calls = _counting(monkeypatch)
    digits = orbits._digits_for_bits(C)
    for budget, unbuilt in ((digits - 1, False), (digits, True)):
        assert (orbits._budget_bits(budget) > C) is unbuilt
        cfg = LEAN.with_overrides(digit_budget=budget)
        want = _built(claim, d, c, e, cfg, N)
        calls.clear()
        assert verify(claim, d, c, e, cfg, N) == want
        assert want.details["horizon_used"] == N and len(calls) == N - unbuilt


def test_fallback_at_a_ceiling_of_at_most_the_pending_bits(monkeypatch):
    # past _EXACT_BITS but not _PENDING_BITS: building costs less than comparing
    claim, d, e, c, N = "thm13", 5, 3, F(-12), 6
    f = trinomial(d, e, c)
    C = _ceiling(f, N)
    assert orbits._EXACT_BITS < C <= orbits._PENDING_BITS
    want = _built(claim, d, c, e, LEAN, N)
    calls = _counting(monkeypatch)
    assert verify(claim, d, c, e, LEAN, N) == want and len(calls) == N


_README_GRID = {
    "family": "z^d+z^e+c", "d": [3, 4, 5], "e": [2, 3], "c": ["5/2", "-3/2"],
    "horizon": 10, "budgets": {"factor_rho_budget": 200000},
}


def test_readme_grid_at_horizon_10_builds_no_last_iterate(monkeypatch):
    # a work count, not a timing: the last iterates of the d <= 4 points reach
    # 430k-645k bits, the unbuilt ones stop at index 9 (under 170k bits)
    spec = SweepSpec.from_dict(_README_GRID)
    calls = _counting(monkeypatch)
    verdicts = run_sweep(spec, LEAN)
    reached = [v for v in verdicts if v.details["horizon_used"] == 10]
    assert len(reached) == 6
    for v in reached:
        bits = [b for poly, b in calls if poly == v.polynomial]
        assert len(bits) == 9 and max(bits) < 400_000, v.polynomial


def test_readme_grid_at_horizon_10_decides_its_budget_stops_unbuilt(monkeypatch):
    # a work count, not a timing: each d = 5 point stops on the digit budget
    # and leaves its last kept iterate unbuilt, since the next step's screen
    # rejects on its bracket; built, those four reached 135k-607k bits
    spec = SweepSpec.from_dict(_README_GRID)
    calls = _counting(monkeypatch)
    verdicts = run_sweep(spec, LEAN)
    stopped = [v for v in verdicts if v.details["horizon_used"] < 10]
    assert [v.details["horizon_used"] for v in stopped] == [8, 9, 8, 8]
    for v in stopped:
        builds = [b for poly, b in calls if poly == v.polynomial]
        assert len(builds) == v.details["horizon_used"] - 1, v.polynomial
    assert len(calls) == 83 and max(b for _, b in calls) == 161_283
    monkeypatch.undo()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_PENDING_BITS", math.inf)
        assert run_sweep(spec, LEAN) == verdicts


def _stop(f: PolyQ, N: int, budget: int, lazy: bool) -> list:
    with pytest.raises(DigitBudgetError) as exc:
        orbit(f, N, digit_budget=budget, lazy=lazy)
    return exc.value.entries


@pytest.mark.parametrize("d, e, c, n, unbuilt", [
    (5, 2, F(5, 2), 8, True),  # the screen rejects step 9 on A_8's bracket
    (5, 3, F(-3, 2), 8, True),
    (5, 3, F(5, 2), 8, False),  # A_9 has exactly B bits: too close for the bracket
])
def test_budget_boundary_with_an_unbuilt_predecessor(d, e, c, n, unbuilt):
    # the budget boundary of step n + 1, whose predecessor A_n is a candidate
    # to stay unbuilt: B at the size S of f^(n+1)(0) rejects it, B past S keeps it
    f = trinomial(d, e, c)
    y = orbit(f, n + 1, digit_budget=10**7).entries[-1].value
    S = max(y.numerator.bit_length(), y.denominator.bit_length())
    digits = orbits._digits_for_bits(S)
    for budget, kept in ((digits - 1, n), (digits, n + 1)):
        assert (orbits._budget_bits(budget) > S) is (kept == n + 1)
        lazy, eager = _stop(f, n + 3, budget, True), _stop(f, n + 3, budget, False)
        assert len(lazy) == len(eager) == kept
        last = lazy[-1]
        assert (isinstance(last, PendingEntry) and not last.built) is (unbuilt and kept == n)
        assert [x.value for x in lazy] == [x.value for x in eager]


@st.composite
def _budget_points(draw):
    """(claim, d, e, c, digit budget) over z^d + z^e + c, with stops past
    ``orbits._PENDING_BITS``: 5,000 digits are about 16,600 bits."""
    d = draw(st.integers(3, 6))
    e = draw(st.integers(2, d - 1))
    c = F(draw(st.integers(-30, 30)), draw(st.integers(1, 9)))
    claim = classify_point(d, e, c)
    assume(claim is not None)
    return claim, d, e, c, draw(st.integers(5_000, 60_000))


@given(_budget_points())
@settings(max_examples=25, deadline=None)
def test_budget_stops_unbuilt_give_the_built_verdict(point):
    claim, d, e, c, budget = point
    cfg = LEAN.with_overrides(digit_budget=budget)
    want = _built(claim, d, c, e, cfg, 12)
    assert verify(claim, d, c, e, cfg, 12) == want
