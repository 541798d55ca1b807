import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from zsig import RunConfig, run_sweep, verify, verifiers
from zsig.cli import build_parser
from zsig.orbits import OrbitEntry
from zsig.verifiers import (
    CLAIMS,
    SweepSpec,
    classify_point,
    default_horizon,
    iter_sweep,
    point_key,
)
from tests.conftest import LEAN


def test_cor12_reproduction():
    v = verify("cor12", 3, Fraction(7, 2), None, LEAN)
    assert v.hypothesis_ok and v.consistent
    assert v.observed_elements == []
    assert v.details["n_max_floor"] == 5
    assert v.details["growth_verified"]


def test_cor12_hypothesis_failures():
    v = verify("cor12", 3, Fraction(5, 2), None, LEAN)
    assert not v.hypothesis_ok and v.consistent
    v = verify("cor12", 4, Fraction(9, 4), None, LEAN)
    assert not v.hypothesis_ok  # (9/4)^3 = 729/64 < 16
    v = verify("cor12", 3, Fraction(7), None, LEAN)
    assert not v.hypothesis_ok  # integer constant excluded


def test_thm13_reproduction():
    v = verify("thm13", 4, Fraction(5, 2), 2, LEAN)
    assert v.hypothesis_ok and v.consistent
    assert v.details["n_max"] < 7
    report_units = v.details["unit_exceptions"]
    assert report_units == []
    # A_1 = 5 and A_2 = 765 = 3^2 * 5 * 17 with primitive primes 3, 17
    assert 1 not in v.observed_elements and 2 not in v.observed_elements


def test_thm13_negative_c():
    v = verify("thm13", 3, Fraction(-7, 3), 2, LEAN)
    assert v.hypothesis_ok and v.consistent


def test_thm13_d5_case_split():
    v = verify("thm13", 5, Fraction(21, 8), 3, LEAN)
    assert v.hypothesis_ok and v.consistent
    import math

    assert v.details["hhat_lower"] == pytest.approx(math.log(21) / 4)


def test_prop51_examples():
    assert verify("prop51", 3, Fraction(3, 2), 2, LEAN).consistent
    assert verify("prop51", 4, Fraction(5, 3), 3, LEAN).consistent
    v = verify("prop51", 3, Fraction(1), 2, LEAN)
    assert not v.hypothesis_ok


def test_prop52_unit_exception():
    v = verify("prop52", 3, Fraction(1, 2), 2, LEAN)
    assert v.hypothesis_ok and v.consistent
    assert v.observed_elements == [1]  # A_1 = 1, the unit-numerator exception
    assert v.details["unit_exceptions"] == [1]
    assert v.details["sandwich_verified"]
    assert v.details["screen_inconclusive"] == []


def test_prop52_sandwich():
    v = verify("prop52", 4, Fraction(2, 3), 2, LEAN)
    assert v.hypothesis_ok and v.consistent
    assert v.details["sandwich_verified"]
    assert v.details["alpha_in_range"]


def test_prop53_cases():
    v = verify("prop53", 3, Fraction(-2, 3), 2, LEAN)
    assert v.hypothesis_ok and v.consistent
    assert v.details["case"] == "even middle exponent"
    assert v.details["confinement_verified"] and v.details["lower_bound_verified"]
    v = verify("prop53", 5, Fraction(-1, 2), 3, LEAN)
    assert v.hypothesis_ok and v.consistent
    assert v.details["case"] == "odd middle exponent"
    assert not verify("prop53", 4, Fraction(-1, 2), 2, LEAN).hypothesis_ok


def test_prop54_cases():
    v = verify("prop54", 3, Fraction(-3, 2), 2, LEAN)
    assert v.hypothesis_ok and v.consistent
    assert v.details["case"] == "odd degree"
    v = verify("prop54", 4, Fraction(-5, 4), 2, LEAN)
    assert v.hypothesis_ok and v.consistent
    assert v.details["case"] == "even degree and middle exponent"
    assert v.details["upper_bound_verified"]
    assert not verify("prop54", 4, Fraction(-3, 2), 3, LEAN).hypothesis_ok


def test_verify_dispatcher():
    v = verify("thm13", 4, Fraction(5, 2), 2, LEAN)
    assert v.theorem_id == "thm13"
    with pytest.raises(ValueError):
        verify("thm13", 4, Fraction(5, 2), None, LEAN)
    with pytest.raises(ValueError):
        verify("nope", 4, Fraction(5, 2), 2, LEAN)


def test_classify_point():
    assert classify_point(3, None, Fraction(7, 2)) == "cor12"
    assert classify_point(4, 2, Fraction(5, 2)) == "thm13"
    assert classify_point(4, 2, Fraction(3, 2)) == "prop51"
    assert classify_point(4, 2, Fraction(1, 2)) == "prop52"
    assert classify_point(3, 2, Fraction(-1, 2)) == "prop53"
    assert classify_point(3, 2, Fraction(-3, 2)) == "prop54"
    assert classify_point(3, 2, Fraction(1)) is None
    assert classify_point(3, 2, Fraction(-2)) is None


def test_sweep_spec_grid_and_keys():
    spec = SweepSpec.from_dict(
        {"family": "z^d+z^e+c", "d": [3, 4], "e": [2, 3], "c": ["5/2", "-3/2"], "horizon": 2}
    )
    points = spec.points()
    assert (3, 2, Fraction(5, 2)) in points
    assert (4, 3, Fraction(-3, 2)) in points
    assert all(e < d for d, e, _ in points)
    keys = [key for key, _ in iter_sweep(spec, LEAN)]
    assert len(keys) == len(points) == 6  # (3,2), (4,2), (4,3) pairs
    assert keys == [point_key(classify_point(*pt), *pt) for pt in points]
    assert keys[0] == "thm13:d=3:e=2:c=5/2"
    # a resume skips the keys already done, in grid order
    assert [key for key, _ in iter_sweep(spec, LEAN, set(keys[1::2]))] == keys[::2]


def test_sweep_classifies_each_point_once_and_streams(monkeypatch):
    calls = []
    classify = verifiers.classify_point
    monkeypatch.setattr(
        verifiers, "classify_point", lambda *pt: calls.append(pt) or classify(*pt)
    )
    spec = SweepSpec.from_dict(
        {"family": "z^d+z^e+c", "d": [3, 4], "e": [2, 3], "c": ["5/2", "-3/2", "1"],
         "horizon": 2}
    )
    assert [v.theorem_id for _, v in iter_sweep(spec, LEAN)].count("unclassified") == 3
    assert calls == spec.points()
    calls.clear()
    wide = SweepSpec.from_dict(
        {"family": "z^d+c", "d": [3], "c_grid": {"num": [1, 10_000], "den": [1, 1]},
         "horizon": 1}
    )
    assert len(wide.points()) == 10_000
    sweep = iter_sweep(wide, LEAN)
    key, verdict = next(sweep)
    sweep.close()
    assert key == "cor12:d=3:c=1" and verdict.details["horizon_used"] == 1
    assert len(calls) == 1


def test_sweep_spec_c_grid_lowest_terms():
    spec = SweepSpec.from_dict(
        {"family": "z^d+c", "d": [3], "c_grid": {"num": [1, 4], "den": [2, 2]}}
    )
    assert spec.c_grid == (range(1, 5), range(2, 3))
    assert spec.points() == [(3, None, Fraction(1, 2)), (3, None, Fraction(3, 2))]


def _eager_points(data: dict) -> list:
    """The sweep's points as the eager expansion listed them: the oracle."""
    cs = [Fraction(tok) for tok in data["c"]]
    if "c_grid" in data:
        (num_lo, num_hi), (den_lo, den_hi) = data["c_grid"]["num"], data["c_grid"]["den"]
        for den in range(den_lo, den_hi + 1):
            for num in range(num_lo, num_hi + 1):
                frac = Fraction(num, den)
                if num and frac.numerator == num and frac.denominator == den:
                    cs.append(frac)
    if data["family"] == "z^d+c":
        return [(d, None, c) for d in data["d"] for c in cs]
    return [(d, e, c) for d in data["d"] for e in data["e"] if 2 <= e < d for c in cs]


@st.composite
def _sweep_specs(draw):
    data = {
        "family": draw(st.sampled_from(["z^d+c", "z^d+z^e+c"])),
        "d": draw(st.lists(st.integers(2, 6), max_size=4)),
        "e": draw(st.lists(st.integers(0, 7), max_size=4)),
        "c": draw(st.lists(
            st.sampled_from(["1/2", "2/4", "-1/3", "3", "6/2", "-3/2", "1", "0", "5/4"]),
            max_size=5,
        )),
        "horizon": 1,
    }
    if draw(st.booleans()):
        num_lo, den_lo = draw(st.integers(-4, 4)), draw(st.integers(1, 4))
        data["c_grid"] = {
            "num": [num_lo, num_lo + draw(st.integers(-1, 5))],
            "den": [den_lo, den_lo + draw(st.integers(-1, 3))],
        }
    return data


@given(_sweep_specs())
@settings(max_examples=200, deadline=None)
def test_walk_is_the_eager_expansion_without_repeats(data):
    spec = SweepSpec.from_dict(data)
    points = spec.points()
    assert points == list(dict.fromkeys(_eager_points(data)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifiers, "_run_point", lambda task: (task[0], None))
        keys = [key for key, _ in iter_sweep(spec, LEAN)]
    assert len(set(keys)) == len(keys) == len(points)


def test_first_verdict_of_a_huge_grid_comes_at_once():
    # about 1.2e12 points: neither the spec nor the sweep may build anything
    # that grows with the grid
    data = {"family": "z^d+c", "d": [3], "horizon": 1,
            "c_grid": {"num": [-10**6, 10**6], "den": [1, 10**6]}}
    tracemalloc.start()
    start = time.perf_counter()
    try:
        sweep = iter_sweep(SweepSpec.from_dict(data), LEAN)
        key, verdict = next(sweep)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        sweep.close()
    finally:
        tracemalloc.stop()
    assert key == "cor12:d=3:c=-1000000" and verdict.details["horizon_used"] == 1
    assert elapsed < 1 and peak < 5 * 2**20


def test_sweep_spec_budgets():
    spec = SweepSpec.from_dict(
        {
            "family": "z^d+c",
            "d": [3],
            "c": ["7/2"],
            "budgets": {"factor_rho_budget": 100000, "digit_budget": 5000},
        }
    )
    cfg = RunConfig().with_overrides(**dict(spec.budgets))
    assert cfg.factor_rho_budget == 100000
    assert cfg.digit_budget == 5000
    # the sweep runs under the spec's budgets: 371/8 fits 5 digits, the next
    # iterate does not
    tight = SweepSpec.from_dict(
        {"family": "z^d+c", "d": [3], "c": ["7/2"], "horizon": 6,
         "budgets": {"digit_budget": 5}}
    )
    assert run_sweep(tight, LEAN)[0].details["horizon_used"] == 2
    with pytest.raises(ValueError):
        SweepSpec.from_dict(
            {"family": "z^d+c", "d": [3], "c": ["7/2"], "budgets": {"nope": 1}}
        )


def test_run_sweep_orders_and_dispatches():
    spec = SweepSpec.from_dict(
        {
            "family": "z^d+z^e+c",
            "d": [3],
            "e": [2],
            "c": ["5/2", "3/2", "1/2", "-1/2", "-3/2", "1"],
            "horizon": 8,
        }
    )
    verdicts = run_sweep(spec, LEAN)
    assert [v.theorem_id for v in verdicts] == [
        "thm13", "prop51", "prop52", "prop53", "prop54", "unclassified",
    ]
    assert all(v.consistent for v in verdicts)


def test_run_sweep_empty_grid():
    spec = SweepSpec.from_dict({"family": "z^d+c", "d": [], "c": ["5/2"]})
    assert run_sweep(spec, LEAN) == []


def test_run_sweep_carries_finite_orbit_error():
    spec = SweepSpec.from_dict({"family": "z^d+c", "d": [2], "c": ["-1"], "horizon": 6})
    verdicts = run_sweep(spec, LEAN)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert not v.hypothesis_ok and v.consistent
    assert "finite orbit" in v.details["error"]
    assert "0 -> -1 -> 0" in v.details["error"]


def test_run_sweep_parallel_matches_serial():
    spec = SweepSpec.from_dict(
        {"family": "z^d+z^e+c", "d": [3, 4], "e": [2], "c": ["5/2", "-3/2"], "horizon": 6}
    )
    serial = run_sweep(spec, LEAN)
    parallel = run_sweep(spec, RunConfig(factor_rho_budget=200_000, workers=2))
    assert serial == parallel


def test_point_key_format():
    assert point_key("cor12", 3, None, Fraction(7, 2)) == "cor12:d=3:c=7/2"
    assert point_key("thm13", 4, 2, Fraction(-5, 2)) == "thm13:d=4:e=2:c=-5/2"


def test_claim_table_drives_routing_and_cli():
    assert list(CLAIMS) == ["cor12", "thm13", "prop51", "prop52", "prop53", "prop54"]
    assert {k: default_horizon(k) for k in CLAIMS} == {
        "cor12": 10, "thm13": 10, "prop51": 11, "prop52": 10, "prop53": 10, "prop54": 10,
    }
    parser = build_parser()
    for theorem_id in (*CLAIMS, "ezsig"):
        assert parser.parse_args(["verify", theorem_id, "--d", "3"]).theorem == theorem_id
    # cor12 is a binomial claim and ignores a middle exponent
    assert verify("cor12", 3, Fraction(7, 2), 2, LEAN, horizon=4).polynomial == "z^3 + 7/2"


_nonneg = st.fractions(min_value=0, max_value=50, max_denominator=50)


@given(
    st.fractions(max_denominator=10**6).filter(lambda x: x != 0),
    st.one_of(_nonneg, st.integers(min_value=0, max_value=3**20)),
    _nonneg,
    st.integers(min_value=0, max_value=40),
)
def test_exceeds_matches_fraction_form(value, scale, base, expo):
    entry = OrbitEntry(1, value)
    assert verifiers._exceeds(entry, scale, base, expo) == (
        abs(value) > Fraction(scale) * base**expo
    )


@settings(max_examples=10, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9).filter(
        lambda b: b != 1
    ),
    st.one_of(
        st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
        st.integers(min_value=1, max_value=3**20),
    ),
    st.integers(min_value=99_990, max_value=100_010),
    st.sampled_from([-1, 0, 1]),
    st.booleans(),
)
@example(Fraction(3, 2), 1, 100_000, 0, False)
@example(Fraction(2, 3), Fraction(7, 5), 100_001, -1, True)
def test_exceeds_falls_back_on_near_ties(base, scale, expo, ulp, negative):
    # |value| and scale * base^expo are equal, or one unit apart in the larger
    # of a numerator and a denominator of ~300k bits: the brackets overlap
    # and only the exact products decide
    target = Fraction(scale) * base**expo
    n, d = target.numerator, target.denominator
    value = Fraction(n + ulp, d) if n > d else Fraction(n, d + ulp)
    value = -value if negative else value
    calls = []
    exact = verifiers._power_product
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifiers, "_power_product", lambda powers: calls.append(1) or exact(powers))
        assert verifiers._exceeds(OrbitEntry(1, value), scale, base, expo) == (
            abs(value) > Fraction(scale) * base**expo
        )
        assert calls
        calls.clear()
        # a factor of 2 apart, the brackets alone decide
        assert verifiers._exceeds(OrbitEntry(1, 2 * target), scale, base, expo)
        assert not verifiers._exceeds(OrbitEntry(1, target / 2), scale, base, expo)
        assert not calls


@pytest.mark.parametrize(
    "workers, n_points, cpus, expected",
    [(64, 3, 8, [3]), (64, 6, 4, [4]), (2, 6, 8, [2]), (64, 6, None, []), (64, 1, 8, [])],
)
def test_iter_sweep_caps_workers(monkeypatch, workers, n_points, cpus, expected):
    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(verifiers, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verifiers.os, "cpu_count", lambda: cpus)
    cs = ["5/2", "7/2", "9/2", "11/2", "13/2", "15/2"][:n_points]
    spec = SweepSpec.from_dict({"family": "z^d+c", "d": [2], "c": cs, "horizon": 3})
    verdicts = run_sweep(spec, RunConfig(factor_rho_budget=200_000, workers=workers))
    assert created == expected
    assert verdicts == run_sweep(spec, LEAN)
