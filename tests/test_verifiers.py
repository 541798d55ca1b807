import os
import pickle
import signal
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import given, settings, strategies as st

from zsig import RunConfig, bounds, parse_poly, pool, run_sweep, verify, verifiers, zsigmondy
from zsig.cli import build_parser
from zsig.orbits import OrbitEntry, orbit
from zsig.sweep import iter_sweep
from zsig.verifiers import (
    CLAIMS, SweepSpec, binomial, classify_point, default_horizon, point_key,
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


def test_thm13_at_a_huge_degree_finishes():
    # the growth certificate must not build a power of |c| per zero coefficient
    start = time.perf_counter()
    v = verify("thm13", 30000, Fraction(5, 2), 2)
    assert time.perf_counter() - start < 5
    assert v.hypothesis_ok and v.consistent and v.details["bound_certified"]


def test_prop51_examples():
    assert verify("prop51", 3, Fraction(3, 2), 2, LEAN).consistent
    assert verify("prop51", 4, Fraction(5, 3), 3, LEAN).consistent
    v = verify("prop51", 3, Fraction(1), 2, LEAN)
    assert not v.hypothesis_ok


@pytest.mark.parametrize("theorem_id, d, e, c", [
    ("prop51", 3, 2, Fraction(5, 3)),  # n_max is 6 exactly: log 10 / log 10 = 1
    ("thm13", 3, 2, Fraction(3)),  # n_max = 6.89..., the tightest case below a cap
])
def test_the_cap_ties_stay_consistent_with_floor_6(theorem_id, d, e, c):
    v = verify(theorem_id, d, c, e, LEAN)
    assert v.hypothesis_ok and v.consistent
    assert v.details["n_max_floor"] == 6


@pytest.mark.parametrize("theorem_id, d, e, c", [
    ("cor12", 3, None, Fraction(7, 2)),
    ("thm13", 4, 2, Fraction(5, 2)),
    ("prop51", 3, 2, Fraction(3, 2)),
])
def test_a_family_point_is_certified_without_condition3(monkeypatch, theorem_id, d, e, c):
    # the family fact alone certifies growth, so the general check is never run
    def refuse(f, z):
        raise AssertionError("check_condition3 reached on a family point")

    monkeypatch.setattr(bounds, "check_condition3", refuse)
    v = verify(theorem_id, d, c, e, LEAN)
    assert v.consistent and v.details["bound_certified"]
    with pytest.raises(AssertionError):  # off the families it is still the certificate
        bounds.growth_certificate(parse_poly("z^3+2z^2+3"))


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


def test_sandwich_fails_below_its_lower_side():
    # |c| <= |f^n(0)| <= alpha^k |c|, with k = 1 at n = 2: an iterate of
    # absolute value 3/4 fits between 1/2 and 7/8, and 1/3 is under the lower side
    c_abs, alpha = Fraction(1, 2), Fraction(7, 4)

    def entries(x):
        return [OrbitEntry(1, -c_abs), OrbitEntry(2, x)]

    assert verifiers._check_sandwich(entries(Fraction(-3, 4)), c_abs, alpha, 3)
    assert not verifiers._check_sandwich(entries(Fraction(-1, 3)), c_abs, alpha, 3)


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
    # a resume skips the file's records, which must be the grid's first points
    for n in range(len(keys) + 1):
        assert [key for key, _ in iter_sweep(spec, LEAN, keys[:n])] == keys[n:]
    # raised before any verdict: a file another grid wrote, or one past the grid
    for done in (keys[1::2], keys[::-1], [*keys, keys[0]]):
        with pytest.raises(ValueError, match="is not point"):
            iter_sweep(spec, LEAN, done)


@pytest.fixture
def forked(monkeypatch):
    """The pid of every child the pool forks in this test, in order, with as
    many usable CPUs as the pool asks for."""
    monkeypatch.setattr(pool, "usable_cpus", lambda: 64)
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(pool.os, "fork", recording_fork)
    return pids


def _reaped_within(pids: list[int], seconds: float) -> bool:
    """Whether the pool reaped each of ``pids`` within ``seconds``.  Only a pid
    already reaped makes waitpid fail; a child still running past the time, or
    one that ended but was left unreaped, counts against the pool."""
    deadline = time.monotonic() + seconds
    while True:
        running = []
        for pid in pids:
            try:
                if os.waitpid(pid, os.WNOHANG) != (0, 0):
                    return False
                running.append(pid)
            except ChildProcessError:
                pass
        if not running:
            return True
        if time.monotonic() > deadline:
            return False
        pids = running
        time.sleep(0.05)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_classifies_each_point_once_and_streams(monkeypatch, forked, workers):
    calls = []
    classify = verifiers.classify_point
    monkeypatch.setattr(
        verifiers, "classify_point", lambda *pt: calls.append(pt) or classify(*pt)
    )
    cfg = RunConfig(factor_rho_budget=200_000, workers=workers)
    spec = SweepSpec.from_dict(
        {"family": "z^d+z^e+c", "d": [3, 4], "e": [2, 3], "c": ["5/2", "-3/2", "1"],
         "horizon": 2}
    )
    assert [v.theorem_id for _, v in iter_sweep(spec, cfg)].count("unclassified") == 3
    # a serial sweep routes each point once; a pooled one's parent routes none,
    # since its peek to size the pool takes raw points, and its children all
    assert calls == (spec.points() if workers == 1 else [])
    calls.clear()
    wide = SweepSpec.from_dict(
        {"family": "z^d+c", "d": [3], "c_grid": {"num": [1, 10_000], "den": [1, 1]},
         "horizon": 1}
    )
    assert len(wide.points()) == 10_000
    sweep = iter_sweep(wide, cfg)
    key, verdict = next(sweep)
    sweep.close()
    assert key == "cor12:d=3:c=1" and verdict.details["horizon_used"] == 1
    assert calls == wide.points()[:1 if workers == 1 else 0]
    # two pooled sweeps, one run to its end and one closed at its first verdict
    assert len(forked) == (0 if workers == 1 else 4) and _reaped_within(forked, 5)


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
            st.sampled_from(["1/2", "2/4", "-1/3", "3", "6/2", "-3/2", "1", "0", "5/4", 3, -2]),
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
        mp.setattr(verifiers, "_run_point", lambda point, horizon, cfg: (
            point_key(classify_point(*point), *point), None
        ))
        keys = [key for key, _ in iter_sweep(spec, LEAN)]
    assert len(set(keys)) == len(keys) == len(points)


@pytest.mark.parametrize("workers", [1, 2])
def test_first_verdict_of_a_huge_grid_comes_at_once(monkeypatch, forked, workers):
    # about 1.2e12 points: neither the spec nor the sweep may build anything
    # that grows with the grid
    data = {"family": "z^d+c", "d": [3], "horizon": 1,
            "c_grid": {"num": [-10**6, 10**6], "den": [1, 10**6]}}
    classify, parent = verifiers.classify_point, os.getpid()

    def classify_only_serially(*pt):
        # a pooled parent that routes the walk would otherwise fill the memory;
        # the children route their own shares
        if os.getpid() == parent and workers > 1:
            raise AssertionError("the pooled parent routed a point")
        return classify(*pt)

    monkeypatch.setattr(verifiers, "classify_point", classify_only_serially)
    cfg = RunConfig(factor_rho_budget=200_000, workers=workers)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        sweep = iter_sweep(SweepSpec.from_dict(data), cfg)
        key, verdict = next(sweep)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        sweep.close()
    finally:
        tracemalloc.stop()
    assert key == "cor12:d=3:c=-1000000" and verdict.details["horizon_used"] == 1
    assert elapsed < 1 and peak < 5 * 2**20
    assert len(forked) == (0 if workers == 1 else 2) and _reaped_within(forked, 5)


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


def test_run_sweep_parallel_matches_serial(forked):
    spec = SweepSpec.from_dict(
        {"family": "z^d+z^e+c", "d": [3, 4], "e": [2], "c": ["5/2", "-3/2"], "horizon": 6}
    )
    serial = run_sweep(spec, LEAN)
    parallel = run_sweep(spec, RunConfig(factor_rho_budget=200_000, workers=2))
    assert serial == parallel
    # shares of 52 and 51 points: each child sends batches of 1, 2, ..., 16,
    # then a short one and an empty one
    wide = SweepSpec.from_dict(
        {"family": "z^d+c", "d": [3], "horizon": 2,
         "c_grid": {"num": [1, 3 * 32 + 7], "den": [1, 1]}}
    )
    pooled = list(iter_sweep(wide, RunConfig(factor_rho_budget=200_000, workers=2)))
    assert len(pooled) == 3 * 32 + 7
    assert pooled == list(iter_sweep(wide, LEAN))
    # two sweeps run to their end, and each reaped both its children
    assert len(forked) == 4 and _reaped_within(forked, 5)


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


_POOL_CS = ["5/2", "7/2", "9/2", "11/2", "13/2", "15/2"]


@pytest.mark.parametrize(
    "workers, n_points, cpus, expected",
    [(64, 3, 8, [3]), (64, 6, 4, [4]), (2, 6, 8, [2]), (64, 6, None, []), (64, 1, 8, []),
     # (CPU count, affinity mask): two workers would share one CPU
     pytest.param(64, 6, (8, {0}), [], id="64-6-8-affinity0-expected5"),
     # (CPU count, affinity mask, fork): a platform without fork runs serial
     pytest.param(64, 6, (8, {0, 1}, False), [], id="64-6-8-nofork-expected6")],
)
def test_iter_sweep_caps_workers(pool_record, workers, n_points, cpus, expected):
    # the sweep hands the pool its workers and the whole walk, and the pool caps
    # them (test_imap_starts_a_pool_only_for_two_children)
    spec = SweepSpec.from_dict({"family": "z^d+c", "d": [2], "c": _POOL_CS[:n_points],
                                "horizon": 3})
    serial = run_sweep(spec, LEAN)
    pool_record.platform(*(cpus if isinstance(cpus, tuple) else (cpus,)))
    assert run_sweep(spec, RunConfig(factor_rho_budget=200_000, workers=workers)) == serial
    assert pool_record.calls == [(1, spec.points()), (workers, spec.points())]
    assert pool_record.pools == expected


@pytest.mark.parametrize("left", [0, 1])
def test_resume_with_at_most_one_point_left_starts_no_pool(pool_record, left):
    spec = SweepSpec.from_dict({"family": "z^d+c", "d": [2], "c": _POOL_CS, "horizon": 3})
    results = list(iter_sweep(spec, LEAN))
    pool_record.platform(8)
    done = [key for key, _ in results[: len(results) - left]]
    cfg = RunConfig(factor_rho_budget=200_000, workers=64)
    assert list(iter_sweep(spec, cfg, done)) == results[len(results) - left:]
    # the pool is handed the walk from the file's position on
    assert pool_record.calls[1:] == [(64, spec.points()[len(results) - left:])]
    assert pool_record.pools == []


def test_a_pooled_resume_routes_the_done_prefix_in_the_parent_only(
    monkeypatch, forked, tmp_path
):
    # the parent and then every child routed the whole done prefix
    log, classify, parent = tmp_path / "routed.txt", verifiers.classify_point, str(os.getpid())

    def logged(*pt):  # a line per routed point, from whichever process routes it
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {pt}\n")
        return classify(*pt)

    spec = SweepSpec.from_dict({"family": "z^d+c", "d": [2], "c": _POOL_CS, "horizon": 3})
    points = spec.points()
    keys = [point_key(classify(*pt), *pt) for pt in points]
    monkeypatch.setattr(verifiers, "classify_point", logged)
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    cfg = RunConfig(factor_rho_budget=200_000, workers=2)
    assert [key for key, _ in iter_sweep(spec, cfg, keys[:2])] == keys[2:]
    routed = [line.split(" ", 1) for line in log.read_text().splitlines()]
    assert [pt for pid, pt in routed if pid == parent] == [str(pt) for pt in points[:2]]
    assert sorted(pt for pid, pt in routed if pid != parent) == sorted(map(str, points[2:]))
    assert len(forked) == 2 and _reaped_within(forked, 5)


_LONG_GRID = SweepSpec.from_dict(
    {"family": "z^d+c", "d": [3], "c_grid": {"num": [1, 1000], "den": [1, 1]}, "horizon": 1}
)


def test_closing_a_pooled_sweep_cancels_its_queued_chunks(monkeypatch, forked):
    run_point = verifiers._run_point

    def slow_after_the_first(point, horizon, cfg):  # runs in the children
        if point != (3, None, 1):
            time.sleep(60)
        return run_point(point, horizon, cfg)

    monkeypatch.setattr(verifiers, "_run_point", slow_after_the_first)
    sweep = iter_sweep(_LONG_GRID, RunConfig(factor_rho_budget=200_000, workers=2))
    assert next(sweep)[0] == "cor12:d=3:c=1"
    start = time.monotonic()
    sweep.close()
    # the children, each still running its share, are killed, not waited for
    assert time.monotonic() - start < 5
    assert len(forked) == 2 and _reaped_within(forked, 0)


@pytest.mark.parametrize("call, nth", [("fork", 2), ("load", 2), ("kill", 1)])
def test_an_interrupt_at_a_pool_call_reaps_every_child(monkeypatch, forked, call, nth):
    # the second fork, the second result read and the cleanup's kill
    module, parent, calls = pickle if call == "load" else os, os.getpid(), count(1)
    real = getattr(module, call)

    def interrupted(*args):
        if os.getpid() == parent and next(calls) == nth:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(module, call, interrupted)
    open_fds = len(os.listdir("/dev/fd"))
    with pytest.raises(KeyboardInterrupt):
        for _ in iter_sweep(_LONG_GRID, RunConfig(factor_rho_budget=200_000, workers=2)):
            pass
    assert next(calls) > nth  # the interrupt was raised
    # an interrupt at the second fork leaves one child to reap, and no pipe end
    assert len(forked) == (1 if call == "fork" else 2) and _reaped_within(forked, 5)
    assert len(os.listdir("/dev/fd")) == open_fds


@contextmanager
def _alarm(seconds: float):
    """Raise TimeoutError here if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_chunks_larger_than_a_pipe_round_trip(forked):
    # results of 600 kB, in batches of up to 1.8 MB, far past a pipe's buffer:
    # each child blocks on its full pipe until the parent reads its turn
    tasks = [bytes([i]) * 300_000 for i in range(12)]
    with _alarm(60):
        results = list(pool.imap(lambda task: task + task, 2, iter(tasks)))
    assert results == [task + task for task in tasks]
    assert len(forked) == 2 and _reaped_within(forked, 5)


def test_an_exception_in_a_child_re_raises_in_the_parent(forked):
    def run(task):
        if task == 5:
            raise ZeroDivisionError(f"task {task}")
        return task

    with _alarm(60), pytest.raises(ZeroDivisionError, match="task 5"):
        list(pool.imap(run, 2, iter(range(40))))
    assert len(forked) == 2 and _reaped_within(forked, 5)


def test_an_exception_in_a_childs_tasks_re_raises_as_itself(forked):
    def tasks():
        yield from range(5)
        raise LookupError("the walk broke")

    with _alarm(60), pytest.raises(LookupError, match="the walk broke"):
        list(pool.imap(lambda task: task, 2, tasks()))
    assert len(forked) == 2 and _reaped_within(forked, 5)


def test_a_child_that_dies_mid_share_raises_runtime_error(forked):
    def run(task):
        if task == 5:
            os._exit(3)  # in the child: its pipe ends without the end marker
        return task

    with _alarm(60), pytest.raises(RuntimeError, match="ended without its results"):
        list(pool.imap(run, 2, iter(range(40))))
    assert len(forked) == 2 and _reaped_within(forked, 5)


@pytest.mark.parametrize("workers, n_tasks", [(5, 3), (3, 10), (2, 0), (3, 3 * 32 + 7)])
def test_results_keep_their_order_over_any_shares(forked, workers, n_tasks):
    # more workers than tasks forks one child per task; shares differ by one
    with _alarm(60):
        assert list(pool.imap(lambda task: -task, workers, iter(range(n_tasks)))) == [
            -task for task in range(n_tasks)
        ]
    assert len(forked) == (min(workers, n_tasks) if n_tasks > 1 else 0)
    assert _reaped_within(forked, 5)


@pytest.mark.parametrize("workers, n_tasks, cpus, affinity, fork, expected", [
    (64, 3, 8, None, True, [3]),  # a child per task
    (64, 6, 4, None, True, [4]),  # per CPU
    (8, 3, 2, None, True, [2]),
    (2, 6, 8, None, True, [2]),  # per worker
    (64, 6, 8, {0, 1}, True, [2]),  # per CPU of the affinity mask, not of the machine
    (64, 6, None, None, True, []),  # no CPU count
    (8, 6, 1, None, True, []),  # one CPU
    (64, 6, 8, {0}, True, []),  # two workers would share one CPU
    (64, 6, 8, {0, 1}, False, []),  # a platform without fork
    (1, 6, 8, None, True, []),  # one worker
    (64, 1, 8, None, True, []),  # one task: a lone large part, or one point left to resume
    (64, 0, 8, None, True, []),  # none: no large part, or no point left to resume
])
def test_imap_starts_a_pool_only_for_two_children(
    pool_record, workers, n_tasks, cpus, affinity, fork, expected
):
    pool_record.platform(cpus, affinity, fork)
    taken = []  # the tasks this process takes; a child takes from its own copy

    def tasks():
        for task in range(n_tasks):
            taken.append(task)
            yield task

    with _alarm(60):
        results = pool_record.imap(str, workers, tasks())
        assert taken == []
        assert list(islice(results, 1)) == ["0"][:n_tasks]
        # the first next takes a task per child, or the one it runs here
        assert taken == list(range(sum(expected) or min(n_tasks, 1)))
        assert list(results) == [str(task) for task in range(1, n_tasks)]
    assert pool_record.pools == expected


def test_a_point_that_factors_never_starts_the_witness_pool(monkeypatch, pool_record):
    # with the valuation law taken to fail, verify and a sweep point factor
    # every stripped part, but hand them to the pool with one worker under
    # workers=2: a sweep's pool child must not fork
    monkeypatch.setattr(zsigmondy, "rigid_law_holds", lambda *args: False)
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    cfg = RunConfig(factor_rho_budget=200_000, workers=2)
    assert verify("cor12", 3, Fraction(7, 2), None, cfg, horizon=6).consistent
    spec = SweepSpec.from_dict({"family": "z^d+c", "d": [3], "c": ["7/2"], "horizon": 6})
    assert [v.consistent for v in run_sweep(spec, cfg)] == [True]
    by_verify, by_sweep, by_point = pool_record.calls
    assert by_sweep[0] == 2 and pool_record.pools == []
    # verify and the sweep point hand over the same three parts of at least 10^12
    workers, parts = by_verify
    assert by_point == by_verify and workers == 1 and len(parts) == 3
    # the same orbit through zsigmondy_set
    f = binomial(3, Fraction(7, 2))
    zsigmondy.zsigmondy_set(f, 6, cfg)
    assert pool_record.calls[3:] == [(2, parts)] and pool_record.pools == [2]
    # the report itself sets the workers: witness lists may pool, a verdict never forks
    entries = orbit(f, 6).entries
    for witnesses, workers in ((False, 1), (True, 2)):
        zsigmondy.zsigmondy_report_from_entries(
            entries, cfg, witnesses=witnesses, denominator_lcm=f.cleared[1]
        )
        assert pool_record.calls[-1] == (workers, parts)
    assert pool_record.pools == [2, 2]
