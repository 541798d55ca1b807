"""Tests of the benchmark itself: span arithmetic, the percentile rule, the
output checks and the seeded inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


# ---- self time ---------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("verifiers.verify", 1.0, 4.0, 0),
        span("arith.factor", 2.0, 3.0, 1),
        span("reports.to_dict", 5.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_clips_overlapping_children_to_parent():
    spans = [
        span("cli.main", 0.0, 4.0, -1),
        span("arith.factor", 1.0, 3.0, 0),
        span("arith.factor", 2.0, 5.0, 0),  # overlaps its sibling and the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_aggregate_counts_recursive_spans_once_and_accounts_for_the_root():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("reports.to_dict", 1.0, 5.0, 0),
        span("reports.to_dict", 2.0, 3.0, 1),
        span("arith.factor", 6.0, 9.0, 0, {"in_bits": 100, "resolved": 1}),
        span("arith.trial_division", 6.5, 7.5, 3, {"in_bits": 100}),
        span("arith.factor", 9.0, 9.5, 0, {"in_bits": 50, "resolved": 0}),
        span("heights.trinomial_family_lower", 9.5, 9.9, 0),
        span("heights.family_C", 9.6, 9.7, 6),
    ]
    m = tracing.aggregate(spans)
    assert m["heights.calls"] == 2
    assert m["heights.s"] == pytest.approx(0.4)
    assert m["reports.to_dict.s"] == pytest.approx(4.0)
    assert m["self_s.reports"] == pytest.approx(4.0)
    assert m["arith.factor.calls"] == 2
    assert m["arith.factor.self_s"] == pytest.approx(2.5)
    assert m["arith.factor.in_bits_sum"] == 150
    assert m["arith.factor.resolved_ratio"] == pytest.approx(0.5)
    assert m["cli.main.self_s"] == pytest.approx(10.0 - 4.0 - 3.0 - 0.5 - 0.4)
    assert sum(m[f"self_s.{layer}"] for layer in tracing.LAYERS) == pytest.approx(10.0)


# ---- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50), (99, 50), (100, 90), (564, 90),
    (999, 90), (1000, 99), (10_000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tracing.tail_percentile(n) == expected


def test_point_tail_falls_back_to_the_median_and_states_the_count():
    spans = [span("verifiers.point", float(i), float(i) + 0.1 * (i + 1), -1) for i in range(10)]
    m = tracing.aggregate(spans)
    assert m["verifiers.point.samples"] == 10
    assert m["verifiers.point.tail_pct"] == 50
    assert m["verifiers.point.tail_s"] == m["verifiers.point.p50_s"] == pytest.approx(0.5)
    assert m["verifiers.point.max_s"] == pytest.approx(1.0)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 90) == 90
    assert tracing.percentile(values, 99.9) == 100


# ---- output checks -----------------------------------------------------------


def _sweep_bytes(points) -> bytes:
    lines = [
        json.dumps({"v": 1, "key": f"thm13:d={d}:e={e}:c={c}", "consistent": True})
        for d, e, c in points
    ]
    return ("\n".join(lines) + "\n").encode()


def test_sweep_check_rejects_a_one_byte_change():
    points = wl.grid_points(wl.GRID_DEEP_SPEC)
    data = _sweep_bytes(points)
    expected = wl.sweep_digest(data)
    assert wl.check_sweep(data, 0, points, expected) == []
    i = data.index(b"thm13")
    changed = data[:i] + b"T" + data[i + 1:]
    assert len(wl.check_sweep(changed, 0, points, expected)) == 1


def test_sweep_rules_hold_for_any_seed():
    points = wl.grid_points(wl.GRID_DEEP_SPEC)
    data = _sweep_bytes(points)
    assert wl.check_sweep(data, 0, points, None) == []
    assert len(wl.check_sweep(data, 5, points, None)) == len(points)
    assert wl.check_sweep(data.replace(b"true", b"false", 1), 0, points, None)
    lines = data.splitlines(keepends=True)
    swapped = b"".join([lines[1], lines[0], *lines[2:]])
    assert len(wl.check_sweep(swapped, 0, points, None)) == 2
    assert wl.check_sweep(b"".join(lines[:-1]), 0, points, None)
    assert wl.check_sweep(data[:-1], 0, points, None)


def test_cli_check_rejects_a_one_byte_change():
    argv = wl.cli_commands(0)[3]
    stdout = json.dumps({"hypothesis_ok": True, "consistent": True}).encode() + b"\n"
    expected = {"argv": argv, "exit": 0, "stdout": wl.sha256(stdout)}
    assert wl.check_cli(argv, stdout, 0, expected) is None
    assert wl.check_cli(argv, stdout.replace(b"true", b"True", 1), 0, expected)
    assert wl.check_cli(argv, stdout, 3, expected)


def test_cli_check_of_a_report():
    argv = wl.cli_commands(0)[0]
    per_index = [{"n": n, "has_primitive": n != 1} for n in range(1, 13)]
    report = {"horizon": 12, "elements": [1], "per_index": per_index}
    assert wl.check_cli(argv, json.dumps({"report": report}).encode(), 0, None) is None
    report["elements"] = []
    assert wl.check_cli(argv, json.dumps({"report": report}).encode(), 0, None)


# ---- seeded inputs -----------------------------------------------------------


README_GRID = {
    "family": "z^d+z^e+c", "d": [3, 4, 5], "e": [2, 3], "c": ["5/2", "-3/2"],
    "horizon": 10, "budgets": {"factor_rho_budget": 200000},
}


def test_seed_zero_reproduces_the_canonical_inputs():
    assert wl.grid_spec("grid_deep", 0) == README_GRID
    assert len(wl.grid_points(README_GRID)) == 10
    assert wl.grid_spec("grid_wide", 0) == {
        "family": "z^d+z^e+c", "d": [3, 4, 5], "e": [2, 3, 4],
        "c_grid": {"num": [-13, 13], "den": [1, 5]}, "horizon": 6,
        "budgets": {"factor_rho_budget": 200000},
    }
    assert len(wl.grid_points(wl.grid_spec("grid_wide", 0))) == 564
    assert wl.cli_commands(0) == [
        ["zsig", "--coeffs", "1,0,1", "-N", "12", "--format", "json"],
        ["zsig", "--coeffs", "7/2,0,0,1", "-N", "9", "--format", "json"],
        ["zsig", "--coeffs", "5/2,0,1,0,1", "-N", "9", "--format", "json"],
        ["verify", "thm13", "--d", "4", "--e", "2", "--c", "5/2", "--format", "json"],
    ]
    recorded = json.loads((BENCH / "digests.json").read_text())
    assert [c["argv"] for c in recorded["cli_points"]] == wl.cli_commands(0)
    assert len(recorded["grid_wide"]["lines"]) == 564


def test_other_seeds_keep_shape_and_draw_within_the_rules():
    assert wl.grid_spec("grid_deep", 7) == README_GRID
    box = set(wl.lowest_terms_grid(wl.WIDE_DRAW_NUM, wl.WIDE_DRAW_DEN))
    seen = []
    for seed in (1, 2):
        spec = wl.grid_spec("grid_wide", seed)
        assert spec == wl.grid_spec("grid_wide", seed)
        cs = [Fraction(c) for c in spec["c"]]
        assert len(set(cs)) == 94 and set(cs) <= box
        assert len(wl.grid_points(spec)) == 564
        seen.append(cs)
    assert seen[0] != seen[1]
    for seed in range(1, 30):
        for shape, argv in zip(wl.CLI_SHAPES, wl.cli_commands(seed)):
            assert argv in [shape.argv(c) for c in wl.cli_candidates(shape) if c != shape.c0]
    assert wl.cli_candidates(wl.CLI_SHAPES[0]) == [Fraction(n) for n in (-3, 1, 2, 3, 4, 5)]
    assert wl.cli_candidates(wl.CLI_SHAPES[1]) == [Fraction(n, 2) for n in (7, 9, 11)]
    for shape in wl.CLI_SHAPES[2:]:
        assert wl.cli_candidates(shape) == [Fraction(n, 2) for n in (5, 7, 9)]


def test_grid_order_matches_the_sweep_engine():
    sys.path.insert(0, str(ROOT / "src"))
    from zsig.verifiers import SweepSpec

    for spec in (wl.grid_spec("grid_wide", 0), wl.grid_spec("grid_wide", 3), README_GRID):
        assert wl.grid_points(spec) == SweepSpec.from_dict(spec).points()


# ---- tracer and the runner ---------------------------------------------------


def test_tracer_wraps_every_caller_name_and_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    import zsig.cli
    import zsig.orbits
    import zsig.verifiers

    original = zsig.orbits.orbit
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert zsig.verifiers.orbit is zsig.orbits.orbit is not original
        with redirect_stdout(io.StringIO()):
            code = zsig.cli.main(["zsig", "--coeffs", "1,0,1", "-N", "6", "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert zsig.verifiers.orbit is zsig.orbits.orbit is original
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "zsigmondy.zsigmondy_set", "orbits.orbit", "polynomials.evaluate",
            "zsigmondy.stripped_numerator", "arith.factor", "reports.to_dict"} <= names
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] == -1
    m = tracing.aggregate(tracer.spans)
    assert m["orbits.orbit.iterates"] == 6
    assert m["polynomials.evaluate.out_bits_max"] == (458330).bit_length()


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_deep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(tracing.aggregate([])) <= per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
