import argparse
import contextlib
import csv
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zsig import pool, reports, verifiers
from zsig.cli import build_parser, main
from zsig.config import RunConfig, env_name
from zsig.sweep import run_sweep
from zsig.verifiers import SweepSpec, TheoremVerdict
from tests.conftest import LEAN

FAST = ["--rho-budget", "200000"]
SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbit_text(capsys):
    code, out, _ = run(capsys, "orbit", "--coeffs", "1,0,1", "-N", "6")
    assert code == 0
    assert "458330" in out


def test_orbit_json(capsys):
    code, out, _ = run(
        capsys, "orbit", "--coeffs", "5/2,0,0,1", "-N", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert [e["A"] for e in data["orbit"]["entries"]] == ["5", "145", "3049905"]


def test_orbit_csv(capsys):
    code, out, _ = run(
        capsys, "orbit", "--coeffs", "1,0,1", "-N", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,A,B,digits_A,digits_B"
    assert lines[4] == "4,26,1,2,1"


def test_bound_csv(capsys):
    code, out, _ = run(
        capsys, "bound", "--coeffs", "7/2,0,0,1", "--hhat", "ingram", "--format", "csv"
    )
    assert code == 0
    assert "n_max_floor,5" in out


def test_orbit_preperiodic_exit_code(capsys):
    code, out, _ = run(capsys, "orbit", "--coeffs", "-1,0,1", "-N", "5")
    assert code == 4
    assert "preperiodic: 0 -> -1 -> 0" in out


def test_orbit_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "orbit", "--coeffs", "3,0,1", "-N", "30", "--digit-budget", "50"
    )
    assert code == 3
    assert "digit budget" in err


@pytest.mark.parametrize("argv, stop", [
    # the orbit is 1, 2, and 2^(10^10) + 1 is rejected from sizes alone
    (["orbit", "--poly", "z^10000000000+1", "-N", "3"], 3),
    # 3^(10^9) + 3 next to a constant that outweighs the leading coefficient
    (["orbit", "--poly", "z^1000000000+3", "-N", "2"], 2),
    (["zsig", "--poly", "z^1000000000+3", "-N", "3"], 2),
    # the orbit is 1, -1, 5, and 5^(10^9) - 3 * 5^(10^9-1) + 1 is rejected
    (["orbit", "--poly", "z^1000000000-3z^999999999+1", "-N", "4"], 4),
])
def test_orbit_budget_stop_at_a_huge_degree_builds_no_power(capsys, argv, stop):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and f"iterate {stop} exceeds digit budget" in err


def test_bound_telescope_at_a_huge_degree_builds_no_power(capsys):
    # the telescope stops at the budget: f^2(0) = 3^(10^9) + 3 is never built
    start = time.perf_counter()
    code, _, _ = run(
        capsys, "bound", "--poly", "z^1000000000+3", "--hhat", "telescope", "--iterations", "2"
    )
    assert time.perf_counter() - start < 2
    assert code == 0


def test_verify_cor12_at_a_huge_degree_builds_no_power(capsys):
    # the hypothesis |c| > 2^(d/(d-1)) is decided from size brackets and f(7/2)
    # is rejected by the orbit step's size screen, so no d-sized power is built
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "cor12", "--d", "3000000", "--c", "7/2")
    assert time.perf_counter() - start < 2
    assert code == 0 and "consistent: True" in out


def test_orbit_parse_error(capsys):
    code, _, err = run(capsys, "orbit", "--coeffs", "1,0,x", "-N", "3")
    assert code == 2


# Fraction would build 10^16000000 for this token before any budget applied (26 s)
_EXPONENT_TOKEN = "1e16000000"


def _assert_quick_usage_error(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "exponent" in err


def test_coeffs_in_exponent_notation_exit_2_at_once(capsys):
    _assert_quick_usage_error(capsys, "orbit", "--coeffs", f"{_EXPONENT_TOKEN},0,1", "-N", "1")


def test_verify_c_in_exponent_notation_exits_2_at_once(capsys):
    _assert_quick_usage_error(capsys, "verify", "cor12", "--d", "3", "--c", _EXPONENT_TOKEN)


def test_sweep_spec_c_in_exponent_notation_exits_2_at_once(tmp_path, capsys):
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps({"family": "z^d+c", "d": [3], "c": [_EXPONENT_TOKEN]}))
    out_path = tmp_path / "results.jsonl"
    _assert_quick_usage_error(capsys, "sweep", str(spec_path), "-o", str(out_path))
    assert not out_path.exists()


def test_bad_config_value_is_usage_error(capsys):
    code, _, err = run(
        capsys, "orbit", "--coeffs", "1,0,1", "-N", "3", "--digit-budget", "-5"
    )
    assert code == 2
    assert "digit_budget" in err


def test_zsig_command(capsys):
    code, out, _ = run(capsys, "zsig", "--coeffs", "1,0,1", "-N", "6", *FAST)
    assert code == 0
    assert "[1]" in out
    code, out, _ = run(
        capsys, "zsig", "--coeffs", "7/2,0,0,1", "-N", "6", "--format", "json", *FAST
    )
    assert code == 0
    assert json.loads(out)["report"]["elements"] == []


def test_zsig_rejects_nonzero_linear_term(capsys):
    code, _, err = run(capsys, "zsig", "--coeffs", "1,2,1", "-N", "5")
    assert code == 2
    assert "a_1" in err


def test_bound_ingram(capsys):
    code, out, _ = run(capsys, "bound", "--coeffs", "7/2,0,0,1", "--hhat", "ingram")
    assert code == 0
    assert "n <= 5" in out
    assert "certified: true" in out


def test_bound_family(capsys):
    code, out, _ = run(
        capsys, "bound", "--coeffs", "5/2,0,1,0,1", "--hhat", "family", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["bound"]["n_max_floor"] == 6
    assert data["certified"]


def test_bound_telescope_vacuous(capsys):
    code, out, _ = run(
        capsys, "bound", "--coeffs", "1,0,1", "--hhat", "telescope", "--iterations", "0"
    )
    assert code == 0
    assert "vacuous" in out
    assert "certified: false" in out


def test_bound_telescope_deep_preperiodic_is_vacuous(capsys):
    # 0 -> -1 -> 0 never meets the digit budget, so the depth reaches 1100
    # and 2^1100 is past the largest double
    code, out, err = run(
        capsys, "bound", "--coeffs", "-1,0,1", "--hhat", "telescope", "--iterations", "1100"
    )
    assert code == 0 and err == ""
    assert "bound: vacuous" in out


def test_bound_telescope_on_a_finite_orbit_returns_at_once(capsys):
    # 0 -> -1 -> 0 repeats at the second step: the canonical height is 0
    # exactly, whatever depth is asked for
    code, out, err = run(
        capsys, "bound", "--coeffs", "-1,0,1", "--hhat", "telescope",
        "--iterations", "1000000000", "--format", "json",
    )
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["hhat_interval"] == {
        "lower": 0.0, "upper": 0.0, "method": "telescoped", "iterations": 10**9,
    }
    assert data["bound"] is None and not data["certified"]


def test_bound_telescope_certified(capsys):
    code, out, _ = run(
        capsys, "bound", "--coeffs", "1,0,1", "--hhat", "telescope", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["bound"] is not None and data["certified"]


@pytest.mark.parametrize("hhat", ["family", "ingram", "telescope"])
def test_bound_rejects_a_coefficient_beyond_the_float_range(capsys, hhat):
    # the archimedean constant reads float(10^400): an OverflowError traceback before
    _assert_usage_error(capsys, "bound", "--poly", "z^3+1" + "0" * 400, "--hhat", hhat)


def test_bound_rejects_a_leading_coefficient_below_the_float_range(capsys):
    # float(10^-400) is 0.0, and 0.0 ** (-1/d) raised ZeroDivisionError
    _assert_usage_error(capsys, "bound", "--poly", "1/1" + "0" * 400 + "z^3", "--hhat", "telescope")


@pytest.mark.parametrize("argv", [
    ["prop51", "--d", "1000000000", "--e", "2", "--c", "3/2"],
    ["thm13", "--d", "10000001", "--e", "2", "--c", "-5/2"],
    ["prop53", "--d", "100000001", "--e", "99999998", "--c", "-1/3"],
    ["thm13", "--d", "1000000000", "--e", "999999999", "--c", "3"],
    ["thm13", "--d", "1000000000", "--e", "2", "--c", "3"],
    ["prop53", "--d", "10000001", "--e", "10000000", "--c", "-1/3"],
])
def test_verify_at_a_huge_degree_builds_no_power(capsys, argv):
    # f(c) > 2c, |f(c)| >= |c|^(d-2) and the prop53 floor are decided from
    # size brackets, and the orbit's budget stop from sizes: no c^d or
    # |c|^(e-1) is built, and no iterate past the budget
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 2
    assert code == 0 and "consistent: True" in out


def test_verify_consistent(capsys):
    code, out, _ = run(
        capsys, "verify", "thm13", "--d", "4", "--e", "2", "--c", "5/2", *FAST
    )
    assert code == 0
    assert "consistent: True" in out


def test_verify_hypothesis_failure_is_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "cor12", "--d", "3", "--c", "5/2", *FAST)
    assert code == 0
    assert "hypothesis_ok: False" in out


def test_verify_negative_c_token(capsys):
    code, out, _ = run(
        capsys, "verify", "thm13", "--d", "3", "--e", "2", "--c", "-7/3", "-N", "8", *FAST
    )
    assert code == 0


def test_verify_ezsig_audit(capsys):
    code, out, _ = run(capsys, "verify", "ezsig", "--d", "3", "--n-max", "1000")
    assert code == 0
    assert "equalities at n = [2]" in out
    assert "violations at n = none" in out


def test_verify_inconsistent_exit_code(capsys, monkeypatch):
    import zsig.cli as cli_mod

    def fake_verify(theorem_id, d, c, e, cfg, horizon=None):
        return TheoremVerdict("thm13", "f", True, "claim", [9], False, {})

    monkeypatch.setattr(cli_mod, "verify", fake_verify)
    code, out, _ = run(capsys, "verify", "thm13", "--d", "4", "--e", "2", "--c", "5/2")
    assert code == 5


def test_sweep_jsonl_and_resume(tmp_path, capsys):
    spec = {
        "family": "z^d+z^e+c",
        "d": [3],
        "e": [2],
        "c": ["5/2", "1/2"],
        "horizon": 6,
    }
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "results.jsonl"
    code, out, _ = run(capsys, "sweep", str(spec_path), "-o", str(out_path), *FAST)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["v"] == 1
    assert first["key"] == "thm13:d=3:e=2:c=5/2"
    # resume: nothing recomputed, file unchanged
    before = out_path.read_bytes()
    code, out, _ = run(capsys, "sweep", str(spec_path), "-o", str(out_path), *FAST)
    assert code == 0
    assert out_path.read_bytes() == before


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_partial_file_resumes(tmp_path, capsys, workers):
    spec = {
        "family": "z^d+z^e+c",
        "d": [3],
        "e": [2],
        "c": ["5/2", "1/2"],
        "horizon": 6,
        "budgets": {"factor_rho_budget": 200000},
    }
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(spec))
    full = tmp_path / "full.jsonl"
    flags = ["--workers", workers]
    assert run(capsys, "sweep", str(spec_path), "-o", str(full), *flags)[0] == 0
    lines = full.read_text().splitlines()
    assert len(lines) == 2
    # simulate an interrupted run: only the first line present, or a run
    # killed mid-write that left an unterminated last line
    first, second = (line.encode() + b"\n" for line in lines)
    partial = tmp_path / "partial.jsonl"
    for cut in (first, first + second[:25], first + second[:-1], first[:10]):
        partial.write_bytes(cut)
        assert run(capsys, "sweep", str(spec_path), "-o", str(partial), *flags)[0] == 0
        assert partial.read_bytes() == full.read_bytes()


def test_sweep_deterministic_bytes(tmp_path, capsys):
    spec = {
        "family": "z^d+z^e+c",
        "d": [3, 4],
        "e": [2],
        "c": ["5/2", "-3/2"],
        "horizon": 6,
    }
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(spec))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(capsys, "sweep", str(spec_path), "-o", str(a), *FAST)[0] == 0
    assert run(capsys, "sweep", str(spec_path), "-o", str(b), *FAST)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZSIG_DIGIT_BUDGET", "50")
    code, _, err = run(capsys, "orbit", "--coeffs", "3,0,1", "-N", "30")
    assert code == 3
    # a variable is validated for every command, and acts only where its knob is read
    monkeypatch.delenv("ZSIG_DIGIT_BUDGET")
    argv = ["orbit", "--coeffs", "1,0,1", "-N", "6"]
    plain = run(capsys, *argv)
    monkeypatch.setenv("ZSIG_WORKERS", "2")
    assert run(capsys, *argv) == plain and plain[0] == 0
    monkeypatch.setenv("ZSIG_WORKERS", "0")
    assert run(capsys, *argv)[0] == 2


@pytest.mark.parametrize("argv, exit_code", [
    (["orbit", "--coeffs", "1,0,1", "-N", "5"], 0),
    (["orbit", "--coeffs", "-1,0,1", "-N", "5"], 4),
    (["zsig", "--coeffs", "7/2,0,0,1", "-N", "5", *FAST], 0),
    (["bound", "--coeffs", "7/6,0,5/3,2/5", "--hhat", "telescope"], 0),
    (["verify", "thm13", "--d", "4", "--e", "2", "--c", "5/2", *FAST], 0),
    (["verify", "ezsig", "--d", "3", "--n-max", "100"], 0),
])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_every_command_prints_the_format_asked_for(capsys, argv, exit_code, fmt):
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == exit_code and out.endswith("\n")
    if fmt == "json":
        assert isinstance(json.loads(out), dict)
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert all(header) and rows and all(len(row) == len(header) for row in rows)


def _json_leaves(value, key=""):
    """(dotted key, CSV cell) of each leaf of a parsed JSON value."""
    if isinstance(value, dict):
        return [
            leaf for k, v in value.items() for leaf in _json_leaves(v, f"{key}.{k}" if key else k)
        ]
    if isinstance(value, list):
        return [(key, " ".join(map(str, value)))]
    if isinstance(value, bool):
        return [(key, str(value).lower())]
    return [(key, "" if value is None else str(value))]


@pytest.mark.parametrize("argv", [
    ["bound", "--coeffs", "7/2,0,0,1", "--hhat", "ingram"],
    ["bound", "--coeffs", "5/2,0,1,0,1", "--hhat", "family"],
    ["bound", "--coeffs", "7/6,0,5/3,2/5", "--hhat", "telescope"],
    ["verify", "thm13", "--d", "4", "--e", "2", "--c", "5/2", *FAST],
    ["verify", "thm13", "--d", "3", "--e", "2", "--c", "1/2", *FAST],
    ["verify", "prop54", "--d", "3", "--e", "2", "--c", "-3/2", *FAST],
    ["verify", "ezsig", "--d", "3", "--n-max", "100"],
])
def test_field_value_csv_lists_every_json_leaf(capsys, argv):
    _, out, _ = run(capsys, *argv, "--format", "json")
    leaves = _json_leaves(json.loads(out))
    _, out, _ = run(capsys, *argv, "--format", "csv")
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["field", "value"]
    assert [tuple(row) for row in rows] == leaves


def _covers_fields(obj, data, **renamed):
    """Every field of the record obj is a key of data (or of its renamed keys)."""
    return all(set(renamed.get(name, (name,))) <= data.keys() for name in obj._fields)


def test_json_encoders_are_complete():
    from zsig import (
        canonical_height_interval,
        global_C,
        orbit,
        parse_poly,
        theorem1_bound,
        zsigmondy_set,
    )
    from zsig.zsigmondy import RigidViolation

    def encode(to_dict, obj):
        return json.loads(json.dumps(to_dict(obj)))

    f = parse_poly("z^3+7/2")
    orb = orbit(f, 5)
    data = encode(reports.orbit_to_dict, orb)
    assert _covers_fields(orb, data)
    for entry, d in zip(orb.entries, data["entries"], strict=True):
        assert _covers_fields(entry, d, value=("A", "B"))
        assert (d["n"], int(d["A"]), int(d["B"])) == (entry.n, entry.A, entry.B)

    rep = zsigmondy_set(f, 5, LEAN)
    rep.rigid_violations.append(RigidViolation(2**89 - 1, 4, 1, 2))
    data = encode(reports.zsig_report_to_dict, rep)
    assert _covers_fields(rep, data)
    assert any(v.witness_primes for v in rep.per_index)
    for v, d in zip(rep.per_index, data["per_index"], strict=True):
        assert _covers_fields(v, d)
        assert int(d["stripped_part"]) == v.stripped_part
        assert tuple(int(p) for p in d["witness_primes"]) == v.witness_primes
    assert {int(p): k for p, k in data["k_table"].items()} == rep.k_table
    [violation] = data["rigid_violations"]
    assert _covers_fields(rep.rigid_violations[0], violation)
    assert int(violation["prime"]) == 2**89 - 1

    iv = canonical_height_interval(f, Fraction(7, 2), 4)
    assert _covers_fields(iv, encode(reports.interval_to_dict, iv))

    # the records without big integers are their own JSON view
    def asdict(record):
        return record._asdict()

    gc = global_C(f)
    data = encode(asdict, gc)
    assert _covers_fields(gc, data)
    assert gc.nonarch_contribs
    assert {int(p): v for p, v in data["nonarch_contribs"].items()} == gc.nonarch_contribs

    br = theorem1_bound(f, 0.5, 1.0)
    assert encode(asdict, br) == asdict(br)

    spec = SweepSpec.from_dict({"family": "z^d+c", "d": [3], "c": ["7/2"], "horizon": 6})
    verdict = run_sweep(spec, LEAN)[0]
    assert encode(asdict, verdict) == asdict(verdict)


def test_sweep_rejects_corrupt_middle_line(tmp_path, capsys):
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps({"family": "z^d+c", "d": [3], "c": ["7/2"]}))
    corrupt = b'{"v":1,"key":"cor12:d=3\n{"v":1,"key":"cor12:d=3:c=7/2"}\n'
    out_path = tmp_path / "results.jsonl"
    out_path.write_bytes(corrupt)
    code, _, err = run(capsys, "sweep", str(spec_path), "-o", str(out_path))
    assert code == 2
    assert "error" in err
    assert out_path.read_bytes() == corrupt


_GOOD_SPEC = {"family": "z^d+c", "d": [3], "c": ["7/2", "5/2"], "horizon": 6}
# one complete record and a torn one: a resume would truncate the tail
_PARTIAL = b'{"v":1,"key":"cor12:d=3:c=7/2","consistent":true}\n{"v":1,"ke'


def _assert_usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _assert_sweep_usage_error(capsys, spec_path, out_path, before):
    """Exit 2 and the output file as it was (``before`` None: never created)."""
    _assert_usage_error(capsys, "sweep", str(spec_path), "-o", str(out_path))
    if before is None:
        assert not out_path.exists()
    else:
        assert out_path.read_bytes() == before


@pytest.mark.parametrize("spec", [
    [_GOOD_SPEC],
    {"family": "z^d+c", "c": ["7/2"]},
    {**_GOOD_SPEC, "d": 3},
    {**_GOOD_SPEC, "d": [1]},
    {**_GOOD_SPEC, "c": ["1/0"]},
    {**_GOOD_SPEC, "c_grid": {"num": [1, 3], "den": [0, 2]}},
    {**_GOOD_SPEC, "c_grid": {"num": [1, 3]}},
    {**_GOOD_SPEC, "budgets": []},
    {**_GOOD_SPEC, "budgets": {"digit_budget": 0}},
    {**_GOOD_SPEC, "budgets": {"workers": 1}},
    {**_GOOD_SPEC, "horizon": "8"},
    {**_GOOD_SPEC, "horizon": 0},
    {**_GOOD_SPEC, "horizon": -1},
    {"d": [3], "c": ["7/2"]},
    {**_GOOD_SPEC, "c_grid": {}},  # an empty or false grid ran as no grid
    {**_GOOD_SPEC, "c_grid": False},
    # the parser's RecursionError was a traceback
    pytest.param("[" * 200_000, id="nested-200000-deep"),
])
def test_sweep_rejects_malformed_spec(tmp_path, capsys, spec):
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    out_path = tmp_path / "results.jsonl"
    _assert_sweep_usage_error(capsys, spec_path, out_path, None)
    out_path.write_bytes(_PARTIAL)
    _assert_sweep_usage_error(capsys, spec_path, out_path, _PARTIAL)


@pytest.mark.parametrize("spec", [
    {**_GOOD_SPEC, "budgets": {"digit_budget": True}},
    {**_GOOD_SPEC, "budgets": {"factor_rho_budget": True}},
    {**_GOOD_SPEC, "c_grid": {"num": [True, 4], "den": [True, True]}},
    {**_GOOD_SPEC, "c_grid": {"num": [False, 4], "den": [1, 2]}},
    {**_GOOD_SPEC, "c_grid": {"num": [1, 4], "den": [1, True]}},
])
def test_sweep_rejects_a_boolean_where_an_integer_belongs(tmp_path, capsys, spec):
    # JSON true is a Python int: it ran as digit budget 1 or as grid bound 1
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(spec))
    _assert_sweep_usage_error(capsys, spec_path, tmp_path / "results.jsonl", None)


@pytest.mark.parametrize("token, named", [
    ("1e400", "inf"), ("Infinity", "inf"), ("0.1", "0.1"), ("true", "True"),
])
def test_sweep_rejects_a_c_entry_that_is_not_a_string_or_integer(
    tmp_path, capsys, token, named
):
    # the first two overflowed in Fraction, 0.1 ran as its binary value, true as 1
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(f'{{"family": "z^d+c", "d": [3], "c": ["7/2", {token}]}}')
    out_path = tmp_path / "results.jsonl"
    out_path.write_bytes(_PARTIAL)
    code, out, err = run(capsys, "sweep", str(spec_path), "-o", str(out_path))
    assert (code, out, err) == (2, "", f"error: bad c entry: {named}\n")
    assert out_path.read_bytes() == _PARTIAL


@pytest.mark.parametrize("how, value", [
    ("flag", "5"), ("flag", "200000"), ("env", "5"), ("env", "200000"),
])
def test_sweep_refuses_a_flag_that_contradicts_a_pinned_budget(
    tmp_path, capsys, monkeypatch, how, value
):
    # 200000 is the default digit budget: set explicitly, it still conflicts
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps({**_GOOD_SPEC, "budgets": {"digit_budget": 3000}}))
    out_path = tmp_path / "results.jsonl"
    out_path.write_bytes(_PARTIAL)
    flags = ["--digit-budget", value] if how == "flag" else []
    if how == "env":
        monkeypatch.setenv("ZSIG_DIGIT_BUDGET", value)
    code, out, err = run(capsys, "sweep", str(spec_path), "-o", str(out_path), *flags)
    assert code == 2 and out == ""
    assert err == f"error: the spec pins digit_budget = 3000, a flag or variable sets {value}\n"
    assert out_path.read_bytes() == _PARTIAL
    # a value that agrees with the pin runs as usual
    out_path.unlink()
    if how == "flag":
        flags = ["--digit-budget", "3000"]
    else:
        monkeypatch.setenv("ZSIG_DIGIT_BUDGET", "3000")
    assert run(capsys, "sweep", str(spec_path), "-o", str(out_path), *flags, *FAST)[0] == 0
    assert len(out_path.read_text().splitlines()) == 2


@pytest.mark.parametrize("spec", [
    {"c": ["1/2", "7/2"], "c_grid": {"num": [1, 1], "den": [2, 2]}},
    {"d": [3, 3], "c": ["1/2", "7/2"]},
    {"c": ["1/2", "2/4", "7/2"]},
])
def test_sweep_writes_a_repeated_point_once(tmp_path, capsys, spec):
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps({"family": "z^d+c", "d": [3], "horizon": 2, **spec}))
    full = tmp_path / "full.jsonl"
    code, out, _ = run(capsys, "sweep", str(spec_path), "-o", str(full), *FAST)
    assert code == 0 and out == f"sweep complete: 2 points in {full}\n"
    keys = [json.loads(line)["key"] for line in full.read_text().splitlines()]
    assert keys == ["cor12:d=3:c=1/2", "cor12:d=3:c=7/2"]
    # resumed after its first line, the sweep writes the same bytes
    resumed = tmp_path / "resumed.jsonl"
    resumed.write_bytes(full.read_bytes().splitlines(keepends=True)[0])
    assert run(capsys, "sweep", str(spec_path), "-o", str(resumed), *FAST)[0] == 0
    assert resumed.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("line", [
    b"[1]", b"{}", b'{"key":"cor12:d=3:c=5/2"}', b'{"key":7,"consistent":true}',
    b'{"key":"cor12:d=3:c=5/2","consistent":"no"}', b'"cor12:d=3:c=5/2"',
    pytest.param(b"[" * 200_000, id="nested-200000-deep"),
    # a JSON error named its place within the line, not the file's line:
    # "line 1 column 24 (char 23)", and "line 2 column 1 (char 1)" for a blank line
    b'{"v":1,"key":"cor12:d=3', b"",
])
def test_sweep_rejects_malformed_resume_record(tmp_path, capsys, line):
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(_GOOD_SPEC))
    out_path = tmp_path / "results.jsonl"
    before = _records("7/2") + line + b"\n" + _PARTIAL  # the grid's first record, then line
    out_path.write_bytes(before)
    code, out, err = run(capsys, "sweep", str(spec_path), "-o", str(out_path))
    assert (code, out, err) == (2, "", "error: malformed sweep record on line 2\n")
    assert out_path.read_bytes() == before


def test_sweep_missing_spec_or_directory_output(tmp_path, capsys):
    spec_path = tmp_path / "grid.json"
    _assert_sweep_usage_error(capsys, spec_path, tmp_path / "results.jsonl", None)
    spec_path.write_text(json.dumps(_GOOD_SPEC))
    _assert_usage_error(capsys, "sweep", str(spec_path), "-o", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json"]


def test_sweep_resume_over_an_inconsistent_record_exits_5(tmp_path, capsys):
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(_GOOD_SPEC))
    out_path = tmp_path / "results.jsonl"
    assert run(capsys, "sweep", str(spec_path), "-o", str(out_path), *FAST)[0] == 0
    first, second = out_path.read_bytes().splitlines(keepends=True)
    assert b'"consistent":true' in second
    flagged = first + second.replace(b'"consistent":true', b'"consistent":false')
    out_path.write_bytes(flagged)
    code, out, err = run(capsys, "sweep", str(spec_path), "-o", str(out_path), *FAST)
    assert code == 5
    assert out == f"sweep complete: 2 points in {out_path}\n"
    assert err.splitlines()[1:] == ["  cor12:d=3:c=5/2"]
    assert out_path.read_bytes() == flagged


def _records(*cs: str) -> bytes:
    """Records of the points z^3 + c, as much of each as a resume reads."""
    return b"".join(b'{"v":1,"key":"cor12:d=3:c=%s","consistent":true}\n' % c.encode() for c in cs)


@pytest.mark.parametrize("cs", [["9/2"], ["5/2", "7/2"], ["7/2", "5/2", "9/2"]],
                         ids=["another-grid", "out-of-order", "past-the-grid"])
def test_sweep_refuses_a_file_that_is_no_prefix_of_its_grid(tmp_path, capsys, cs):
    # each resumed with exit 0: it appended to another grid's records, left
    # this grid's records out of order, or kept a record past the grid
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(_GOOD_SPEC))
    out_path = tmp_path / "results.jsonl"
    out_path.write_bytes(_records(*cs) + b'{"v":1,"ke')
    _assert_sweep_usage_error(capsys, spec_path, out_path, _records(*cs) + b'{"v":1,"ke')


@pytest.mark.parametrize("tail", [b"{}", b" ", b"\xff", b'{"v":2,"key":"', b'{"key":"cor12:d=3'])
def test_sweep_refuses_a_last_line_that_no_sweep_began(tmp_path, capsys, tail):
    # a torn record starts as every record does; any other unterminated line was cut
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(_GOOD_SPEC))
    out_path = tmp_path / "results.jsonl"
    out_path.write_bytes(_records("7/2") + tail)
    _assert_sweep_usage_error(capsys, spec_path, out_path, _records("7/2") + tail)


def test_sweep_refuses_its_own_spec_as_output(tmp_path, capsys):
    # with no newline at its end the spec read as a torn line: it was cut to
    # 0 bytes and overwritten with the results
    spec = b'{"family":"z^d+c","d":[3],"c":["9/2"],"horizon":4}'
    spec_path = tmp_path / "g.json"
    for data in (spec, spec + b"\n"):
        spec_path.write_bytes(data)
        _assert_sweep_usage_error(capsys, spec_path, spec_path, data)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_continues_a_file_that_a_shorter_grid_wrote(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    spec_path = tmp_path / "grid.json"
    short = tmp_path / "short.jsonl"
    spec_path.write_text(json.dumps({**_GOOD_SPEC, "c": ["7/2"]}))
    assert run(capsys, "sweep", str(spec_path), "-o", str(short), *FAST)[0] == 0
    spec_path.write_text(json.dumps({**_GOOD_SPEC, "c": ["7/2", "5/2", "9/2", "11/2"]}))
    flags = [*FAST, "--workers", workers]
    clean = tmp_path / "clean.jsonl"
    assert run(capsys, "sweep", str(spec_path), "-o", str(clean), *flags)[0] == 0
    code, out, _ = run(capsys, "sweep", str(spec_path), "-o", str(short), *flags)
    assert (code, out) == (0, f"sweep complete: 4 points in {short}\n")
    assert short.read_bytes() == clean.read_bytes()


def test_a_resume_holds_less_than_its_file_in_memory(tmp_path, capsys):
    # the file was read whole, decoded and split into lines: three copies of it
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(
        {"family": "z^d+c", "d": [3], "c_grid": {"num": [1, 2000], "den": [1, 1]}, "horizon": 1}
    ))
    out_path = tmp_path / "results.jsonl"
    assert run(capsys, "sweep", str(spec_path), "-o", str(out_path), *FAST)[0] == 0
    before = out_path.read_bytes()
    tracemalloc.start()
    try:
        code = main(["sweep", str(spec_path), "-o", str(out_path), *FAST])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out_path.read_bytes() == before
    assert peak < len(before)


_RESUME_CS = ["5/2", "7/2", "-3/2", "1/2", "3", "1"]


@st.composite
def _resume_specs(draw):
    """A grid of at most 6 points, at horizon 1 and the default budgets."""
    family = draw(st.sampled_from(["z^d+c", "z^d+z^e+c"]))
    return {
        "family": family,
        "d": draw(st.lists(st.integers(2, 4), min_size=1, max_size=2, unique=True)),
        "e": [2],
        "c": draw(st.lists(st.sampled_from(_RESUME_CS), min_size=1, max_size=3, unique=True)),
        "horizon": 1,
    }


def _sweep_in_process(spec: dict, out: Path, tmp: Path) -> tuple[int, str, str]:
    spec_path = tmp / "grid.json"
    spec_path.write_text(json.dumps(spec))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["sweep", str(spec_path), "-o", str(out), *FAST, "--workers", "1"])
    return code, stdout.getvalue(), stderr.getvalue()


@given(_resume_specs(), _resume_specs(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_resume_of_a_cut_file_is_one_clean_run_or_exits_2(a, b, data):
    # clean(A) or clean(B) cut at any byte, then an unterminated tail: either
    # a prefix of how every record starts, or any bytes but a newline
    tail = data.draw(st.one_of(
        st.integers(0, 14).map(lambda n: b'{"v":1,"key":"'[:n]),
        st.binary(max_size=16).map(lambda tail: tail.replace(b"\n", b"")),
    ))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        clean = []
        for name, spec in (("a", a), ("b", b)):
            assert _sweep_in_process(spec, tmp / f"{name}.jsonl", tmp)[0] == 0
            clean.append((tmp / f"{name}.jsonl").read_bytes())
        lines = data.draw(st.sampled_from(clean)).splitlines(keepends=True) + [b""]
        kept = data.draw(st.integers(0, len(lines) - 1))  # whole lines, then a cut one
        cut = b"".join(lines[:kept]) + lines[kept][:data.draw(st.integers(0, 400))] + tail
        out = tmp / "resumed.jsonl"
        out.write_bytes(cut)
        code, stdout, stderr = _sweep_in_process(a, out, tmp)
        resumed = out.read_bytes()
    complete, last = cut[:cut.rfind(b"\n") + 1], cut[cut.rfind(b"\n") + 1:]
    keys = [json.loads(line)["key"] for line in complete.splitlines()]
    a_keys = [json.loads(line)["key"] for line in clean[0].splitlines()]
    assert "Traceback" not in stderr
    if keys == a_keys[:len(keys)] and b'{"v":1,"key":"'.startswith(last[:14]):
        assert (code, stderr) == (0, "") and resumed == clean[0]
    else:
        assert (code, stdout) == (2, "") and stderr.startswith("error: ")
        assert resumed == cut


def test_sweep_new_inconsistent_verdict_exits_5(tmp_path, capsys, monkeypatch):
    real_verify = verifiers.verify

    def fake_verify(theorem_id, d, c, e, cfg, horizon=None):
        if c == Fraction(7, 2):
            return TheoremVerdict(theorem_id, "f", True, "claim", [9], False, {})
        return real_verify(theorem_id, d, c, e, cfg, horizon)

    monkeypatch.setattr(verifiers, "verify", fake_verify)
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(_GOOD_SPEC))
    out_path = tmp_path / "results.jsonl"
    code, _, err = run(
        capsys, "sweep", str(spec_path), "-o", str(out_path), "--workers", "1", *FAST
    )
    assert code == 5
    assert err.splitlines()[1:] == ["  cor12:d=3:c=7/2"]
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [(r["key"], r["consistent"]) for r in records] == [
        ("cor12:d=3:c=7/2", False), ("cor12:d=3:c=5/2", True),
    ]


@pytest.mark.parametrize("argv", [
    ["verify", "cor12", "--d", "3", "--c", "1/0"],
    ["verify", "cor12", "--d", "3", "--c", "7/2", "-N", "0"],
    ["verify", "thm13", "--d", "4", "--e", "2", "--c", "5/2", "-N", "-1"],
    ["orbit", "--coeffs", "1,0,1", "-N", "0"],
    ["orbit", "--coeffs", "1,0,1", "-N", "-1"],
    ["verify", "cor12", "--d", "-5", "--c", "7/2"],
    ["verify", "cor12", "--d", "-1", "--c", "7/2"],
])
def test_zero_denominator_or_nonpositive_horizon_is_a_usage_error(capsys, argv):
    _assert_usage_error(capsys, *argv)


def test_unknown_env_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ZSIG_RHO_BUDGET", "5")
    monkeypatch.setenv("ZSIG_PRIMALITY_ROUNDS", "3")
    code, out, err = run(capsys, "verify", "cor12", "--d", "3", "--c", "7/2", *FAST)
    assert code == 2 and out == ""
    assert err == "error: unknown environment variable: ZSIG_PRIMALITY_ROUNDS, ZSIG_RHO_BUDGET\n"


@pytest.mark.parametrize("how, knob", [
    ("flag", "--primality-rounds"), ("flag", "--trial-bound"), ("flag", "--seed"),
    ("flag", "--format"),
    ("env", "ZSIG_PRIMALITY_ROUNDS"), ("env", "ZSIG_FACTOR_TRIAL_BOUND"), ("env", "ZSIG_SEED"),
    ("budget", "primality_rounds"), ("budget", "factor_trial_bound"), ("budget", "seed"),
    # a misspelt field ran at its default
    ("field", "horizn"), ("field", "workers"), ("c_grid", "step"),
])
def test_removed_knobs_are_usage_errors(tmp_path, capsys, monkeypatch, how, knob):
    spec, flags = dict(_GOOD_SPEC), []
    if how == "flag":
        flags = [knob, "5"]
    elif how == "env":
        monkeypatch.setenv(knob, "5")
    elif how == "budget":
        spec["budgets"] = {knob: 5}
    elif how == "field":
        spec[knob] = 3
    else:
        spec["c_grid"] = {"num": [1, 2], "den": [1, 2], knob: 1}
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "results.jsonl"
    out_path.write_bytes(_PARTIAL)
    code, out, err = run(capsys, "sweep", str(spec_path), "-o", str(out_path), *flags)
    assert code == 2 and out == "" and knob in err
    assert out_path.read_bytes() == _PARTIAL


def _knob_flags() -> dict[str, dict[str, str]]:
    """{subcommand: {knob flag: RunConfig field}} as build_parser() defines them."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    knobs = set(RunConfig._fields)
    return {
        command: {a.option_strings[0]: a.dest for a in parser._actions if a.dest in knobs}
        for command, parser in sub.choices.items()
    }


_KNOB_FLAGS = _knob_flags()
_REQUIRED_ARGS = {
    "orbit": ["--coeffs", "1,0,1", "-N", "2"],
    "zsig": ["--coeffs", "1,0,1", "-N", "2"],
    "bound": ["--coeffs", "7/2,0,0,1", "--hhat", "ingram"],
    "verify": ["ezsig", "--d", "3", "--n-max", "10"],
    "sweep": ["grid.json", "-o", "results.jsonl"],
}


@pytest.mark.parametrize("command", sorted(_KNOB_FLAGS))
@pytest.mark.parametrize("flag", sorted({f for flags in _KNOB_FLAGS.values() for f in flags}))
def test_a_command_takes_only_the_knob_flags_it_reads(capsys, command, flag):
    value = "json" if flag == "--format" else "5"
    argv = [command, *_REQUIRED_ARGS[command], flag, value]
    if flag in _KNOB_FLAGS[command]:
        args = build_parser().parse_args(argv)
        assert str(getattr(args, _KNOB_FLAGS[command][flag])) == value
    else:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"unrecognized arguments: {flag}" in err


def _assert_unread_flag(capsys, flag, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


@pytest.mark.parametrize("flag, value", [("--c", "5/2"), ("--e", "2"), ("-N", "5")])
def test_verify_ezsig_rejects_a_claim_flag(capsys, flag, value):
    _assert_unread_flag(capsys, flag, "verify", "ezsig", "--d", "3", flag, value)


def test_verify_claim_rejects_n_max(capsys):
    argv = ["verify", "thm13", "--d", "3", "--e", "2", "--c", "3", "--n-max", "5"]
    _assert_unread_flag(capsys, "--n-max", *argv)


def test_verify_cor12_rejects_e(capsys):
    _assert_unread_flag(capsys, "--e", "verify", "cor12", "--d", "3", "--c", "5/2", "--e", "7")


@pytest.mark.parametrize("hhat", ["ingram", "family"])
def test_bound_rejects_iterations_outside_telescope(capsys, hhat):
    argv = ["bound", "--coeffs", "5/2,0,1,0,1", "--hhat", hhat, "--iterations", "99"]
    _assert_unread_flag(capsys, "--iterations", *argv)


@pytest.mark.parametrize("flag", ["--rho-budget", "--digit-budget"])
def test_verify_ezsig_rejects_a_budget_flag(capsys, flag):
    # the audit factors nothing and builds no orbit
    _assert_unread_flag(capsys, flag, "verify", "ezsig", "--d", "3", "--n-max", "10", flag, "5")


@pytest.mark.parametrize("hhat", ["ingram", "family"])
def test_bound_rejects_digit_budget_outside_telescope(capsys, hhat):
    argv = ["bound", "--coeffs", "7/2,0,0,1", "--hhat", hhat, "--digit-budget", "1"]
    _assert_unread_flag(capsys, "--digit-budget", *argv)


def test_budget_variables_still_hold_where_their_flags_are_refused(capsys, monkeypatch):
    monkeypatch.setenv("ZSIG_DIGIT_BUDGET", "5")
    monkeypatch.setenv("ZSIG_FACTOR_RHO_BUDGET", "5")
    assert run(capsys, "verify", "ezsig", "--d", "3", "--n-max", "10")[0] == 0
    assert run(capsys, "bound", "--coeffs", "7/2,0,0,1", "--hhat", "ingram")[0] == 0
    monkeypatch.setenv("ZSIG_DIGIT_BUDGET", "0")
    code, out, err = run(capsys, "bound", "--coeffs", "7/2,0,0,1", "--hhat", "ingram")
    assert code == 2 and out == "" and "digit_budget must be positive" in err


def test_a_knob_that_is_no_integer_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    # int("abc") once surfaced as "invalid literal for int() with base 10"
    spec_path, out_path = tmp_path / "grid.json", tmp_path / "results.jsonl"
    spec_path.write_text(json.dumps({**_GOOD_SPEC, "budgets": {"digit_budget": "abc"}}))
    code, out, err = run(capsys, "sweep", str(spec_path), "-o", str(out_path))
    assert (code, out, err) == (2, "", "error: budget digit_budget must be an integer: 'abc'\n")
    assert not out_path.exists()
    monkeypatch.setenv("ZSIG_DIGIT_BUDGET", "abc")
    code, out, err = run(capsys, "orbit", "--coeffs", "1,0,1", "-N", "3")
    assert (code, out, err) == (2, "", "error: ZSIG_DIGIT_BUDGET must be an integer: 'abc'\n")


def test_verify_ezsig_prints_its_default_n_max(capsys):
    # the default resolves where it is read, so an unread --n-max stays None
    code, out, _ = run(capsys, "verify", "ezsig", "--d", "3", "--format", "json")
    assert code == 0 and json.loads(out)["n_max"] == 10_000


def test_readme_knob_table_matches_the_parser():
    lines = README.read_text().splitlines()
    start = lines.index("| flag | variable | orbit | zsig | bound | verify | sweep |")
    commands = [cell.strip() for cell in lines[start].strip("|").split("|")][2:]
    documented, variables = {command: set() for command in commands}, {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        flag, variable, *marks = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        variables[flag] = variable
        for command, mark in zip(commands, marks, strict=True):
            assert mark in ("", "✓")
            if mark:
                documented[command].add(flag)
    assert documented == {command: set(flags) for command, flags in _KNOB_FLAGS.items()}
    dests = {flag: dest for flags in _KNOB_FLAGS.values() for flag, dest in flags.items()}
    assert variables == {flag: env_name(dest) for flag, dest in dests.items()}
    assert sum(map(len, _KNOB_FLAGS.values())) == 14


def test_python_dash_m_entry_points(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for module in ("zsig", "zsig.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "orbit", "--coeffs", "1,0,1", "-N", "6"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "458330" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "zsig", "orbit", "--coeffs", "-1,0,1", "-N", "5"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 4


def test_python_dash_m_zsig_cli_prints_what_python_dash_m_zsig_prints(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = [
        subprocess.run(
            [sys.executable, "-m", module, "orbit", "--coeffs", "3,0,1", "-N", "3"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        for module in ("zsig", "zsig.cli")
    ]
    (code, out, err), cli = [(run.returncode, run.stdout, run.stderr) for run in runs]
    assert (code, err) == (0, "") and "147" in out
    assert cli == (code, out, err)


def test_import_loads_no_process_pool(tmp_path):
    # the pool forks its own children: neither the CLI nor a pooled sweep
    # loads concurrent.futures or multiprocessing
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({"family": "z^d+c", "d": [3], "c": ["5/2", "7/2"], "horizon": 4}))
    code = (
        "import sys\n"
        "from zsig.cli import main\n"
        "executors = ('concurrent.futures', 'multiprocessing')\n"
        "print([m for m in executors if m in sys.modules])\n"
        f"print(main(['sweep', {str(spec)!r}, '-o', 'out.jsonl', '--workers', '2']))\n"
        "print([m for m in executors if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["0", "[]"] and proc.stdout.startswith("[]\n")


# Run by the interpreter at start-up, from the front of PYTHONPATH: each raises
# a KeyboardInterrupt while zsig.verifiers imports, before main can catch one.
_IMPORT_INTERRUPTS = {
    "at-import": (
        "import sys\n"
        "class Interrupt:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'zsig.verifiers':\n"
        "            raise KeyboardInterrupt\n"
        "sys.meta_path.insert(0, Interrupt())\n"
    ),
    # inside the code that namedtuple runs with eval() to build a record's
    # __new__: under python -m, CPython then ends the process by SIGINT at
    # exit unless that is blocked
    "in-exec": (
        "import sys\n"
        "def interrupt(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_filename == '<string>' \\\n"
        "            and 'zsig.verifiers' in sys.modules:\n"
        "        sys.setprofile(None)\n"
        "        raise KeyboardInterrupt\n"
        "sys.setprofile(interrupt)\n"
    ),
}


@pytest.mark.parametrize("launch", [
    ["-m", "zsig"],
    ["-c", "from zsig.__main__ import entry; entry()"],  # what the zsig script runs
], ids=["python-m-zsig", "zsig-script"])
@pytest.mark.parametrize("interrupt", sorted(_IMPORT_INTERRUPTS))
def test_ctrl_c_while_the_cli_loads_exits_130(tmp_path, launch, interrupt):
    (tmp_path / "sitecustomize.py").write_text(_IMPORT_INTERRUPTS[interrupt])
    proc = subprocess.run(
        [sys.executable, *launch, "orbit", "--coeffs", "1,0,1", "-N", "3"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(SRC)])),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "interrupted\n")


def test_import_leaves_int_str_limit_alone(tmp_path):
    # the CLI raises the interpreter's int->str digit limit; importing the
    # package must not
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys\n"
        "default = sys.get_int_max_str_digits()\n"
        "import zsig, zsig.reports, zsig.cli\n"
        "assert sys.get_int_max_str_digits() == default, sys.get_int_max_str_digits()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_digit_budget_raises_the_int_str_limit(capsys):
    before = sys.get_int_max_str_digits()
    try:
        code, _, _ = run(
            capsys, "orbit", "--coeffs", "1,0,1", "-N", "3", "--digit-budget", "500000"
        )
        assert code == 0
        assert sys.get_int_max_str_digits() >= 500_000
    finally:
        sys.set_int_max_str_digits(before)


def test_fresh_process_prints_a_long_numerator(tmp_path):
    # B_15 = 2^16384 has 4933 digits, past the interpreter's default limit
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "zsig", "orbit", "--coeffs", "1/2,0,1", "-N", "15",
         "--format", "json"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout)["orbit"]["entries"][-1]
    assert last["n"] == 15 and int(last["B"]) == 2**16384


@pytest.mark.parametrize("how", ["flag", "env"])
def test_digit_budget_past_a_c_int_runs(capsys, monkeypatch, how):
    # sys.set_int_max_str_digits takes a C int: the guard stops at 2^31 - 1
    argv = ["orbit", "--poly", "z^2+1", "-N", "3"]
    before = sys.get_int_max_str_digits()
    try:
        default = run(capsys, *argv)
        if how == "flag":
            argv += ["--digit-budget", "2147483648"]
        else:
            monkeypatch.setenv("ZSIG_DIGIT_BUDGET", "2147483648")
        assert run(capsys, *argv) == default
        assert default[0] == 0
        assert sys.get_int_max_str_digits() == 2**31 - 1
    finally:
        sys.set_int_max_str_digits(before)


def test_sweep_runs_a_budget_pin_past_ssize_t(tmp_path, capsys):
    # the pinned budget's bit count once came from a range of 4 * 10^23 items
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({**_GOOD_SPEC, "budgets": {"digit_budget": 10**23}}))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(_GOOD_SPEC))
    for spec in (pinned, plain):
        out = spec.with_suffix(".jsonl")
        assert run(capsys, "sweep", str(spec), "-o", str(out), *FAST)[0] == 0
    assert pinned.with_suffix(".jsonl").read_bytes() == plain.with_suffix(".jsonl").read_bytes()


def test_orbit_whose_top_terms_cancel_prints_as_before(capsys):
    # f(3) = 3^d - 3 * 3^(d-1) + 3 = 3 at d = 10^7: evaluate skips 3^(10^7)
    code, out, err = run(capsys, "orbit", "--poly", "z^10000000-3z^9999999+3", "-N", "3")
    assert (code, out, err) == (4, "preperiodic: 0 -> 3 -> 3\n", "")


# 1520 points, about a second of work
_CTRL_C_SPEC = {
    "family": "z^d+c", "d": [3, 4], "c_grid": {"num": [-100, 100], "den": [1, 6]}, "horizon": 5,
}


def _default_sigint():
    """The ``preexec_fn`` of a child that a test Ctrl-Cs: SIGINT takes its
    default action there, even where the suite itself was started with it
    ignored (a shell's ``&`` or ``nohup``) and the child would inherit that."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_interrupted_by_ctrl_c_exits_130_and_resumes(tmp_path, workers):
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps(_CTRL_C_SPEC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def sweep(out, **kwargs):
        argv = [sys.executable, "-m", "zsig", "sweep", str(spec), "-o", str(out), *FAST,
                "--workers", workers]
        return subprocess.Popen(argv, env=env, cwd=tmp_path, text=True,
                                preexec_fn=_default_sigint,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)

    out = tmp_path / "interrupted.jsonl"
    # a Ctrl-C signals the whole process group, pool workers included
    proc = sweep(out, start_new_session=True)
    deadline = time.monotonic() + 60
    while not (out.exists() and b"\n" in out.read_bytes()) and time.monotonic() < deadline:
        time.sleep(0.005)
    os.killpg(proc.pid, signal.SIGINT)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 130
    assert err == f"interrupted; rerun the same sweep to resume {out}\n"
    assert len(out.read_bytes().splitlines()) < 1520  # stopped before the end

    resumed = sweep(out)
    assert resumed.communicate(timeout=120)[0] == f"sweep complete: 1520 points in {out}\n"
    clean = tmp_path / "clean.jsonl"
    assert sweep(clean).wait(timeout=120) == 0
    assert out.read_bytes() == clean.read_bytes()


# Run by the interpreter at start-up: two usable CPUs, and a log line for each
# child the parent forks and for each one it reaps.
_LOGGED_POOL = (
    "import os\n"
    "fork, waitpid = os.fork, os.waitpid\n"
    "def log(line):\n"
    "    with open('pool.log', 'a') as out:\n"
    "        out.write(line + '\\n')\n"
    "def logged_fork():\n"
    "    pid = fork()\n"
    "    if pid:\n"
    "        log(f'fork {pid}')\n"
    "    return pid\n"
    "def logged_waitpid(pid, options):\n"
    "    result = waitpid(pid, options)\n"
    "    log(f'reap {pid}')\n"
    "    return result\n"
    "os.fork, os.waitpid = logged_fork, logged_waitpid\n"
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_zsig_interrupted_by_ctrl_c_exits_130_and_reaps_its_pool(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(_LOGGED_POOL)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(SRC)]))
    log = tmp_path / "pool.log"
    # six stripped parts of at least 10^12, about 2 s of rho in all
    argv = [sys.executable, "-m", "zsig", "zsig", "--coeffs", "5/2,0,1,0,1", "-N", "9",
            "--workers", "2"]
    # a Ctrl-C signals the whole process group, pool children included
    proc = subprocess.Popen(argv, env=env, cwd=tmp_path, text=True, start_new_session=True,
                            preexec_fn=_default_sigint,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 60
    while not (log.exists() and log.read_text().count("fork") == 2):
        assert time.monotonic() < deadline and proc.poll() is None, "no pool started"
        time.sleep(0.005)
    os.killpg(proc.pid, signal.SIGINT)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out, err) == (130, "", "interrupted\n")
    events = [line.split() for line in log.read_text().splitlines()]
    forked = sorted(pid for event, pid in events if event == "fork")
    assert len(forked) == 2 and sorted(pid for event, pid in events if event == "reap") == forked


@pytest.mark.exhaustive
@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_ctrl_c_at_seeded_moments_never_hangs_or_prints_a_traceback(tmp_path):
    # 120 Ctrl-Cs to a pooled sweep's process group, from the time an empty
    # interpreter takes to start and exit, to past the end of the run.  One
    # that lands earlier, before the interpreter has installed its handler or
    # run site, kills the process by the signal or prints a traceback from
    # site: no code of the program has run yet.
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps(_CTRL_C_SPEC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def sweep(out):
        argv = [sys.executable, "-m", "zsig", "sweep", str(spec), "-o", str(out), *FAST,
                "--workers", "2"]
        return subprocess.Popen(argv, env=env, cwd=tmp_path, text=True, start_new_session=True,
                                preexec_fn=_default_sigint,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=120)
    floor = time.monotonic() - start
    clean = tmp_path / "clean.jsonl"
    start = time.monotonic()
    assert sweep(clean).wait(timeout=120) == 0
    length, rng = time.monotonic() - start, random.Random(0)
    for i in range(120):
        out = tmp_path / f"run{i}.jsonl"
        proc = sweep(out)
        time.sleep(rng.uniform(floor, 1.2 * length))
        os.killpg(proc.pid, signal.SIGINT)
        try:
            stdout, err = proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"run {i} hung")
        assert "Traceback" not in err, (i, err)
        finished = stdout.startswith("sweep complete")
        assert proc.returncode in (0, 130) or (proc.returncode == -signal.SIGINT and finished), (
            i, proc.returncode, stdout, err,
        )
        resumed = sweep(out)
        assert resumed.communicate(timeout=120)[0] == f"sweep complete: 1520 points in {out}\n"
        assert out.read_bytes() == clean.read_bytes(), i
