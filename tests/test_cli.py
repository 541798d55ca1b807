import argparse
import csv
import io
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from zsig import reports, verifiers
from zsig.cli import build_parser, main
from zsig.config import RunConfig, env_name
from zsig.verifiers import SweepSpec, TheoremVerdict, run_sweep
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
    """Every dataclass field of obj is a key of data (or of its renamed keys)."""
    return all(set(renamed.get(f.name, (f.name,))) <= data.keys() for f in fields(obj))


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

    # the dataclasses without big integers are their own JSON view
    gc = global_C(f)
    data = encode(vars, gc)
    assert _covers_fields(gc, data)
    assert gc.nonarch_contribs
    assert {int(p): v for p, v in data["nonarch_contribs"].items()} == gc.nonarch_contribs

    br = theorem1_bound(f, 0.5, 1.0)
    assert encode(vars, br) == vars(br)

    spec = SweepSpec.from_dict({"family": "z^d+c", "d": [3], "c": ["7/2"], "horizon": 6})
    verdict = run_sweep(spec, LEAN)[0]
    assert encode(vars, verdict) == vars(verdict)


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
])
def test_sweep_rejects_malformed_resume_record(tmp_path, capsys, line):
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(_GOOD_SPEC))
    out_path = tmp_path / "results.jsonl"
    out_path.write_bytes(line + b"\n" + _PARTIAL)
    _assert_sweep_usage_error(capsys, spec_path, out_path, line + b"\n" + _PARTIAL)


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
    knobs = {f.name for f in fields(RunConfig)}
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
    assert sum(map(len, _KNOB_FLAGS.values())) == 13


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


def test_import_loads_no_process_pool(tmp_path):
    # only a sweep over more than one worker needs concurrent.futures
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import zsig.cli, sys; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit before 3.11"
)
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


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit before 3.11"
)
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


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit before 3.11"
)
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


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_interrupted_by_ctrl_c_exits_130_and_resumes(tmp_path, workers):
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({
        "family": "z^d+c", "d": [3, 4], "c_grid": {"num": [-100, 100], "den": [1, 6]},
        "horizon": 5,
    }))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def sweep(out, **kwargs):
        argv = [sys.executable, "-m", "zsig", "sweep", str(spec), "-o", str(out), *FAST,
                "--workers", workers]
        return subprocess.Popen(argv, env=env, cwd=tmp_path, text=True,
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
