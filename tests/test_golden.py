"""Byte-for-byte regression test of sweep JSONL and CLI output.

The fixtures under ``tests/data/`` pin every claim (both cases of prop53 and
prop54), failed hypotheses, unclassified points, finite orbits, digit-budget
stops and the text/json/csv renderers of ``verify``, ``orbit``, ``zsig`` and
``bound`` (witness primality, and per-place constants at several
denominator primes).  Regenerate them only when an output change is
intended:

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from zsig import pool
from zsig.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

SWEEPS = {
    "trinomial": {
        "family": "z^d+z^e+c",
        "d": [3, 4, 5],
        "e": [2, 3, 4],
        "c": [
            "5/2", "-7/3", "3", "2", "-2", "3/2", "5/3", "1/2", "2/3",
            "-1/2", "-2/3", "-3/2", "-5/4", "1", "-1",
        ],
        "horizon": 7,
        "budgets": {"factor_rho_budget": 200000},
    },
    "binomial": {
        "family": "z^d+c",
        "d": [2, 3, 4],
        "c": ["7/2", "5/2", "-7/3", "7", "9/4", "-1", "1/2"],
        "budgets": {"factor_rho_budget": 200000},
    },
    "budget": {
        "family": "z^d+z^e+c",
        "d": [3, 4],
        "e": [2, 3],
        "c": ["5/2", "-7/3", "3/2", "1/2", "-1/2", "-3/2", "-5/4"],
        "horizon": 12,
        "budgets": {"digit_budget": 3000, "factor_rho_budget": 200000},
    },
}

_VERIFY_POINTS = [
    ["cor12", "--d", "3", "--c", "7/2"],
    ["cor12", "--d", "3", "--c", "5/2"],
    ["cor12", "--d", "3", "--c", "7"],
    ["cor12", "--d", "2", "--c", "-1"],
    ["thm13", "--d", "4", "--e", "2", "--c", "5/2", "-N", "8"],
    ["thm13", "--d", "3", "--e", "2", "--c", "-7/3"],
    ["thm13", "--d", "4", "--e", "2", "--c", "5/2", "--digit-budget", "300"],
    ["prop51", "--d", "3", "--e", "2", "--c", "3/2", "-N", "8"],
    ["prop51", "--d", "3", "--e", "2", "--c", "1"],
    ["prop52", "--d", "3", "--e", "2", "--c", "1/2"],
    ["prop52", "--d", "4", "--e", "2", "--c", "2/3", "-N", "7"],
    ["prop53", "--d", "3", "--e", "2", "--c", "-2/3"],
    ["prop53", "--d", "5", "--e", "3", "--c", "-1/2", "-N", "6"],
    ["prop53", "--d", "4", "--e", "2", "--c", "-1/2", "-N", "6"],
    ["prop54", "--d", "3", "--e", "2", "--c", "-3/2"],
    ["prop54", "--d", "4", "--e", "2", "--c", "-5/4", "-N", "7"],
    ["prop54", "--d", "4", "--e", "3", "--c", "-3/2", "-N", "6"],
]
VERIFY_ARGV = [
    ["verify", *point, "--format", fmt]
    for point in _VERIFY_POINTS
    for fmt in ("text", "json", "csv")
] + [
    ["verify", "thm13", "--d", "4", "--c", "5/2"],
    ["verify", "thm13", "--d", "2", "--e", "2", "--c", "5/2"],
    ["verify", "prop52", "--d", "3", "--e", "2"],
    ["verify", "ezsig", "--d", "3", "--n-max", "100"],
    ["verify", "ezsig", "--d", "4", "--n-max", "100", "--format", "json"],
    ["verify", "ezsig", "--d", "3", "--n-max", "-1"],
    ["verify", "ezsig", "--d", "3", "--n-max", "100", "--format", "csv"],
    ["verify", "cor12", "--d", "1000000", "--c", "7/2", "--format", "json"],
    ["verify", "thm13", "--d", "1000000", "--e", "2", "--c", "5/2", "--format", "json"],
    ["verify", "prop51", "--d", "1000000", "--e", "2", "--c", "3/2", "--format", "json"],
    ["verify", "thm13", "--d", "1000001", "--e", "2", "--c", "-5/2", "--format", "json"],
    ["verify", "prop53", "--d", "1000001", "--e", "999998", "--c", "-1/3", "--format", "json"],
    ["verify", "thm13", "--d", "1000000", "--e", "999999", "--c", "3", "--format", "json"],
    ["verify", "prop53", "--d", "1000001", "--e", "1000000", "--c", "-1/3", "--format", "json"],
    ["verify", "thm13", "--d", "4", "--e", "2", "--c", "17/2", "--digit-budget", "1", "--format", "json"],
]

_CLI_COMMANDS = [
    ["orbit", "--coeffs", "1,0,1", "-N", "6"],
    ["orbit", "--coeffs", "5/2,0,0,1", "-N", "4"],
    ["zsig", "--coeffs", "1,0,1", "-N", "6", "--rho-budget", "200000"],
    ["zsig", "--coeffs", "7/2,0,0,1", "-N", "6", "--rho-budget", "200000"],
    ["zsig", "--coeffs", "-7/3,0,1,1", "-N", "8", "--rho-budget", "200000"],
    ["zsig", "--coeffs", "3,0,1", "-N", "8", "--rho-budget", "200000"],
    ["bound", "--coeffs", "7/2,0,0,1", "--hhat", "ingram"],
    ["bound", "--coeffs", "5/2,0,1,0,1", "--hhat", "family"],
    ["bound", "--coeffs", "7/6,0,5/3,2/5", "--hhat", "telescope"],
    ["bound", "--coeffs", "1,0,1", "--hhat", "telescope"],
]
CLI_ARGV = [
    [*command, "--format", fmt]
    for command in _CLI_COMMANDS
    for fmt in ("text", "json", "csv")
] + [
    ["orbit", "--coeffs", "-1,0,1", "-N", "4"],
    ["orbit", "--coeffs", "5/2,0,0,1", "-N", "6", "--digit-budget", "30"],
    ["zsig", "--coeffs", "1,1,1", "-N", "4"],
    ["zsig", "--coeffs", "-2,0,1", "-N", "4"],
    ["orbit", "--coeffs", "-1,0,1", "-N", "4", "--format", "json"],
    ["orbit", "--coeffs", "-1,0,1", "-N", "4", "--format", "csv"],
    ["bound", "--poly", "z^1000000+z^2+5/2", "--hhat", "family", "--format", "json"],
]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def sweep_bytes(name: str, workdir: Path, *flags: str) -> bytes:
    spec_path = workdir / f"{name}.json"
    out_path = workdir / f"{name}.jsonl"
    spec_path.write_text(json.dumps(SWEEPS[name]))
    _run(["sweep", str(spec_path), "-o", str(out_path), *flags])
    return out_path.read_bytes()


def cli_cases(argvs: list[list[str]]) -> list[dict]:
    cases = []
    for argv in argvs:
        code, out = _run(argv)
        cases.append({"argv": argv, "exit": code, "stdout": out})
    return cases


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("ZSIG_"):
            monkeypatch.delenv(key)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_bytes_match_golden(name, tmp_path):
    expected = (DATA / f"golden_sweep_{name}.jsonl").read_bytes()
    assert sweep_bytes(name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_pooled_sweep_bytes_match_golden(name, tmp_path):
    expected = (DATA / f"golden_sweep_{name}.jsonl").read_bytes()
    assert sweep_bytes(name, tmp_path, "--workers", "2") == expected


def _assert_matches(fixture: str, argvs: list[list[str]]) -> None:
    expected = json.loads((DATA / fixture).read_text())
    assert [case["argv"] for case in expected] == argvs
    for got, want in zip(cli_cases(argvs), expected):
        assert got == want, want["argv"]


def test_verify_output_matches_golden():
    _assert_matches("golden_verify.json", VERIFY_ARGV)


def test_cli_output_matches_golden():
    _assert_matches("golden_cli.json", CLI_ARGV)


def test_zsig_output_is_the_same_over_the_witness_pool(monkeypatch):
    usable_cpus, imap, started = pool.usable_cpus, pool.imap, []
    monkeypatch.setattr(pool, "usable_cpus", lambda: max(2, usable_cpus()))
    monkeypatch.setattr(pool, "imap", lambda *args: started.append(args[1]) or imap(*args))
    for argv in CLI_ARGV:
        if argv[0] == "zsig":
            assert _run([*argv, "--workers", "2"]) == _run([*argv, "--workers", "1"]), argv
    assert started and set(started) == {2}


@pytest.mark.exhaustive
def test_benchmark_zsig_points_match_their_digests_over_the_witness_pool(monkeypatch):
    # the three zsig commands of perfbench's cli_points at seed 0, default budgets
    from perfbench.workloads import cli_commands

    expected = json.loads((ROOT / "perfbench" / "digests.json").read_text())["cli_points"]
    usable_cpus = pool.usable_cpus
    monkeypatch.setattr(pool, "usable_cpus", lambda: max(2, usable_cpus()))
    zsig_points = [(argv, want) for argv, want in zip(cli_commands(0), expected)
                   if argv[0] == "zsig"]
    assert len(zsig_points) == 3
    for argv, want in zsig_points:
        code, out = _run([*argv, "--workers", "2"])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want["exit"], want["stdout"])


def record() -> None:
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in SWEEPS:
            (DATA / f"golden_sweep_{name}.jsonl").write_bytes(sweep_bytes(name, Path(tmp)))
    for fixture, argvs in (("golden_verify.json", VERIFY_ARGV), ("golden_cli.json", CLI_ARGV)):
        (DATA / fixture).write_text(json.dumps(cli_cases(argvs), indent=1) + "\n")


if __name__ == "__main__":
    record()
