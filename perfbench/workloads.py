"""The benchmark's workloads: inputs drawn from a seed, and output checks.

Seed 0 gives the canonical inputs: the README grid at horizon 10, a
564-point grid over num in [-13, 13], den in [1, 5], and four CLI commands.
Other seeds keep each workload's shape and size and draw new constants.
``RunConfig.seed`` is never varied; the program sees only specs and argv.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("grid_deep", "grid_wide", "cli_points")

GRID_DEEP_SPEC = {
    "family": "z^d+z^e+c",
    "d": [3, 4, 5],
    "e": [2, 3],
    "c": ["5/2", "-3/2"],
    "horizon": 10,
    "budgets": {"factor_rho_budget": 200000},
}

GRID_WIDE_SEED0_SPEC = {
    "family": "z^d+z^e+c",
    "d": [3, 4, 5],
    "e": [2, 3, 4],
    "c_grid": {"num": [-13, 13], "den": [1, 5]},
    "horizon": 6,
    "budgets": {"factor_rho_budget": 200000},
}

# Other seeds draw the constants of the wide grid from this larger box,
# keeping the seed-0 count of 94 constants x 6 (d, e) pairs = 564 points.
WIDE_DRAW_NUM = (-20, 20)
WIDE_DRAW_DEN = (1, 8)
WIDE_DRAW_COUNT = 94

CLI_NUMERATOR_SPREAD = 4


def lowest_terms_grid(num: tuple[int, int], den: tuple[int, int]) -> list[Fraction]:
    """Nonzero lowest-terms fractions, denominator-major: the order the
    sweep engine expands a ``c_grid`` in."""
    out = []
    for q in range(den[0], den[1] + 1):
        for p in range(num[0], num[1] + 1):
            c = Fraction(p, q)
            if p != 0 and c.denominator == q:
                out.append(c)
    return out


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def grid_spec(workload: str, seed: int) -> dict:
    if workload == "grid_deep":
        return dict(GRID_DEEP_SPEC)
    if seed == 0:
        return dict(GRID_WIDE_SEED0_SPEC)
    pool = lowest_terms_grid(WIDE_DRAW_NUM, WIDE_DRAW_DEN)
    drawn = set(_rng(workload, seed).sample(pool, WIDE_DRAW_COUNT))
    spec = {k: v for k, v in GRID_WIDE_SEED0_SPEC.items() if k != "c_grid"}
    spec["c"] = [str(c) for c in pool if c in drawn]
    return spec


def grid_points(spec: dict) -> list[tuple[int, int, Fraction]]:
    """(d, e, c) in the order the sweep writes its records."""
    cs = [Fraction(c) for c in spec.get("c", [])]
    if "c_grid" in spec:
        cs += lowest_terms_grid(tuple(spec["c_grid"]["num"]), tuple(spec["c_grid"]["den"]))
    return [(d, e, c) for d in spec["d"] for e in spec["e"] if 2 <= e < d for c in cs]


@dataclass(frozen=True)
class CliShape:
    """One CLI command with its constant left open.

    ``coeffs`` maps the constant to the ascending coefficients of the
    polynomial the command iterates; ``hypothesis`` is the claim's condition
    on the constant, which every drawn constant must keep.
    """

    argv: Callable[[str], list[str]]
    c0: Fraction
    coeffs: Callable[[Fraction], tuple[Fraction, ...]]
    hypothesis: Callable[[Fraction], bool]


def _quartic(c: Fraction) -> tuple[Fraction, ...]:
    return (c, Fraction(0), Fraction(1), Fraction(0), Fraction(1))


CLI_SHAPES = (
    # z^2 + c: no claim, only a wandering orbit is required
    CliShape(
        lambda c: ["zsig", "--coeffs", f"{c},0,1", "-N", "12", "--format", "json"],
        Fraction(1),
        lambda c: (c, Fraction(0), Fraction(1)),
        lambda c: True,
    ),
    # z^3 + c under Cor 1.2: non-integer c with |c| > 2^(3/2)
    CliShape(
        lambda c: ["zsig", "--coeffs", f"{c},0,0,1", "-N", "9", "--format", "json"],
        Fraction(7, 2),
        lambda c: (c, Fraction(0), Fraction(0), Fraction(1)),
        lambda c: c.denominator > 1 and c * c > 8,
    ),
    # z^4 + z^2 + c under Thm 1.3: |c| > 2
    CliShape(
        lambda c: ["zsig", "--coeffs", f"{c},0,1,0,1", "-N", "9", "--format", "json"],
        Fraction(5, 2),
        _quartic,
        lambda c: abs(c) > 2,
    ),
    CliShape(
        lambda c: ["verify", "thm13", "--d", "4", "--e", "2", "--c", str(c), "--format", "json"],
        Fraction(5, 2),
        _quartic,
        lambda c: abs(c) > 2,
    ),
)


def _wanders(coeffs: tuple[Fraction, ...], steps: int = 8) -> bool:
    """No return to 0 or to an earlier value within ``steps`` iterates."""
    seen = {Fraction(0)}
    x = Fraction(0)
    for _ in range(steps):
        acc = Fraction(0)
        for a in reversed(coeffs):
            acc = acc * x + a
        x = acc
        if x in seen:
            return False
        seen.add(x)
    return True


def cli_candidates(shape: CliShape) -> list[Fraction]:
    """Constants with the seed-0 denominator and a numerator within
    CLI_NUMERATOR_SPREAD of it that keep the hypothesis and a wandering orbit."""
    p0, q = shape.c0.numerator, shape.c0.denominator
    out = []
    for p in range(p0 - CLI_NUMERATOR_SPREAD, p0 + CLI_NUMERATOR_SPREAD + 1):
        c = Fraction(p, q)
        if p != 0 and c.denominator == q and shape.hypothesis(c) and _wanders(shape.coeffs(c)):
            out.append(c)
    return out


def cli_commands(seed: int) -> list[list[str]]:
    """Seed 0 runs each shape at its own constant; other seeds change it."""
    if seed == 0:
        return [shape.argv(shape.c0) for shape in CLI_SHAPES]
    rng = _rng("cli_points", seed)
    return [
        shape.argv(rng.choice([c for c in cli_candidates(shape) if c != shape.c0]))
        for shape in CLI_SHAPES
    ]


# ---- output checks ---------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_digest(data: bytes) -> dict:
    return {"file": sha256(data), "lines": [sha256(line) for line in data.splitlines()]}


def check_sweep(
    data: bytes, exit_code: int, points: list[tuple[int, int, Fraction]],
    expected: dict | None,
) -> list[str]:
    """One problem string per failed grid point (empty: all correct).

    Rules for any seed: exit code 0, one record per grid point in grid
    order, every verdict consistent.  With ``expected`` digests (seed 0)
    every line must also match byte for byte.
    """
    if exit_code != 0:
        return [f"sweep exit code {exit_code}"] * len(points)
    lines = data.splitlines()
    problems = []
    for i, point in enumerate(points):
        if i >= len(lines):
            problems.append(f"point {i}: no record")
            continue
        problem = _check_record(lines[i], point)
        if problem is None and expected is not None:
            if i >= len(expected["lines"]) or sha256(lines[i]) != expected["lines"][i]:
                problem = "bytes differ from the recorded output"
        if problem is not None:
            problems.append(f"point {i}: {problem}")
    extra = len(lines) - len(points)
    if extra > 0 or not data.endswith(b"\n"):
        problems.append(f"{max(extra, 0)} extra lines or a torn last line")
    elif expected is not None and not problems and sha256(data) != expected["file"]:
        problems.append("file bytes differ from the recorded output")
    return problems


def _check_record(line: bytes, point: tuple[int, int, Fraction]) -> str | None:
    d, e, c = point
    try:
        record = json.loads(line)
    except ValueError:
        return "record is not JSON"
    if not str(record.get("key", "")).endswith(f":d={d}:e={e}:c={c}"):
        return f"key {record.get('key')!r} out of grid order"
    if record.get("consistent") is not True:
        return "inconsistent verdict"
    return None


def check_cli(argv: list[str], stdout: bytes, exit_code: int, expected: dict | None) -> str | None:
    """The problem with one CLI command's result, or None if it is correct."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if expected is not None:
        if expected["argv"] != argv or expected["exit"] != exit_code:
            return "command differs from the recorded one"
        if sha256(stdout) != expected["stdout"]:
            return "stdout differs from the recorded output"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON object"
    if argv[0] == "verify":
        if payload.get("hypothesis_ok") is not True or payload.get("consistent") is not True:
            return "verdict not consistent under the hypothesis"
        return None
    report = payload.get("report", {})
    per_index = report.get("per_index", [])
    if report.get("horizon") != int(argv[argv.index("-N") + 1]) or len(per_index) != report["horizon"]:
        return "report does not reach the requested horizon"
    if report.get("elements") != [v["n"] for v in per_index if not v["has_primitive"]]:
        return "elements disagree with the per-index verdicts"
    return None
