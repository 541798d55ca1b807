"""Every function in ``src/zsig`` is run by the product's traffic, or is
listed in ``ALLOWLIST`` with the reason it is kept.

The traffic is what the goldens and the benchmark run: every argv of
``golden_verify.json`` and ``golden_cli.json``, the three golden sweeps and
the benchmark's ``grid_deep`` and ``grid_wide`` specs at seed 0, all serial
and in one process under ``sys.setprofile``, then the binomial golden sweep
at ``--workers 2`` with at least two usable CPUs, so that the parent side of
the pool runs on any machine.  A function is named ``module.qualname``
(``co_qualname``), with ``#k`` on the k-th, in source order, of several that
share a qualname.  Module and class bodies, and the comprehensions they run
at import, are out of scope, and so is a function inside one that is not
entered: it cannot be, and the entry of the outer one covers it.

The test fails on a function that is neither entered nor listed, and on a
listed name that is entered or no longer exists.  The audit runs in a fresh
interpreter, so no cache that an earlier test filled hides a call.  To see
each unreached function with its reason, and each stale entry:

    PYTHONPATH=src python -m tests.test_reach
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zsig"

_API = "library API (zsig.__all__)"
_CHILD = "runs only in a forked pool child, out of the parent's profile"

# The reason each function the traffic never enters is kept.
ALLOWLIST: dict[str, str] = {
    "__init__.__getattr__": "the lazy namespace of `import zsig`; the CLI imports "
    "the modules; tests/test_package.py::test_every_public_name_is_its_defining_modules_object",
    "__init__.__dir__": "dir(zsig) lists the lazy names; "
    "tests/test_package.py::test_every_public_name_is_its_defining_modules_object",
    "__main__.entry": "the `zsig` script and `python -m zsig`, where the traffic calls "
    "cli.main; tests/test_cli.py::test_python_dash_m_entry_points",
    "heights.HeightInterval.width": "read by "
    "tests/test_acceptance.py::test_criterion_08_height_machinery",
    "heights.HeightInterval.midpoint": "read by "
    "tests/test_acceptance.py::test_criterion_08_height_machinery",
    "heights.lemma41_lower_bound": f"{_API}; "
    "tests/test_acceptance.py::test_criterion_08_height_machinery",
    "heights.trinomial_D_lower": f"{_API}, the D of lemma41_lower_bound; "
    "tests/test_acceptance.py::test_criterion_08_height_machinery",
    "orbits.PendingEntry.<lambda>#1": "PendingEntry.value builds an unbuilt iterate, which "
    "no golden or grid point reads; "
    "tests/test_last_index.py::test_budget_boundary_with_an_unbuilt_predecessor",
    "pool._serve": f"a pool child's whole life; {_CHILD}; "
    "tests/test_golden.py::test_pooled_sweep_bytes_match_golden",
    "verifiers.SweepSpec.points": "the sweep's grid as a list; "
    "perfbench/tests/test_perfbench.py::test_grid_order_matches_the_sweep_engine",
    "verifiers.run_sweep": f"{_API}: the in-process sweep; "
    "tests/test_verifiers.py::test_run_sweep_orders_and_dispatches",
    "zsigmondy.zsigmondy_report_from_entries.<locals>.<genexpr>#2": "the exempt primes "
    "when no polynomial is known (L = 0), which every product caller knows; "
    "tests/test_zsigmondy.py::test_primitive_verdict_stripping",
    "zsigmondy.verify_rigid_divisibility": f"{_API}; runs only where the valuation law "
    "fails, at no golden or grid point; a perfbench/tracing.py target; "
    "tests/test_zsigmondy.py::test_verdict_only_report_falls_back_when_rigidity_breaks",
    "zsigmondy.divisor_product": "the product of check_zsigmondy_divisibility; "
    "a perfbench/tracing.py target",
    "zsigmondy.check_zsigmondy_divisibility": f"{_API}; "
    "tests/test_acceptance.py::test_criterion_03_rigid_divisibility",
}

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def functions() -> dict[str, tuple[CodeType, CodeType | None]]:
    """(code, code of the enclosing function or None) of every function in
    ``src/zsig``, by name."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        by_qualname: dict[str, list[tuple[CodeType, CodeType | None]]] = defaultdict(list)

        def walk(code: CodeType, outer: CodeType | None, in_function: bool) -> None:
            for const in code.co_consts:
                if isinstance(const, CodeType):
                    function = bool(const.co_flags & CO_NEWLOCALS)  # not a class body
                    if function and (in_function or const.co_name not in _COMPREHENSIONS):
                        by_qualname[const.co_qualname].append((const, outer))
                    walk(const, const if function else outer, function)

        walk(compile(path.read_text(), str(path), "exec"), None, False)
        for qualname, codes in by_qualname.items():
            for k, code in enumerate(codes, 1):
                found[f"{path.stem}.{qualname}" + (f"#{k}" if len(codes) > 1 else "")] = code
    return found


def traffic() -> None:
    """Run the goldens and the benchmark's grids (module docstring).  The
    imports run here as well, so a function called only at import counts."""
    from perfbench.workloads import grid_spec
    from tests.test_golden import CLI_ARGV, SWEEPS, VERIFY_ARGV, _run
    from zsig import pool

    for argv in VERIFY_ARGV + CLI_ARGV:
        _run(argv)
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, out_path = Path(tmp, "spec.json"), Path(tmp, "out.jsonl")

        def sweep(spec: dict, *flags: str) -> None:
            spec_path.write_text(json.dumps(spec))
            out_path.unlink(missing_ok=True)
            _run(["sweep", str(spec_path), "-o", str(out_path), *flags])

        for spec in [*SWEEPS.values(), grid_spec("grid_deep", 0), grid_spec("grid_wide", 0)]:
            sweep(spec)
        usable_cpus = pool.usable_cpus
        pool.usable_cpus = lambda: max(2, usable_cpus())
        try:
            sweep(SWEEPS["binomial"], "--workers", "2")
        finally:
            pool.usable_cpus = usable_cpus


def entered_by_traffic() -> set[CodeType]:
    entered: set[CodeType] = set()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        traffic()
    finally:
        sys.setprofile(None)
    return entered


def audit(entered: set[CodeType]) -> tuple[list[str], list[str], list[str]]:
    """(unreached names with their reasons, unlisted unreached names, stale
    allowlist entries), each one line per name."""
    names = functions()
    unreached, unlisted = [], []
    for name, (code, outer) in names.items():
        if code in entered or (outer is not None and outer not in entered):
            continue
        where = f"{Path(code.co_filename).name}:{code.co_firstlineno}"
        if name in ALLOWLIST:
            unreached.append(f"{name} ({where}): {ALLOWLIST[name]}")
        else:
            unlisted.append(f"{name} ({where})")
    stale = [
        f"{name}: " + ("no longer exists" if name not in names else "entered by the traffic")
        for name in ALLOWLIST
        if name not in names or names[name][0] in entered
    ]
    return unreached, unlisted, stale


def main() -> int:
    unreached, unlisted, stale = audit(entered_by_traffic())
    for title, lines in (  # the failures first
        ("unreached and not listed", unlisted),
        ("stale allowlist entries", stale),
        ("unreached, with the reason each is kept", unreached),
    ):
        print(f"{title}: {len(lines)}")
        for line in lines:
            print(f"  {line}")
    return 1 if unlisted or stale else 0


def test_every_function_is_entered_or_listed():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZSIG_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    proc = subprocess.run(
        [sys.executable, "-m", "tests.test_reach"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_a_reason_names_only_tests_that_exist():
    for name, reason in ALLOWLIST.items():
        for path, test in re.findall(r"([\w/]+\.py)::(\w+)", reason):
            assert re.search(rf"^def {test}\(", (ROOT / path).read_text(), re.M), (name, path, test)


if __name__ == "__main__":
    sys.exit(main())
