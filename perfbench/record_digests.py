"""Record the seed-0 output digests the benchmark checks against.

    python3 perfbench/record_digests.py

Run once on a commit whose outputs are known good; it rewrites
perfbench/digests.json from one fresh-process pass of each workload.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    work = run.HERE / "_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for workload in ("grid_deep", "grid_wide"):
            spec_path, points = run.prepare_inputs(workload, 0, work)
            workers = run.GRID_WIDE_WORKERS if workload == "grid_wide" else 1
            child, data = run.sweep_child(spec_path, workers, work, run.RUN_DEADLINE_S)
            problems = wl.check_sweep(data, child.exit_code, points, None)
            if problems:
                print(f"{workload}: {problems[:5]}", file=sys.stderr)
                return 1
            digests[workload] = wl.sweep_digest(data)
        digests["cli_points"] = []
        for argv in wl.cli_commands(0):
            child = run.run_child([run.LAUNCH, *argv], work, run.RUN_DEADLINE_S)
            problem = wl.check_cli(argv, child.stdout, child.exit_code, None)
            if problem:
                print(f"{' '.join(argv)}: {problem}", file=sys.stderr)
                return 1
            digests["cli_points"].append(
                {"argv": argv, "exit": child.exit_code, "stdout": wl.sha256(child.stdout)})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
