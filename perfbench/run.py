"""zsig benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload grid_deep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; zsig is imported from ./src.

``--trace 0`` times whole passes in fresh processes, as a user runs them,
and prints the end-to-end metrics of BENCHMARK.json: setup_s (median of
several cold starts: import zsig plus the first factor() call on a >64-bit
input, which builds the 10^6 sieve and primorial), and the median over
passes of wall_s, cpu_s and peak_rss_mb.  Passes repeat while the next one
is predicted to end within ``--seconds``; there is always at least one.
cpu_s and peak_rss_mb come from os.wait4, so they cover the pass's whole
process tree; peak_rss_mb is the largest single process in it.

``--trace 1`` runs one pass in this process through zsig.cli.main without
tracing, then one with a span around every call into zsig's modules, and
prints the per-layer metrics of BENCHMARK.json.  Both use one worker, since
spans recorded inside pool workers never reach this process.
trace.overhead_s is the traced pass's wall time minus the untraced one's,
and trace.residue_s the traced wall time no layer's self time accounts for.
verifiers.pool.busy_ratio is cpu / (workers * wall) of an untraced pass:
a fresh-process pool pass on grid_wide, the in-process pass elsewhere.
Spans are written to perfbench/_out/.

Every pass is checked: seed 0 against the sha256 digests in digests.json,
every seed against rules that hold for any input.  The last line of stdout
is the JSON result; the exit code is 1 if any operation failed and 2 if
the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

DIGESTS = HERE / "digests.json"
LAUNCH = "import sys; from zsig.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = (
    "import sys, zsig; r = zsig.factor(3 ** 45); "
    "sys.exit(0 if r.factored == ((3, 45),) else 1)"
)
# Cold starts per run, split around the passes so drift within the run
# shows in both halves; the reported setup_s is their median.
SETUP_LAUNCHES = 9
# Every run must end well inside three minutes; a child past this is killed.
RUN_DEADLINE_S = 165.0
GRID_WIDE_WORKERS = min(2, os.cpu_count() or 1)


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong output)."""


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stdout: bytes


@dataclass
class Pass:
    wall: float
    cpu: float
    rss_mb: float
    attempted: int
    problems: list[str] = field(default_factory=list)
    out_bytes: int = 0

    @property
    def failed(self) -> int:
        return min(len(self.problems), self.attempted)


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def remaining(self) -> float:
        return self.end - time.perf_counter()

    def left(self) -> float:
        """Time left for the next child; BenchError once none is."""
        left = self.remaining()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZSIG_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(code_and_args: list[str], cwd: Path, timeout: float) -> Child:
    """Run ``python -c`` in its own process group and reap it with wait4.

    On timeout the whole group (pool workers included) is killed and the
    exit code reads -9.
    """
    with open(cwd / "stdout", "w+b") as out, open(cwd / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", *code_and_args], stdout=out, stderr=err,
            cwd=cwd, env=_child_env(), start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read()[-2000:].decode(errors="replace"))
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, stdout)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def load_expected(workload: str, seed: int):
    """Recorded seed-0 outputs; grid_deep's inputs do not depend on the seed."""
    if seed != 0 and workload != "grid_deep":
        return None
    try:
        return json.loads(DIGESTS.read_text())[workload]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no recorded digests for {workload}: {exc}") from exc


# ---- one pass in fresh processes ---------------------------------------------


def sweep_child(spec_path: Path, workers: int, work: Path, timeout: float) -> tuple[Child, bytes]:
    out = work / "out.jsonl"
    out.unlink(missing_ok=True)
    child = run_child(
        [LAUNCH, "sweep", str(spec_path), "-o", str(out), "--workers", str(workers)],
        work, timeout,
    )
    return child, out.read_bytes() if out.exists() else b""


def fresh_pass(workload: str, inputs, expected, work: Path, deadline: Deadline) -> Pass:
    if workload == "cli_points":
        walls, cpu, rss, problems = 0.0, 0.0, 0.0, []
        for i, argv in enumerate(inputs):
            child = run_child([LAUNCH, *argv], work, deadline.left())
            walls += child.wall
            cpu += child.cpu
            rss = max(rss, child.rss_mb)
            problem = wl.check_cli(argv, child.stdout, child.exit_code,
                                   expected[i] if expected else None)
            if problem:
                problems.append(f"{' '.join(argv)}: {problem}")
        return Pass(walls, cpu, rss, len(inputs), problems)
    spec_path, points = inputs
    workers = GRID_WIDE_WORKERS if workload == "grid_wide" else 1
    child, data = sweep_child(spec_path, workers, work, deadline.left())
    problems = wl.check_sweep(data, child.exit_code, points, expected)
    return Pass(child.wall, child.cpu, child.rss_mb, len(points), problems)


def measure_setup(launches: int, work: Path, deadline: Deadline) -> list[float]:
    times = []
    for _ in range(launches):
        child = run_child([SETUP], work, deadline.left())
        if child.exit_code != 0:
            raise BenchError(f"cold start of zsig failed with exit code {child.exit_code}")
        times.append(child.wall)
    return times


def prepare_inputs(workload: str, seed: int, work: Path):
    if workload == "cli_points":
        return wl.cli_commands(seed)
    spec = wl.grid_spec(workload, seed)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return spec_path, wl.grid_points(spec)


def timed_run(args, inputs, expected, work: Path, deadline: Deadline):
    measure_setup(1, work, deadline)  # warms the bytecode cache; not counted
    setup = measure_setup(SETUP_LAUNCHES // 2, work, deadline)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(fresh_pass(args.workload, inputs, expected, work, deadline))
        elapsed, last = time.perf_counter() - start, passes[-1].wall
        # another pass must end within --seconds and leave time for the cold starts
        if elapsed + last > args.seconds or last + 15 > deadline.remaining():
            break
    setup += measure_setup(SETUP_LAUNCHES - len(setup), work, deadline)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    info = {
        "setup_s": setup,
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb} for p in passes],
        "timing": f"median of {len(passes)} passes; setup median of {len(setup)} cold starts",
    }
    return passes, metrics, info


# ---- traced run, in this process -----------------------------------------------


def _main_in_process(argv: list[str], stdout: io.StringIO) -> int:
    """zsig.cli.main as the tracer sees it; a crash counts as a failed op."""
    try:
        with redirect_stdout(stdout):
            return sys.modules["zsig.cli"].main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def inprocess_pass(workload: str, inputs, expected, work: Path) -> Pass:
    if workload == "cli_points":
        wall = cpu = 0.0
        out_bytes, problems = 0, []
        for i, argv in enumerate(inputs):
            buf = io.StringIO()
            t0, c0 = time.perf_counter(), time.process_time()
            code = _main_in_process(list(argv), buf)
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            stdout = buf.getvalue().encode()
            out_bytes += len(stdout)
            problem = wl.check_cli(argv, stdout, code, expected[i] if expected else None)
            if problem:
                problems.append(f"{' '.join(argv)}: {problem}")
        return Pass(wall, cpu, 0.0, len(inputs), problems, out_bytes)
    spec_path, points = inputs
    out = work / "out.jsonl"
    out.unlink(missing_ok=True)
    buf = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    code = _main_in_process(["sweep", str(spec_path), "-o", str(out), "--workers", "1"], buf)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    data = out.read_bytes() if out.exists() else b""
    problems = wl.check_sweep(data, code, points, expected)
    return Pass(wall, cpu, 0.0, len(points), problems, len(data) + len(buf.getvalue().encode()))


def import_zsig():
    sys.path.insert(0, str(SRC))
    for name in [n for n in os.environ if n.startswith("ZSIG_")]:
        del os.environ[name]
    import zsig
    import zsig.cli  # noqa: F401  (wrapped by the tracer)

    if not Path(zsig.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported zsig from {zsig.__file__}, not from {SRC}")
    return zsig


def traced_run(args, inputs, expected, work: Path, deadline: Deadline):
    zsig = import_zsig()
    zsig.factor(3 ** 45)  # build the sieve and primorial before either pass
    passes, notes = [], []
    busy = None
    if args.workload == "grid_wide":
        pool = fresh_pass(args.workload, inputs, expected, work, deadline)
        passes.append(pool)
        busy = pool.cpu / (GRID_WIDE_WORKERS * pool.wall)
        notes.append(
            f"traced pass ran with 1 worker: spans recorded inside pool workers never "
            f"reach the parent; busy_ratio is from an untraced {GRID_WIDE_WORKERS}-worker pass"
        )
    untraced = inprocess_pass(args.workload, inputs, expected, work)
    passes.append(untraced)
    if busy is None:
        busy = untraced.cpu / untraced.wall
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = inprocess_pass(args.workload, inputs, expected, work)
    finally:
        tracer.uninstall()
    passes.append(traced)

    metrics = tracing.aggregate(tracer.spans)
    accounted = sum(metrics[f"self_s.{name}"] for name in tracing.LAYERS)
    metrics.update({
        "verifiers.pool.busy_ratio": busy,
        "cli.out_bytes": traced.out_bytes,
        "trace.wall_s": traced.wall,
        "trace.untraced_wall_s": untraced.wall,
        "trace.overhead_s": traced.wall - untraced.wall,
        "trace.residue_s": traced.wall - accounted,
        "fail_frac": sum(p.failed for p in passes) / sum(p.attempted for p in passes),
    })

    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "notes": notes,
        "fields": ["name", "start", "end", "parent", "attrs"], "spans": tracer.spans,
    }))
    info = {"notes": notes, "trace_file": str(trace_path.relative_to(ROOT))}
    return passes, metrics, info


# ---- entry point ---------------------------------------------------------------


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"cannot read metric units from BENCHMARK.json: {exc}") from exc


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "zsig" / "cli.py").is_file():
        print(f"error: no zsig sources under {SRC}", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_DEADLINE_S)
    env = {
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(), "commit": git_commit(),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
    }
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        units = declared_units(args.trace)
        expected = load_expected(args.workload, args.seed)
        inputs = prepare_inputs(args.workload, args.seed, work)
        run = traced_run if args.trace else timed_run
        passes, metrics, info = run(args, inputs, expected, work, deadline)
        if set(metrics) != set(units):
            raise BenchError("metrics out of step with BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still works there
            pass
    env["loadavg_end"] = os.getloadavg()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in [q for p in passes for q in p.problems][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"env": env, **info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
