"""Command-line surface: orbit tables, Zsigmondy reports, height bounds,
claim verification, and reproducible JSONL sweeps.

Exit codes are a stable contract: 0 ok, 2 parse/usage error, 3 digit-budget
exhaustion, 4 finite orbit where a wandering one is required, 5 inconsistent
verdict (counterexample candidate), 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import reports
from .bounds import omega_inequality_audit, theorem1_bound
from .config import OUTPUT_FORMATS, RunConfig, config_from_env, env_name
from .heights import (
    canonical_height_interval,
    family_C,
    global_C,
    ingram_lower_bound,
    trinomial_family_lower,
)
from .orbits import DigitBudgetError, FiniteOrbitError, decimal_digits, orbit
from .polynomials import PolyQ, parse_poly, parse_rational
from .verifiers import BINOMIAL, CLAIMS, SweepSpec, iter_sweep, verify
from .zsigmondy import zsigmondy_set

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_FINITE_ORBIT = 4
EXIT_INCONSISTENT = 5
EXIT_INTERRUPTED = 130

_VALUE_FLAGS = {"--coeffs", "--poly", "--c"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join flag/value pairs whose value starts with '-' so argparse does not
    mistake "-1,0,1" or "-7/3" for an option."""
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def _elide(s: str) -> str:
    """s, or its first and last 18 characters around "..." past 40."""
    return s if len(s) <= 40 else f"{s[:18]}...{s[-18:]}"


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _emit(cfg: RunConfig, payload, text, table=None) -> None:
    """Print one result in the configured format.  The views are callables so
    only the printed one is built.  The CSV lists every leaf of ``payload()``
    unless ``table`` yields rows (header first) per orbit entry or per index:
    a report's JSON turns every stripped part into a decimal string, quadratic
    in its length, where its CSV prints only the digit count."""
    if cfg.output_format == "json":
        print(_dump_json(payload()))
    elif cfg.output_format == "csv":
        rows = table() if table else [("field", "value"), *_fields(payload())]
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        print("\n".join(text()))


def _fields(record: dict, prefix: str = ""):
    """(key, cell) for each leaf of a JSON object in key order; nested objects
    give dotted keys.  Lists print space-separated, booleans lowercase and
    None as an empty cell."""
    for key, value in record.items():
        key = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _fields(value, f"{key}.")
        elif isinstance(value, list):
            yield key, " ".join(map(str, value))
        else:
            yield key, str(value).lower() if isinstance(value, bool) else value


def _parse_target(args: argparse.Namespace) -> PolyQ:
    return parse_poly(args.coeffs if args.coeffs is not None else args.poly)


def cmd_orbit(args: argparse.Namespace, cfg: RunConfig) -> int:
    f = _parse_target(args)
    orb = orbit(f, args.N, digit_budget=cfg.digit_budget)

    def text():
        if not orb.wandering:
            yield f"preperiodic: {orb.describe_cycle()}"
            return
        yield f"orbit of 0 under {f}"
        yield f"{'n':>3}  {'digits(A)':>9}  {'digits(B)':>9}  A / B"
        for d in map(reports.entry_to_dict, orb.entries):
            yield (
                f"{d['n']:>3}  {d['digits_A']:>9}  {d['digits_B']:>9}  "
                f"{_elide(d['A'])} / {_elide(d['B'])}"
            )

    _emit(
        cfg,
        lambda: {"polynomial": str(f), "orbit": reports.orbit_to_dict(orb)},
        text,
        lambda: [
            ["n", "A", "B", "digits_A", "digits_B"],
            *(reports.entry_to_dict(entry).values() for entry in orb.entries),
        ],
    )
    return EXIT_OK if orb.wandering else EXIT_FINITE_ORBIT


def cmd_zsig(args: argparse.Namespace, cfg: RunConfig) -> int:
    f = _parse_target(args)
    report = zsigmondy_set(f, args.N, cfg)

    def text():
        yield f"Zsigmondy report for {f} up to n = {report.horizon}"
        yield f"elements without a primitive prime divisor: {report.elements}"
        for v in report.per_index:
            tag = "unit" if v.is_unit else ("primitive" if v.has_primitive else "NO primitive")
            wit = f" witnesses={list(v.witness_primes)}" if v.witness_primes else ""
            yield f"  n={v.n}: {tag}{wit}"
        ktab = ", ".join(f"{p}->{k}" for p, k in sorted(report.k_table.items()))
        yield f"first-division table k(p): {ktab}"
        yield f"rigid-divisibility violations: {len(report.rigid_violations)}"

    _emit(
        cfg,
        lambda: {"polynomial": str(f), "report": reports.zsig_report_to_dict(report)},
        text,
        lambda: [
            ["n", "has_primitive", "is_unit", "stripped_digits", "witnesses"],
            *(
                [v.n, v.has_primitive, v.is_unit, decimal_digits(v.stripped_part),
                 " ".join(map(str, v.witness_primes))]
                for v in report.per_index
            ),
        ],
    )
    return EXIT_OK


def cmd_bound(args: argparse.Namespace, cfg: RunConfig) -> int:
    unread = {"--iterations": args.iterations, "--digit-budget": args.digit_budget}
    if args.hhat != "telescope" and (given := [k for k, v in unread.items() if v is not None]):
        raise ValueError(f"{given[0]} is read only by --hhat telescope")
    f = _parse_target(args)
    gc = global_C(f)
    if args.hhat == "telescope":
        iterations = 6 if args.iterations is None else args.iterations
        interval = canonical_height_interval(
            f, f.constant, iterations, digit_budget=cfg.digit_budget
        )
        c_used = gc.total_C
    else:
        interval = (ingram_lower_bound if args.hhat == "ingram" else trinomial_family_lower)(f)
        c_used = family_C(f.constant)
    bound = None if interval.lower <= 0 else theorem1_bound(f, interval.lower, c_used)
    certified = bool(bound and bound.certified)

    def text():
        yield f"index bound for {f}"
        arch = f"archimedean {gc.archimedean_logCv:.15g}"
        places = "".join(f", p={p}: {v:.15g}" for p, v in sorted(gc.nonarch_contribs.items()))
        yield f"  per-place constants: {arch}{places}  (total {gc.total_C:.15g})"
        yield f"  C used: {c_used:.15g}"
        yield f"  canonical-height lower bound ({interval.method}): {interval.lower:.15g}"
        if bound is None:
            yield "  bound: vacuous (no positive canonical-height lower bound)"
        else:
            yield f"  n_max = {bound.n_max:.15g}  ->  n <= {bound.n_max_floor}"
        yield f"  certified: {str(certified).lower()}"

    _emit(
        cfg,
        lambda: {
            "polynomial": str(f),
            "global_C": vars(gc),
            "C_used": c_used,
            "hhat_method": interval.method,
            "hhat_interval": reports.interval_to_dict(interval),
            "bound": None if bound is None else vars(bound),
            "certified": certified,
        },
        text,
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    ezsig = args.theorem == "ezsig"
    unread = {"--c": args.c, "--e": args.e, "-N": args.N, "--digit-budget": args.digit_budget,
              "--rho-budget": args.factor_rho_budget} if ezsig else {"--n-max": args.n_max}
    if not ezsig and CLAIMS[args.theorem].family == BINOMIAL:
        unread["--e"] = args.e
    if given := [flag for flag, value in unread.items() if value is not None]:
        raise ValueError(f"verify {args.theorem} does not read {given[0]}")
    if ezsig:
        n_max = 10_000 if args.n_max is None else args.n_max
        equalities, violations = omega_inequality_audit(args.d, n_max)
        payload = {
            "check": "2*omega(n) + 1 < d^(n/2)",
            "d": args.d,
            "n_max": n_max,
            "equalities": equalities,
            "strict_violations": violations,
        }
        _emit(cfg, lambda: payload, lambda: [
            f"audit of 2*omega(n)+1 < d^(n/2) for d={args.d}, n <= {n_max}",
            f"  boundary equalities at n = {equalities or 'none'}",
            f"  strict violations at n = {violations or 'none'}",
        ])
        return EXIT_OK
    if args.c is None:
        raise ValueError("--c is required")
    verdict = verify(
        args.theorem, args.d, parse_rational(args.c), args.e, cfg, horizon=args.N
    )

    def text():
        yield f"{verdict.theorem_id}: {verdict.polynomial}"
        yield f"  hypothesis_ok: {verdict.hypothesis_ok}"
        yield f"  predicted: {verdict.predicted}"
        yield f"  observed elements: {verdict.observed_elements}"
        yield f"  consistent: {verdict.consistent}"
        for key in sorted(verdict.details):
            yield f"  {key}: {verdict.details[key]}"

    _emit(cfg, lambda: vars(verdict), text)
    return EXIT_OK if verdict.consistent else EXIT_INCONSISTENT


def _load_json(text: str | bytes):
    """json.loads that reports nesting too deep for its recursion as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


_RECORD_START = b'{"v":1,"key":"'


def _sweep_records(lines) -> tuple[list[str], list[str], int]:
    """The keys of a sweep file's records in file order, the keys of its
    inconsistent ones, and the length of its complete lines.  ValueError on a
    malformed record, or on an unterminated last line that no sweep began."""
    keys, inconsistent, complete = [], [], 0
    for number, line in enumerate(lines, 1):
        if line.endswith(b"\n"):
            complete += len(line)
            record = _load_json(line)
            if not (
                isinstance(record, dict)
                and isinstance(record.get("key"), str)
                and isinstance(record.get("consistent"), bool)
            ):
                raise ValueError(f"malformed sweep record on line {number}")
            keys.append(record["key"])
            if not record["consistent"]:
                inconsistent.append(record["key"])
        elif not _RECORD_START.startswith(line[:len(_RECORD_START)]):  # nor a torn record
            raise ValueError("the output file ends in a line that no sweep wrote")
    return keys, inconsistent, complete


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    spec = SweepSpec.from_dict(_load_json(Path(args.spec).read_text()))
    for key, pinned in spec.budgets:  # a pin never silently overrides a flag or variable
        asked = getattr(cfg, key)
        if asked != pinned and (getattr(args, key) is not None or env_name(key) in os.environ):
            raise ValueError(f"the spec pins {key} = {pinned}, a flag or variable sets {asked}")
    with open(args.out, "a+b") as out:
        out.seek(0)
        done, inconsistent, complete = _sweep_records(out)
        verdicts = iter_sweep(spec, cfg, done)  # refuses a file that another grid wrote
        # a run killed mid-write leaves an unterminated last line: drop it
        # so the point is recomputed and the file stays line-aligned
        out.truncate(complete)
        points = len(done)
        # stream one line per verdict so an interrupted run resumes cleanly
        for points, (key, verdict) in enumerate(verdicts, points + 1):
            out.write(_dump_json({"v": 1, "key": key, **vars(verdict)}).encode() + b"\n")
            out.flush()
            if not verdict.consistent:
                inconsistent.append(key)
    print(f"sweep complete: {points} points in {args.out}")
    if inconsistent:
        print("INCONSISTENT VERDICTS (counterexample candidates):", file=sys.stderr)
        for key in inconsistent:
            print(f"  {key}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


# each knob's flag and its argparse options, by the RunConfig field it sets
_KNOB_FLAGS = {
    "output_format": ("--format", {"choices": OUTPUT_FORMATS}),
    "digit_budget": ("--digit-budget", {"type": int}),
    "factor_rho_budget": ("--rho-budget", {"type": int}),
    "workers": ("--workers", {"type": int}),
}


def _add_knobs(parser: argparse.ArgumentParser, *knobs: str) -> None:
    """The flags of the knobs a subcommand reads; argparse rejects the others."""
    for knob in knobs:
        flag, options = _KNOB_FLAGS[knob]
        parser.add_argument(flag, dest=knob, **options)


def _add_poly_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--coeffs", help="ascending rational coefficients, e.g. 5/2,0,0,1")
    group.add_argument("--poly", help="symbolic form, e.g. z^3+5/2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsig",
        description="orbits, primitive prime divisors, and height bounds for "
        "rational polynomials iterated at 0",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbit = sub.add_parser("orbit", help="print the orbit numerators/denominators")
    _add_poly_args(p_orbit)
    p_orbit.add_argument("-N", type=int, required=True, help="number of iterates")
    _add_knobs(p_orbit, "output_format", "digit_budget")
    p_orbit.set_defaults(func=cmd_orbit)

    p_zsig = sub.add_parser("zsig", help="compute the Zsigmondy set up to a horizon")
    _add_poly_args(p_zsig)
    p_zsig.add_argument("-N", type=int, required=True)
    _add_knobs(p_zsig, "output_format", "digit_budget", "factor_rho_budget")
    p_zsig.set_defaults(func=cmd_zsig)

    p_bound = sub.add_parser("bound", help="evaluate the Zsigmondy index bound")
    _add_poly_args(p_bound)
    p_bound.add_argument(
        "--hhat", choices=("ingram", "family", "telescope"), required=True,
        help="canonical-height lower-bound method",
    )
    p_bound.add_argument(
        "--iterations", type=int, help="telescoping depth for --hhat telescope (default 6)"
    )
    _add_knobs(p_bound, "output_format", "digit_budget")
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="check one claim at one parameter point")
    p_verify.add_argument("theorem", choices=(*CLAIMS, "ezsig"))
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument("--e", type=int)
    p_verify.add_argument("--c", help="rational constant, e.g. -7/3")
    p_verify.add_argument("-N", type=int, help="horizon override")
    p_verify.add_argument("--n-max", type=int, help="ezsig audit range (default 10000)")
    _add_knobs(p_verify, "output_format", "digit_budget", "factor_rho_budget")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a verifier grid to a JSONL file")
    p_sweep.add_argument("spec", help="JSON sweep specification file")
    p_sweep.add_argument("-o", "--out", required=True, help="output JSONL path")
    _add_knobs(p_sweep, "digit_budget", "factor_rho_budget", "workers")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _merge_negative_values(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        # a knob's flag stores into its RunConfig field, where the command has it
        flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
        cfg = config_from_env().with_overrides(**flags)
        # decimal strings are the output format for big integers: clear the
        # interpreter's int->str guard for every size the digit budget allows,
        # up to 2^31 - 1, the largest C int set_int_max_str_digits takes
        guard = max(sys.get_int_max_str_digits(), 400_000, cfg.digit_budget)
        sys.set_int_max_str_digits(min(guard, 2**31 - 1))
        return args.func(args, cfg)
    except KeyboardInterrupt:
        # a sweep has flushed every finished record, and a resume drops a torn line
        resume = f"; rerun the same sweep to resume {args.out}" if args.func is cmd_sweep else ""
        print(f"interrupted{resume}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (DigitBudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        codes = {DigitBudgetError: EXIT_BUDGET, FiniteOrbitError: EXIT_FINITE_ORBIT}
        return codes.get(type(exc), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
