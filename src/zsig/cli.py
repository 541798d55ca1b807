"""Command-line surface: orbit tables, Zsigmondy reports, height bounds,
claim verification, and reproducible JSONL sweeps.

Exit codes are a stable contract: 0 ok, 2 parse/usage error, 3 digit-budget
exhaustion, 4 finite orbit where a wandering one is required, 5 inconsistent
verdict (counterexample candidate).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import reports
from .bounds import omega_inequality_audit, theorem1_bound
from .config import RunConfig, config_from_env, env_name
from .heights import (
    canonical_height_interval,
    family_C,
    global_C,
    ingram_lower_bound,
    trinomial_family_lower,
)
from .orbits import DigitBudgetError, FiniteOrbitError, decimal_digits, orbit
from .polynomials import ParseError, PolyQ, parse_poly, parse_rational
from .verifiers import CLAIMS, SweepSpec, iter_sweep, verify
from .zsigmondy import zsigmondy_set

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_FINITE_ORBIT = 4
EXIT_INCONSISTENT = 5

_VALUE_FLAGS = {"--coeffs", "--poly", "--c", "-c"}


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


def _elide(s: str, width: int = 40) -> str:
    if len(s) <= width:
        return s
    half = (width - 3) // 2
    return f"{s[:half]}...{s[-half:]}"


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _print_kv_csv(rows: list[tuple[str, str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["field", "value"])
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _parse_target(args: argparse.Namespace) -> PolyQ:
    return parse_poly(args.coeffs if args.coeffs is not None else args.poly)


def cmd_orbit(args: argparse.Namespace, cfg: RunConfig) -> int:
    f = _parse_target(args)
    orb = orbit(f, args.N, digit_budget=cfg.digit_budget)
    if not orb.wandering:
        print(f"preperiodic: {orb.describe_cycle()}")
        return EXIT_FINITE_ORBIT
    if cfg.output_format == "json":
        print(_dump_json({"polynomial": str(f), "orbit": reports.orbit_to_dict(orb)}))
    elif cfg.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "A", "B", "digits_A", "digits_B"])
        for entry in orb.entries:
            d = reports.entry_to_dict(entry)
            writer.writerow([d["n"], d["A"], d["B"], d["digits_A"], d["digits_B"]])
        sys.stdout.write(buf.getvalue())
    else:
        print(f"orbit of 0 under {f}")
        print(f"{'n':>3}  {'digits(A)':>9}  {'digits(B)':>9}  A / B")
        for entry in orb.entries:
            d = reports.entry_to_dict(entry)
            print(
                f"{d['n']:>3}  {d['digits_A']:>9}  {d['digits_B']:>9}  "
                f"{_elide(d['A'])} / {_elide(d['B'])}"
            )
    return EXIT_OK


def cmd_zsig(args: argparse.Namespace, cfg: RunConfig) -> int:
    f = _parse_target(args)
    if not f.admissible:
        print(
            "error: linear coefficient is nonzero; Zsigmondy computations "
            "require a_1 = 0",
            file=sys.stderr,
        )
        return EXIT_PARSE
    report = zsigmondy_set(f, args.N, cfg)
    if cfg.output_format == "json":
        print(_dump_json({"polynomial": str(f), "report": reports.zsig_report_to_dict(report)}))
    elif cfg.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "has_primitive", "is_unit", "stripped_digits", "witnesses"])
        for v in report.per_index:
            writer.writerow([
                v.n, v.has_primitive, v.is_unit,
                decimal_digits(v.stripped_part), " ".join(map(str, v.witness_primes)),
            ])
        sys.stdout.write(buf.getvalue())
    else:
        print(f"Zsigmondy report for {f} up to n = {report.horizon}")
        print(f"elements without a primitive prime divisor: {report.elements}")
        for v in report.per_index:
            tag = "unit" if v.is_unit else ("primitive" if v.has_primitive else "NO primitive")
            wit = f" witnesses={list(v.witness_primes)}" if v.witness_primes else ""
            print(f"  n={v.n}: {tag}{wit}")
        ktab = ", ".join(f"{p}->{k}" for p, k in sorted(report.k_table.items()))
        print(f"first-division table k(p): {ktab}")
        print(f"rigid-divisibility violations: {len(report.rigid_violations)}")
    return EXIT_OK


def cmd_bound(args: argparse.Namespace, cfg: RunConfig) -> int:
    f = _parse_target(args)
    gc = global_C(f)
    if args.hhat == "ingram":
        interval = ingram_lower_bound(f)
        c_used = family_C(f.constant)
    elif args.hhat == "family":
        interval = trinomial_family_lower(f)
        form = f.trinomial_form()
        c_used = family_C(form[2])
    else:
        interval = canonical_height_interval(
            f, f.constant, args.iterations, digit_budget=cfg.digit_budget
        )
        c_used = gc.total_C
    vacuous = interval.lower <= 0
    bound = None if vacuous else theorem1_bound(f, interval.lower, c_used)
    payload = {
        "polynomial": str(f),
        "global_C": reports.global_c_to_dict(gc),
        "C_used": c_used,
        "hhat_method": interval.method,
        "hhat_interval": reports.interval_to_dict(interval),
        "bound": None if bound is None else reports.bound_to_dict(bound),
        "certified": bool(bound and bound.certified),
    }
    if cfg.output_format == "json":
        print(_dump_json(payload))
    elif cfg.output_format == "csv":
        rows = [
            ("polynomial", payload["polynomial"]),
            ("C_used", f"{c_used:.15g}"),
            ("hhat_method", interval.method),
            ("hhat_lower", f"{interval.lower:.15g}"),
            ("n_max", "" if bound is None else f"{bound.n_max:.15g}"),
            ("n_max_floor", "" if bound is None else str(bound.n_max_floor)),
            ("certified", str(payload["certified"]).lower()),
        ]
        _print_kv_csv(rows)
    else:
        print(f"index bound for {f}")
        print(f"  per-place constants: archimedean {gc.archimedean_logCv:.15g}", end="")
        for p, v in sorted(gc.nonarch_contribs.items()):
            print(f", p={p}: {v:.15g}", end="")
        print(f"  (total {gc.total_C:.15g})")
        print(f"  C used: {c_used:.15g}")
        print(
            f"  canonical-height lower bound ({interval.method}): {interval.lower:.15g}"
        )
        if bound is None:
            print("  bound: vacuous (no positive canonical-height lower bound)")
            print("  certified: false")
        else:
            print(f"  n_max = {bound.n_max:.15g}  ->  n <= {bound.n_max_floor}")
            print(f"  certified: {str(bound.certified).lower()}")
    return EXIT_OK


def _print_verdict(verdict, fmt: str) -> None:
    data = reports.theorem_verdict_to_dict(verdict)
    if fmt == "json":
        print(_dump_json(data))
    elif fmt == "csv":
        rows = [
            ("theorem_id", verdict.theorem_id),
            ("polynomial", verdict.polynomial),
            ("hypothesis_ok", str(verdict.hypothesis_ok).lower()),
            ("predicted", verdict.predicted),
            ("observed_elements", " ".join(map(str, verdict.observed_elements))),
            ("consistent", str(verdict.consistent).lower()),
        ]
        _print_kv_csv(rows)
    else:
        print(f"{verdict.theorem_id}: {verdict.polynomial}")
        print(f"  hypothesis_ok: {verdict.hypothesis_ok}")
        print(f"  predicted: {verdict.predicted}")
        print(f"  observed elements: {verdict.observed_elements}")
        print(f"  consistent: {verdict.consistent}")
        for key in sorted(verdict.details):
            print(f"  {key}: {verdict.details[key]}")


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.theorem == "ezsig":
        equalities, violations = omega_inequality_audit(args.d, args.n_max)
        payload = {
            "check": "2*omega(n) + 1 < d^(n/2)",
            "d": args.d,
            "n_max": args.n_max,
            "equalities": equalities,
            "strict_violations": violations,
        }
        if cfg.output_format == "json":
            print(_dump_json(payload))
        else:
            print(f"audit of 2*omega(n)+1 < d^(n/2) for d={args.d}, n <= {args.n_max}")
            print(f"  boundary equalities at n = {equalities or 'none'}")
            print(f"  strict violations at n = {violations or 'none'}")
        return EXIT_OK
    if args.c is None:
        print("error: --c is required", file=sys.stderr)
        return EXIT_PARSE
    verdict = verify(
        args.theorem, args.d, parse_rational(args.c), args.e, cfg, horizon=args.N
    )
    _print_verdict(verdict, cfg.output_format)
    return EXIT_OK if verdict.consistent else EXIT_INCONSISTENT


def _sweep_records(text: str) -> list[tuple[str, bool]]:
    """(key, consistent) of each record on a sweep file's complete lines;
    ValueError on a malformed one."""
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if not (
            isinstance(record, dict)
            and isinstance(record.get("key"), str)
            and isinstance(record.get("consistent"), bool)
        ):
            raise ValueError(f"malformed sweep record: {_elide(line)}")
        records.append((record["key"], record["consistent"]))
    return records


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    spec = SweepSpec.from_dict(json.loads(Path(args.spec).read_text()))
    for key, pinned in spec.budgets:  # a pin never silently overrides a flag or variable
        asked = getattr(cfg, key)
        if asked != pinned and (getattr(args, key) is not None or env_name(key) in os.environ):
            raise ValueError(f"the spec pins {key} = {pinned}, a flag or variable sets {asked}")
    out = Path(args.out)
    data = out.read_bytes() if out.exists() else b""
    complete = data.rfind(b"\n") + 1
    records = _sweep_records(data[:complete].decode())
    done = {key for key, _ in records}
    inconsistent = [key for key, consistent in records if not consistent]
    if complete < len(data):
        # a run killed mid-write leaves an unterminated last line: drop it
        # so the point is recomputed and the file stays line-aligned
        with out.open("r+b") as handle:
            handle.truncate(complete)
    written = 0
    # stream one line per verdict so an interrupted run resumes cleanly
    with out.open("a") as handle:
        for key, verdict in iter_sweep(spec, cfg, done):
            record = {"v": 1, "key": key}
            record.update(reports.theorem_verdict_to_dict(verdict))
            handle.write(_dump_json(record) + "\n")
            handle.flush()
            written += 1
            if not verdict.consistent:
                inconsistent.append(key)
    print(f"sweep complete: {len(done) + written} points in {out}")
    if inconsistent:
        print("INCONSISTENT VERDICTS (counterexample candidates):", file=sys.stderr)
        for key in inconsistent:
            print(f"  {key}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), dest="output_format")
    parser.add_argument("--digit-budget", type=int)
    parser.add_argument("--rho-budget", type=int, dest="factor_rho_budget")
    parser.add_argument("--workers", type=int)


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
    _add_common(p_orbit)
    p_orbit.set_defaults(func=cmd_orbit)

    p_zsig = sub.add_parser("zsig", help="compute the Zsigmondy set up to a horizon")
    _add_poly_args(p_zsig)
    p_zsig.add_argument("-N", type=int, required=True)
    _add_common(p_zsig)
    p_zsig.set_defaults(func=cmd_zsig)

    p_bound = sub.add_parser("bound", help="evaluate the Zsigmondy index bound")
    _add_poly_args(p_bound)
    p_bound.add_argument(
        "--hhat", choices=("ingram", "family", "telescope"), required=True,
        help="canonical-height lower-bound method",
    )
    p_bound.add_argument(
        "--iterations", type=int, default=6,
        help="telescoping depth for --hhat telescope",
    )
    _add_common(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="check one claim at one parameter point")
    p_verify.add_argument("theorem", choices=(*CLAIMS, "ezsig"))
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument("--e", type=int, default=None)
    p_verify.add_argument("--c", default=None, help="rational constant, e.g. -7/3")
    p_verify.add_argument("-N", type=int, default=None, help="horizon override")
    p_verify.add_argument("--n-max", type=int, default=10_000, help="ezsig audit range")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a verifier grid to a JSONL file")
    p_sweep.add_argument("spec", help="JSON sweep specification file")
    p_sweep.add_argument("-o", "--out", required=True, help="output JSONL path")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Decimal strings are the output format for big integers; clear the
    # interpreter's int->str guard for every size the digit budget allows
    # (400,000 digits while parsing, the budget once it is known).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 400_000))
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _merge_negative_values(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        # each knob's flag stores into the RunConfig field of the same name
        flags = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
        cfg = config_from_env().with_overrides(**flags)
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), cfg.digit_budget))
        return args.func(args, cfg)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DigitBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FiniteOrbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINITE_ORBIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
