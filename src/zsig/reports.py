"""JSON views of the report types the CLI prints.

Big integers serialize as decimal strings (they exceed native JSON number
ranges); floats serialize natively so values keep every bit.  Decimal strings
past 4300 digits need a raised ``sys.set_int_max_str_digits``, which
``cli.main`` sets and library callers set themselves.  ``GlobalC``,
``BoundResult`` and ``TheoremVerdict`` hold no big integer and no infinity, so
their JSON is ``vars(obj)``.
"""

from __future__ import annotations

from .heights import HeightInterval
from .orbits import Orbit, OrbitEntry, decimal_digits
from .zsigmondy import PrimitiveVerdict, ZsigmondyReport


def entry_to_dict(entry: OrbitEntry) -> dict:
    return {
        "n": entry.n,
        "A": str(entry.A),
        "B": str(entry.B),
        "digits_A": decimal_digits(entry.A),
        "digits_B": decimal_digits(entry.B),
    }


def orbit_to_dict(orb: Orbit) -> dict:
    return {
        "kind": orb.kind,
        "entries": [entry_to_dict(e) for e in orb.entries],
        "tail": orb.tail,
        "period": orb.period,
        "step": orb.step,
    }


def verdict_to_dict(v: PrimitiveVerdict) -> dict:
    return {
        "n": v.n,
        "has_primitive": v.has_primitive,
        "stripped_part": str(v.stripped_part),
        "witness_primes": [str(p) for p in v.witness_primes],
        "is_unit": v.is_unit,
    }


def zsig_report_to_dict(report: ZsigmondyReport) -> dict:
    return {
        "horizon": report.horizon,
        "elements": report.elements,
        "per_index": [verdict_to_dict(v) for v in report.per_index],
        "k_table": {str(p): k for p, k in sorted(report.k_table.items())},
        "rigid_violations": [
            {"prime": str(v.prime), "n": v.n, "observed": v.observed, "expected": v.expected}
            for v in report.rigid_violations
        ],
    }


def interval_to_dict(interval: HeightInterval) -> dict:
    return {
        "lower": interval.lower,
        "upper": None if interval.upper == float("inf") else interval.upper,
        "method": interval.method,
        "iterations": interval.iterations,
    }
