"""Spans around calls into zsig's modules, recorded from outside the package.

Each public function is wrapped at every name a caller looks it up by (the
defining module and every zsig module that imported it), plus
``PolyQ.evaluate`` on the class.  Spans live in memory as
``[name, start, end, parent, attrs]`` and are aggregated after the run.
Operand sizes come from ``bit_length()``, never from ``str()``.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from fractions import Fraction

# Layers are zsig's modules; config does no work of its own.
LAYERS = (
    "polynomials", "orbits", "arith", "zsigmondy", "heights", "bounds",
    "verifiers", "reports", "cli",
)

PERCENTILES = (50, 90, 99, 99.9)
TAIL_MIN_BEYOND = 10


def _orbit_attrs(args, kwargs, result, exc):
    kept = getattr(exc, "entries", None)  # a DigitBudgetError carries what was kept
    if kept is None:
        kept = result.entries if result is not None else []
    return {"iterates": len(kept), "budget_stop": int(exc is not None and hasattr(exc, "entries"))}


def _in_bits(args, kwargs, result, exc):
    return {"in_bits": args[0].bit_length()}


def _factor_attrs(args, kwargs, result, exc):
    resolved = result is not None and result.cofactor_status != "composite_unfactored"
    return {"in_bits": args[0].bit_length(), "resolved": int(resolved)}


def _stripped_attrs(args, kwargs, result, exc):
    entries, n = args[0], args[1]
    return {"in_bits": abs(entries[n - 1].A).bit_length()}


def _evaluate_attrs(args, kwargs, result, exc):
    if result is None:
        return {}
    return {"out_bits": max(result.numerator.bit_length(), result.denominator.bit_length())}


# (module, function, span name, attribute hook)
TARGETS = (
    ("orbits", "orbit", "orbits.orbit", _orbit_attrs),
    ("orbits", "iterate_point", "orbits.iterate_point", None),
    ("arith", "factor", "arith.factor", _factor_attrs),
    ("arith", "trial_division", "arith.trial_division", _in_bits),
    ("arith", "is_prime", "arith.is_prime", None),
    ("zsigmondy", "zsigmondy_set", "zsigmondy.zsigmondy_set", None),
    ("zsigmondy", "zsigmondy_report_from_entries", "zsigmondy.report", None),
    ("zsigmondy", "stripped_numerator", "zsigmondy.stripped_numerator", _stripped_attrs),
    ("zsigmondy", "verify_rigid_divisibility", "zsigmondy.verify_rigid_divisibility", None),
    ("zsigmondy", "divisor_product", "zsigmondy.divisor_product", None),
    ("heights", "ingram_lower_bound", "heights.ingram_lower_bound", None),
    ("heights", "trinomial_family_lower", "heights.trinomial_family_lower", None),
    ("heights", "family_C", "heights.family_C", None),
    ("heights", "global_C", "heights.global_C", None),
    ("heights", "canonical_height_interval", "heights.canonical_height_interval", None),
    ("bounds", "theorem1_bound", "bounds.theorem1_bound", None),
    ("verifiers", "verify", "verifiers.verify", None),
    ("verifiers", "_run_point", "verifiers.point", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Installs span-recording wrappers on zsig and removes them again."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as raised:
                exc = raised
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    span[4] = hook(args, kwargs, result, exc)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "zsig" or n.startswith("zsig.")]
        for mod_name, fn_name, span_name, hook in TARGETS:
            fn = getattr(sys.modules[f"zsig.{mod_name}"], fn_name)
            wrapper = self._wrap(fn, span_name, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        reports = sys.modules["zsig.reports"]
        for attr, fn in list(vars(reports).items()):
            if attr.endswith("_to_dict") and callable(fn):
                self._undo.append((reports, attr, fn))
                setattr(reports, attr, self._wrap(fn, "reports.to_dict", None))
        poly = sys.modules["zsig.polynomials"].PolyQ
        self._undo.append((poly, "evaluate", poly.__dict__["evaluate"]))
        poly.evaluate = self._wrap(poly.evaluate, "polynomials.evaluate", _evaluate_attrs)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def tail_percentile(n: int) -> float | None:
    """The highest of PERCENTILES with at least TAIL_MIN_BEYOND of n
    samples beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if n * (100 - Fraction(str(p))) / 100 >= TAIL_MIN_BEYOND:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * Fraction(str(p)) / 100))
    return ordered[rank - 1]


def _group(name: str) -> str:
    """Spans whose inclusive time is reported together: all of heights, or one name."""
    return "heights" if name.startswith("heights.") else name


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from one traced pass (see BENCHMARK.json)."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)  # outermost spans of a group only
    own: dict[str, float] = defaultdict(float)
    attr_sum: dict[str, int] = defaultdict(int)
    attr_max: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        calls[name] += 1
        own[name] += selfs[i]
        layer_self[name.split(".")[0]] += selfs[i]
        group = _group(name)
        ancestor = parent
        while ancestor >= 0 and _group(spans[ancestor][0]) != group:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            incl[group] += end - start
        for key, value in (attrs or {}).items():
            attr_sum[f"{name}.{key}"] += value
            attr_max[f"{name}.{key}"] = max(attr_max[f"{name}.{key}"], value)

    points = [s[2] - s[1] for s in spans if s[0] == "verifiers.point"] or [
        s[2] - s[1] for s in spans if s[0] == "verifiers.verify"]
    tail = tail_percentile(len(points)) or 50
    factor_calls = calls["arith.factor"]
    metrics = {
        "polynomials.evaluate.calls": calls["polynomials.evaluate"],
        "polynomials.evaluate.s": incl["polynomials.evaluate"],
        "polynomials.evaluate.out_bits_max": attr_max["polynomials.evaluate.out_bits"],
        "orbits.orbit.calls": calls["orbits.orbit"],
        "orbits.orbit.self_s": own["orbits.orbit"],
        "orbits.orbit.iterates": attr_sum["orbits.orbit.iterates"],
        "orbits.orbit.budget_stops": attr_sum["orbits.orbit.budget_stop"],
        "arith.trial_division.calls": calls["arith.trial_division"],
        "arith.trial_division.s": incl["arith.trial_division"],
        "arith.trial_division.in_bits_sum": attr_sum["arith.trial_division.in_bits"],
        "arith.is_prime.calls": calls["arith.is_prime"],
        "arith.is_prime.s": incl["arith.is_prime"],
        "arith.factor.calls": factor_calls,
        "arith.factor.self_s": own["arith.factor"],
        "arith.factor.in_bits_sum": attr_sum["arith.factor.in_bits"],
        "arith.factor.resolved_ratio": (
            attr_sum["arith.factor.resolved"] / factor_calls if factor_calls else 1.0),
        "zsigmondy.stripped_numerator.calls": calls["zsigmondy.stripped_numerator"],
        "zsigmondy.stripped_numerator.s": incl["zsigmondy.stripped_numerator"],
        "zsigmondy.stripped_numerator.in_bits_sum": attr_sum["zsigmondy.stripped_numerator.in_bits"],
        "zsigmondy.report.self_s": own["zsigmondy.report"],
        "zsigmondy.verify_rigid_divisibility.s": incl["zsigmondy.verify_rigid_divisibility"],
        "zsigmondy.divisor_product.s": incl["zsigmondy.divisor_product"],
        "heights.calls": sum(n for name, n in calls.items() if _group(name) == "heights"),
        "heights.s": incl["heights"],
        "bounds.theorem1_bound.calls": calls["bounds.theorem1_bound"],
        "bounds.theorem1_bound.s": incl["bounds.theorem1_bound"],
        "verifiers.verify.calls": calls["verifiers.verify"],
        "verifiers.verify.self_s": own["verifiers.verify"],
        "verifiers.point.samples": len(points),
        "verifiers.point.p50_s": percentile(points, 50) if points else 0.0,
        "verifiers.point.tail_pct": tail,
        "verifiers.point.tail_s": percentile(points, tail) if points else 0.0,
        "verifiers.point.max_s": max(points, default=0.0),
        "reports.to_dict.s": incl["reports.to_dict"],
        "cli.main.self_s": own["cli.main"],
    }
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = layer_self[layer]
    metrics["trace.spans"] = len(spans)
    return metrics
