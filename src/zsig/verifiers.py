"""End-to-end checkers for the family-specific Zsigmondy claims.

Each verifier states a claim's hypothesis exactly (integer arithmetic, no
floats), evaluates the certified bound chain where one exists, recomputes
the observed Zsigmondy elements at desk scale, and reports whether the
observation conforms.  ``consistent`` is always computed from observed data;
an inconsistent verdict is a counterexample candidate and surfaces loudly.

Unit numerators are a convention wrinkle: an index with |A_n| = 1 lands in
the computed set, which can brush against an emptiness claim (only seen at
numerator-1 constants like c = 1/2).  Those indices are reported separately
as unit-numerator exceptions rather than inconsistencies.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bounds import theorem1_bound
from .config import RunConfig
from .heights import (
    family_C,
    hypothesis_abs_c_exceeds,
    ingram_lower_bound,
    trinomial_family_lower,
)
from .orbits import DigitBudgetError, OrbitEntry, orbit
from .polynomials import PolyQ
from .zsigmondy import divisor_product, zsigmondy_report_from_entries

_PAPER_BOUND = {"thm13": 6, "prop51": 7}


@dataclass
class TheoremVerdict:
    theorem_id: str
    polynomial: str
    hypothesis_ok: bool
    predicted: str
    observed_elements: list[int]
    consistent: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    family: str  # "z^d+c" | "z^d+z^e+c"
    d_values: tuple[int, ...]
    e_values: tuple[int, ...] = ()
    c_values: tuple[Fraction, ...] = ()
    horizon: int | None = None
    budgets: tuple[tuple[str, int], ...] = ()  # RunConfig field overrides

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        family = data["family"]
        if family not in ("z^d+c", "z^d+z^e+c"):
            raise ValueError(f"unknown family: {family!r}")
        cs: list[Fraction] = [Fraction(tok) for tok in data.get("c", [])]
        grid = data.get("c_grid")
        if grid:
            num_lo, num_hi = grid["num"]
            den_lo, den_hi = grid["den"]
            for den in range(den_lo, den_hi + 1):
                for num in range(num_lo, num_hi + 1):
                    if num == 0:
                        continue
                    frac = Fraction(num, den)
                    if frac.numerator == num and frac.denominator == den:
                        cs.append(frac)  # lowest-terms entries only, no dupes
        allowed = {
            "digit_budget", "factor_trial_bound", "factor_rho_budget",
            "primality_rounds", "workers", "seed",
        }
        budgets = []
        for key, value in data.get("budgets", {}).items():
            if key not in allowed:
                raise ValueError(f"unknown budget field: {key!r}")
            budgets.append((key, int(value)))
        return cls(
            family=family,
            d_values=tuple(data["d"]),
            e_values=tuple(data.get("e", [])),
            c_values=tuple(cs),
            horizon=data.get("horizon"),
            budgets=tuple(sorted(budgets)),
        )

    def apply_budgets(self, config: RunConfig) -> RunConfig:
        return config.with_overrides(**dict(self.budgets))

    def points(self) -> list[tuple[int, int | None, Fraction]]:
        pts = []
        for d in self.d_values:
            if self.family == "z^d+c":
                for c in self.c_values:
                    pts.append((d, None, c))
            else:
                for e in self.e_values:
                    if not 2 <= e < d:
                        continue
                    for c in self.c_values:
                        pts.append((d, e, c))
        return pts


def binomial(d: int, c: Fraction) -> PolyQ:
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[0], coeffs[d] = Fraction(c), Fraction(1)
    return PolyQ(tuple(coeffs))


def trinomial(d: int, e: int, c: Fraction) -> PolyQ:
    if not 2 <= e < d:
        raise ValueError("requires d > e >= 2")
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[0], coeffs[e], coeffs[d] = Fraction(c), Fraction(1), Fraction(1)
    return PolyQ(tuple(coeffs))


def default_horizon(theorem_id: str) -> int:
    return max(_PAPER_BOUND.get(theorem_id, 0) + 4, 10)


def _observe(f: PolyQ, horizon: int, cfg: RunConfig):
    """Compute orbit entries and the Zsigmondy report, degrading gracefully.

    Returns (entries, report, error).  A finite orbit yields an error string;
    a digit-budget stop truncates the horizon to what was computed.
    """
    try:
        orb = orbit(f, horizon, digit_budget=cfg.digit_budget)
    except DigitBudgetError as exc:
        entries = exc.entries
        if not entries:
            return [], None, "digit budget exhausted before the first iterate"
        return entries, zsigmondy_report_from_entries(entries, cfg, witnesses=False), None
    if not orb.wandering:
        return orb.entries, None, f"finite orbit: {orb.describe_cycle()}"
    return orb.entries, zsigmondy_report_from_entries(orb.entries, cfg, witnesses=False), None


def _base_details(entries: Sequence[OrbitEntry], report, error) -> dict:
    details: dict = {"horizon_used": len(entries)}
    if error:
        details["error"] = error
    if report is not None:
        details["unit_exceptions"] = [v.n for v in report.per_index if v.is_unit]
        details["rigid_violations"] = len(report.rigid_violations)
    return details


def _elements_and_units(report) -> tuple[list[int], list[int]]:
    if report is None:
        return [], []
    units = [v.n for v in report.per_index if v.is_unit]
    return list(report.elements), units


def _divisibility_screen_inconclusive(entries: Sequence[OrbitEntry]) -> list[int]:
    """Indices n >= 2 where |A_n| <= prod |A_(n/q)| (the screen that should
    rule every index out for the emptiness claims fails to bite)."""
    hold = []
    for n in range(2, len(entries) + 1):
        if abs(entries[n - 1].A) <= divisor_product(entries, n):
            hold.append(n)
    return hold


def _bound_details(f: PolyQ, hhat_lower: float, C: float) -> dict:
    result = theorem1_bound(f, hhat_lower, C)
    return {
        "hhat_lower": hhat_lower,
        "C": C,
        "n_max": result.n_max,
        "n_max_floor": result.n_max_floor,
        "bound_certified": result.certified,
    }


def verify_cor12(
    d: int, c: Fraction, config: RunConfig | None = None, horizon: int | None = None
) -> TheoremVerdict:
    """z^d + c with d >= 3, c a non-integer rational, |c| > 2^(d/(d-1)):
    the Zsigmondy set is empty."""
    cfg = config or RunConfig()
    c = Fraction(c)
    f = binomial(d, c)
    hypothesis = d >= 3 and c.denominator > 1 and hypothesis_abs_c_exceeds(c, d)
    N = horizon or default_horizon("cor12")
    entries, report, error = _observe(f, N, cfg)
    details = _base_details(entries, report, error)
    elements, _ = _elements_and_units(report)
    consistent = True
    if hypothesis and error is None:
        interval = ingram_lower_bound(f)
        details.update(_bound_details(f, interval.lower, family_C(c)))
        # exact growth certificate: every computed iterate stays beyond 2
        details["growth_verified"] = all(abs(e.value) > 2 for e in entries)
        details["screen_inconclusive"] = _divisibility_screen_inconclusive(entries)
        consistent = (
            not elements
            and details["growth_verified"]
            and not details["screen_inconclusive"]
        )
    return TheoremVerdict(
        "cor12", str(f), hypothesis, "Z(f,0) = empty", elements, consistent, details
    )


def verify_thm13(
    d: int, e: int, c: Fraction, config: RunConfig | None = None, horizon: int | None = None
) -> TheoremVerdict:
    """z^d + z^e + c with d > e >= 2 and |c| > 2: no Zsigmondy index exceeds 6."""
    cfg = config or RunConfig()
    c = Fraction(c)
    f = trinomial(d, e, c)
    hypothesis = d > e >= 2 and abs(c) > 2
    N = horizon or default_horizon("thm13")
    entries, report, error = _observe(f, N, cfg)
    details = _base_details(entries, report, error)
    elements, _ = _elements_and_units(report)
    consistent = True
    if hypothesis and error is None:
        interval = trinomial_family_lower(f)
        details.update(_bound_details(f, interval.lower, family_C(c)))
        # exact per-instance fact feeding the lower bound
        fc = f.evaluate(c)
        power = 2 if d == 3 else d - 2
        details["growth_at_c_verified"] = abs(fc) >= abs(c) ** power
        consistent = (
            all(n <= 6 for n in elements)
            and details["n_max"] < 7
            and details["growth_at_c_verified"]
        )
    return TheoremVerdict(
        "thm13", str(f), hypothesis, "every Zsigmondy index <= 6",
        elements, consistent, details,
    )


def verify_prop51(
    d: int, e: int, c: Fraction, config: RunConfig | None = None, horizon: int | None = None
) -> TheoremVerdict:
    """z^d + z^e + c with d > e >= 2 and 1 < c < 2: no Zsigmondy index exceeds 7."""
    cfg = config or RunConfig()
    c = Fraction(c)
    f = trinomial(d, e, c)
    hypothesis = d > e >= 2 and 1 < c < 2
    N = horizon or default_horizon("prop51")
    entries, report, error = _observe(f, N, cfg)
    details = _base_details(entries, report, error)
    elements, _ = _elements_and_units(report)
    consistent = True
    if hypothesis and error is None:
        interval = trinomial_family_lower(f)
        details.update(_bound_details(f, interval.lower, family_C(c)))
        details["f_c_above_2c"] = f.evaluate(c) > 2 * c  # exact step behind the bound
        consistent = (
            all(n <= 7 for n in elements)
            and details["n_max"] < 8
            and details["f_c_above_2c"]
        )
    return TheoremVerdict(
        "prop51", str(f), hypothesis, "every Zsigmondy index <= 7",
        elements, consistent, details,
    )


def _check_sandwich(
    entries: Sequence[OrbitEntry], c_abs: Fraction, alpha: Fraction, d: int
) -> bool:
    """c_abs <= |f^n(0)| <= alpha^((d^(n-1)-1)/(d-1)) * c_abs, exactly."""
    for entry in entries:
        v = abs(entry.value)
        if v < c_abs:
            return False
        expo = (d ** (entry.n - 1) - 1) // (d - 1)
        if v > alpha**expo * c_abs:
            return False
    return True


def verify_prop52(
    d: int, e: int, c: Fraction, config: RunConfig | None = None, horizon: int | None = None
) -> TheoremVerdict:
    """z^d + z^e + c with d > e >= 2 and 0 < c < 1: empty Zsigmondy set,
    up to the unit-numerator convention."""
    cfg = config or RunConfig()
    c = Fraction(c)
    f = trinomial(d, e, c)
    hypothesis = d > e >= 2 and 0 < c < 1
    N = horizon or default_horizon("prop52")
    entries, report, error = _observe(f, N, cfg)
    details = _base_details(entries, report, error)
    elements, units = _elements_and_units(report)
    consistent = True
    if hypothesis and error is None:
        alpha = c * c + c + 1
        details["alpha_in_range"] = 1 < alpha < 3
        details["sandwich_verified"] = _check_sandwich(entries, c, alpha, d)
        details["screen_inconclusive"] = _divisibility_screen_inconclusive(entries)
        non_unit = [n for n in elements if n not in units]
        consistent = (
            not non_unit
            and details["alpha_in_range"]
            and details["sandwich_verified"]
            and not details["screen_inconclusive"]
        )
    return TheoremVerdict(
        "prop52", str(f), hypothesis, "Z(f,0) = empty (units reported separately)",
        elements, consistent, details,
    )


def verify_prop53(
    d: int, e: int, c: Fraction, config: RunConfig | None = None, horizon: int | None = None
) -> TheoremVerdict:
    """z^d + z^e + c with d odd, d > e >= 2 and -1 < c < 0: empty Zsigmondy
    set, up to the unit-numerator convention."""
    cfg = config or RunConfig()
    c = Fraction(c)
    f = trinomial(d, e, c)
    hypothesis = d % 2 == 1 and d > e >= 2 and -1 < c < 0
    N = horizon or default_horizon("prop53")
    entries, report, error = _observe(f, N, cfg)
    details = _base_details(entries, report, error)
    elements, units = _elements_and_units(report)
    consistent = True
    if hypothesis and error is None:
        if e % 2 == 1:
            details["case"] = "odd middle exponent"
            alpha = c * c + abs(c) + 1
            details["sandwich_verified"] = _check_sandwich(entries, abs(c), alpha, d)
            growth_ok = details["sandwich_verified"]
        else:
            details["case"] = "even middle exponent"
            confined = all(c <= entry.value < 0 for entry in entries)
            floor = abs(c) * (1 - abs(c) ** (e - 1))
            floored = all(abs(entry.value) >= floor for entry in entries[1:])
            details["confinement_verified"] = confined
            details["lower_bound_verified"] = floored
            growth_ok = confined and floored
        details["screen_inconclusive"] = _divisibility_screen_inconclusive(entries)
        non_unit = [n for n in elements if n not in units]
        consistent = not non_unit and growth_ok and not details["screen_inconclusive"]
    return TheoremVerdict(
        "prop53", str(f), hypothesis, "Z(f,0) = empty (units reported separately)",
        elements, consistent, details,
    )


def verify_prop54(
    d: int, e: int, c: Fraction, config: RunConfig | None = None, horizon: int | None = None
) -> TheoremVerdict:
    """z^d + z^e + c with -2 < c < -1 and (d odd or e even): empty Zsigmondy
    set, up to the unit-numerator convention."""
    cfg = config or RunConfig()
    c = Fraction(c)
    f = trinomial(d, e, c)
    hypothesis = d > e >= 2 and -2 < c < -1 and (d % 2 == 1 or e % 2 == 0)
    N = horizon or default_horizon("prop54")
    entries, report, error = _observe(f, N, cfg)
    details = _base_details(entries, report, error)
    elements, units = _elements_and_units(report)
    consistent = True
    if hypothesis and error is None:
        upper_ok = True
        for entry in entries:
            expo = d ** (entry.n - 1)
            cap = Fraction(3) ** ((expo - 1) // (d - 1)) * abs(c) ** expo
            if abs(entry.value) > cap:
                upper_ok = False
                break
        details["upper_bound_verified"] = upper_ok
        if d % 2 == 1:
            details["case"] = "odd degree"
            growth_ok = all(
                entry.value < 0 and abs(entry.value) >= abs(c) for entry in entries
            )
        else:
            details["case"] = "even degree and middle exponent"
            growth_ok = all(
                entry.value > 0 and abs(entry.value) >= abs(c) ** (d ** (entry.n - 1))
                for entry in entries[1:]
            )
        details["growth_verified"] = growth_ok
        details["screen_inconclusive"] = _divisibility_screen_inconclusive(entries)
        non_unit = [n for n in elements if n not in units]
        consistent = (
            not non_unit
            and growth_ok
            and upper_ok
            and not details["screen_inconclusive"]
        )
    return TheoremVerdict(
        "prop54", str(f), hypothesis, "Z(f,0) = empty (units reported separately)",
        elements, consistent, details,
    )


_VERIFIERS = {
    "cor12": verify_cor12,
    "thm13": verify_thm13,
    "prop51": verify_prop51,
    "prop52": verify_prop52,
    "prop53": verify_prop53,
    "prop54": verify_prop54,
}


def verify(
    theorem_id: str,
    d: int,
    c: Fraction,
    e: int | None = None,
    config: RunConfig | None = None,
    horizon: int | None = None,
) -> TheoremVerdict:
    if theorem_id not in _VERIFIERS:
        raise ValueError(f"unknown theorem id: {theorem_id!r}")
    if theorem_id == "cor12":
        return verify_cor12(d, c, config, horizon)
    if e is None:
        raise ValueError(f"{theorem_id} requires a middle exponent e")
    return _VERIFIERS[theorem_id](d, e, c, config, horizon)


def classify_point(d: int, e: int | None, c: Fraction) -> str | None:
    """Pick the applicable claim id for a grid point, or None if no claim
    covers this c range."""
    if e is None:
        return "cor12"
    if abs(c) > 2:
        return "thm13"
    if 1 < c < 2:
        return "prop51"
    if 0 < c < 1:
        return "prop52"
    if -1 < c < 0:
        return "prop53"
    if -2 < c < -1:
        return "prop54"
    return None


def point_key(theorem_id: str, d: int, e: int | None, c: Fraction) -> str:
    middle = "" if e is None else f":e={e}"
    return f"{theorem_id}:d={d}{middle}:c={c}"


def _run_point(args) -> TheoremVerdict:
    d, e, c_str, horizon, cfg = args
    c = Fraction(c_str)
    theorem_id = classify_point(d, e, c)
    if theorem_id is None:
        f = binomial(d, c) if e is None else trinomial(d, e, c)
        return TheoremVerdict(
            "unclassified", str(f), False,
            "no claim covers this parameter range", [], True,
            {"d": d, "e": e, "c": c_str},
        )
    return verify(theorem_id, d, c, e, cfg, horizon)


def iter_sweep(
    spec: SweepSpec,
    config: RunConfig | None = None,
    points: Sequence[tuple[int, int | None, Fraction]] | None = None,
):
    """Yield verdicts in grid order as they complete.

    ``points`` restricts the run to a subset (resume support).  Per-point
    failures are captured inside the verdicts, never aborting the sweep.
    """
    cfg = spec.apply_budgets(config or RunConfig())
    tasks = [
        (d, e, str(c), spec.horizon, cfg)
        for d, e, c in (spec.points() if points is None else points)
    ]
    if cfg.workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            yield from pool.map(_run_point, tasks)
    else:
        for task in tasks:
            yield _run_point(task)


def run_sweep(
    spec: SweepSpec,
    config: RunConfig | None = None,
    points: Sequence[tuple[int, int | None, Fraction]] | None = None,
) -> list[TheoremVerdict]:
    """Dispatch every grid point to its applicable verifier; output order
    equals grid order regardless of worker count."""
    return list(iter_sweep(spec, config, points))


def sweep_keys(spec: SweepSpec) -> list[str]:
    keys = []
    for d, e, c in spec.points():
        theorem_id = classify_point(d, e, c) or "unclassified"
        keys.append(point_key(theorem_id, d, e, c))
    return keys
