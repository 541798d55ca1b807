"""End-to-end checkers for the family-specific Zsigmondy claims.

Every claim is one ``Claim`` entry in ``CLAIMS``: its family, the c-range
that routes a grid point to it, the rest of its hypothesis, the height lower
bound behind its index cap, and its own exact checks.  ``verify`` states the
hypothesis exactly (integer arithmetic, no floats), evaluates the certified
bound chain where one exists, recomputes the observed Zsigmondy elements at
desk scale, and reports whether the observation conforms.  ``consistent`` is
always computed from observed data; an inconsistent verdict is a
counterexample candidate and surfaces loudly.  What one sweep grid point is
lives here too (``SweepSpec``, ``point_key``, ``_run_point``); ``sweep`` runs a spec.

Unit numerators are a convention wrinkle: an index with |A_n| = 1 lands in
the computed set, which can brush against an emptiness claim (only seen at
numerator-1 constants like c = 1/2).  Those indices are reported separately
as unit-numerator exceptions rather than inconsistencies.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, NamedTuple, Sequence

from .arith import compare_sums, distinct_primes
from .bounds import theorem1_bound
from .config import BUDGETS, RunConfig
from .heights import (
    HeightInterval,
    family_C,
    hypothesis_abs_c_exceeds,
    ingram_lower_bound,
    trinomial_family_lower,
)
from .orbits import DigitBudgetError, OrbitEntry, orbit
from .polynomials import PolyQ, parse_rational
from .zsigmondy import zsigmondy_report_from_entries

BINOMIAL = "z^d+c"
TRINOMIAL = "z^d+z^e+c"
# every field a sweep spec may hold; e is read only under TRINOMIAL
_SPEC_FIELDS = ("family", "d", "e", "c", "c_grid", "horizon", "budgets")


class TheoremVerdict(NamedTuple):
    theorem_id: str
    polynomial: str
    hypothesis_ok: bool
    predicted: str
    observed_elements: list[int]
    consistent: bool
    details: dict


class SweepSpec(NamedTuple):
    family: str  # BINOMIAL | TRINOMIAL
    d_values: tuple[int, ...]
    e_values: tuple[int, ...] = ()
    c_values: tuple[Fraction, ...] = ()  # the listed constants
    c_grid: tuple[range, range] = (range(0), range(0))  # numerators, denominators
    horizon: int | None = None
    budgets: tuple[tuple[str, int], ...] = ()  # config.BUDGETS overrides

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """The spec of a parsed JSON object; a malformed one raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("sweep spec must be a JSON object")
        _closed(data, _SPEC_FIELDS, "spec")
        family = data.get("family")
        if family not in (BINOMIAL, TRINOMIAL):
            raise ValueError(f"unknown family: {family!r}")
        d_values = _spec_list(data, "d", None, int)
        if any(d < 2 for d in d_values):
            raise ValueError("every d must be >= 2")
        # a float would run as its binary value, or overflow: only exact tokens
        cs = [parse_rational(tok) for tok in _spec_list(data, "c", [], str, int)]
        c_grid = cls._field_defaults["c_grid"]
        grid = data.get("c_grid")
        if grid is not None:  # an empty or false grid is malformed, not absent
            if isinstance(grid, dict):
                _closed(grid, ("num", "den"), "c_grid")
            try:
                (num_lo, num_hi), (den_lo, den_hi) = grid["num"], grid["den"]
                if any(type(v) is not int for v in (num_lo, num_hi, den_lo, den_hi)):
                    raise TypeError("a bound is not an integer")  # range() takes true as 1
                c_grid = range(num_lo, num_hi + 1), range(den_lo, den_hi + 1)
            except (TypeError, KeyError, ValueError) as exc:
                raise ValueError(f"c_grid needs integer ranges num and den: {grid!r}") from exc
            if den_lo < 1:
                raise ValueError("c_grid denominators must be positive")
        raw_budgets = data.get("budgets", {})
        if not isinstance(raw_budgets, dict):
            raise ValueError("budgets must be a JSON object")
        _closed(raw_budgets, BUDGETS, "budget")
        budgets = {}
        for key, value in raw_budgets.items():
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ValueError(f"budget {key} must be an integer")
            try:
                budgets[key] = int(value)
            except ValueError:  # a string int() does not read
                raise ValueError(f"budget {key} must be an integer: {value!r}") from None
        RunConfig(**budgets)  # positivity, checked before any output is written
        horizon = data.get("horizon")
        if horizon is not None and (type(horizon) is not int or horizon < 1):
            raise ValueError(f"horizon must be a positive integer: {horizon!r}")
        return cls(  # a repeated entry would repeat points: keep the first of each
            family=family,
            d_values=tuple(dict.fromkeys(d_values)),
            e_values=tuple(dict.fromkeys(_spec_list(data, "e", [], int))),
            c_values=tuple(dict.fromkeys(cs)),
            c_grid=c_grid,
            horizon=horizon,
            budgets=tuple(sorted(budgets.items())),
        )

    def walk(self) -> Iterator[tuple[int, int | None, Fraction]]:
        """Each (d, e, c) once, lazily: by d, then e, then the listed constants,
        then the unlisted nonzero lowest-terms grid fractions, denominator-major."""
        nums, dens = self.c_grid
        listed = {c.as_integer_ratio() for c in self.c_values}  # Fraction hashes are slow
        for d in self.d_values:
            es = [e for e in self.e_values if 2 <= e < d]
            for e in es if self.family == TRINOMIAL else [None]:
                for c in self.c_values:
                    yield d, e, c
                for den in dens:  # not itertools.product, which lists its inputs
                    for num in nums:
                        if num and gcd(num, den) == 1 and (num, den) not in listed:
                            yield d, e, Fraction(num, den)

    def points(self) -> list[tuple[int, int | None, Fraction]]:
        return list(self.walk())


def _spec_list(data: dict, key: str, default: list | None, *types: type) -> list:
    """The list at ``key``, each entry exactly one of ``types`` (so never a bool)."""
    value = data.get(key, default)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON list")
    if bad := [token for token in value if type(token) not in types]:
        raise ValueError(f"bad {key} entry: {bad[0]!r}")
    return value


def _closed(data: dict, allowed: Sequence[str], what: str) -> None:
    """A spec object holds only the fields it reads: a misspelt one is an error."""
    if unknown := [key for key in data if key not in allowed]:
        raise ValueError(f"unknown {what} field: {unknown[0]!r}")


def binomial(d: int, c: Fraction) -> PolyQ:
    return PolyQ(((d, 1), (0, c)))


def trinomial(d: int, e: int, c: Fraction) -> PolyQ:
    if not 2 <= e < d:
        raise ValueError("requires d > e >= 2")
    return PolyQ(((d, 1), (e, 1), (0, c)))


def _observe(f: PolyQ, horizon: int, cfg: RunConfig):
    """Compute orbit entries and the Zsigmondy report, degrading gracefully.

    Returns (entries, report, error).  A finite orbit yields an error string;
    a digit-budget stop truncates the horizon to what was computed.  The last
    entry may come unbuilt; ``OrbitEntry.compare`` answers its size questions.
    """
    try:
        orb = orbit(f, horizon, digit_budget=cfg.digit_budget, lazy=True)
    except DigitBudgetError as exc:
        entries = exc.entries
        if not entries:
            return [], None, "digit budget exhausted before the first iterate"
    else:
        if not orb.wandering:
            return orb.entries, None, f"finite orbit: {orb.describe_cycle()}"
        entries = orb.entries
    report = zsigmondy_report_from_entries(
        entries, cfg, witnesses=False, denominator_lcm=f.cleared[1]
    )
    return entries, report, None


def _divisibility_screen_inconclusive(entries: Sequence[OrbitEntry]) -> list[int]:
    """Indices n >= 2 where |A_n| <= prod |A_(n/q)| (the screen that should
    rule every index out for the emptiness claims fails to bite)."""
    A = [abs(x.A) for x in entries[:-1]]  # the last is no A_(n/q): leave it unbuilt
    return [
        n for n in range(2, len(entries) + 1)
        if entries[n - 1].compare([], [[(A[n // q - 1], 1) for q in distinct_primes(n)]], True) <= 0
    ]


def _check_sandwich(
    entries: Sequence[OrbitEntry], c_abs: Fraction, alpha: Fraction, d: int
) -> bool:
    """c_abs <= |f^n(0)| <= alpha^((d^(n-1)-1)/(d-1)) * c_abs, exactly."""
    for x in entries:
        k = (d ** (x.n - 1) - 1) // (d - 1)
        if x.compare([], [[(c_abs, 1)]]) < 0 or x.compare([], [[(c_abs, 1), (alpha, k)]]) > 0:
            return False
    return True


# Each claim's own exact checks: (d, e, c, entries) -> details in report
# order.  Strings label a case; every boolean must hold.


def _cor12_checks(d, e, c, entries) -> dict:
    # exact growth certificate: every computed iterate stays beyond 2
    return {"growth_verified": all(x.compare([], [[(2, 1)]]) > 0 for x in entries)}


def _thm13_checks(d, e, c, entries) -> dict:
    # exact per-instance fact feeding the lower bound: |f(c)| >= |c|^k, i.e.
    # f(c) >= |c|^k or -f(c) >= |c|^k, from the signed terms of c^d + c^e + c
    c_abs = abs(c)
    pos = [[(c_abs, i)] for i in (d, e, 1) if c.numerator > 0 or i % 2 == 0]
    neg = [[(c_abs, i)] for i in (d, e, 1) if c.numerator < 0 and i % 2]
    floor = [(c_abs, 2 if d == 3 else d - 2)]
    grows = compare_sums(pos, [*neg, floor]) >= 0 or compare_sums(neg, [*pos, floor]) >= 0
    return {"growth_at_c_verified": grows}


def _prop51_checks(d, e, c, entries) -> dict:
    # exact step behind the bound: f(c) > 2c, i.e. c^d + c^e > c for 1 < c < 2
    return {"f_c_above_2c": compare_sums([[(c, d)], [(c, e)]], [[(c, 1)]]) > 0}


def _prop52_checks(d, e, c, entries) -> dict:
    alpha = c * c + c + 1
    return {
        "alpha_in_range": 1 < alpha < 3,
        "sandwich_verified": _check_sandwich(entries, c, alpha, d),
    }


def _prop53_checks(d, e, c, entries) -> dict:
    if e % 2 == 1:
        alpha = c * c + abs(c) + 1
        return {
            "case": "odd middle exponent",
            "sandwich_verified": _check_sandwich(entries, abs(c), alpha, d),
        }
    c_abs = abs(c)  # |f^n(0)| >= |c| (1 - |c|^(e-1)) reads |f^n(0)| + |c|^e >= |c|
    return {
        "case": "even middle exponent",
        "confinement_verified": all(
            x.sign < 0 and x.compare([], [[(c_abs, 1)]]) <= 0 for x in entries
        ),
        "lower_bound_verified": all(
            x.compare([[(c_abs, e)]], [[(c_abs, 1)]]) >= 0 for x in entries[1:]
        ),
    }


def _prop54_checks(d, e, c, entries) -> dict:
    # |f^n(0)| <= 3^((d^(n-1)-1)/(d-1)) |c|^(d^(n-1)); 3^k is never built
    c_abs = abs(c)
    upper_ok = all(
        x.compare([], [[(3, (d ** (x.n - 1) - 1) // (d - 1)), (c_abs, d ** (x.n - 1))]]) <= 0
        for x in entries
    )
    if d % 2 == 1:
        case = "odd degree"
        growth_ok = all(x.sign < 0 and x.compare([], [[(c_abs, 1)]]) >= 0 for x in entries)
    else:
        case = "even degree and middle exponent"
        growth_ok = all(
            x.sign > 0 and x.compare([], [[(c_abs, d ** (x.n - 1))]]) >= 0 for x in entries[1:]
        )
    return {"upper_bound_verified": upper_ok, "case": case, "growth_verified": growth_ok}


class Claim(NamedTuple):
    """One claim of the paper.

    ``in_range(c)`` routes a grid point of ``family`` to the claim and
    ``hypothesis(d, e, c)`` is the rest of its hypothesis.  ``cap`` is the
    largest Zsigmondy index allowed, checked together with the index bound
    from the canonical-height lower bound ``lower``; None marks an emptiness
    claim, checked with the divisibility screen instead.
    """

    id: str
    family: str
    in_range: Callable[[Fraction], bool]
    predicted: str
    checks: Callable[..., dict]
    cap: int | None = None
    lower: Callable[[PolyQ], HeightInterval] | None = None
    hypothesis: Callable[[int, int | None, Fraction], bool] = lambda d, e, c: True


_EMPTY_UP_TO_UNITS = "Z(f,0) = empty (units reported separately)"

CLAIMS: dict[str, Claim] = {claim.id: claim for claim in (
    # Cor 1.2: z^d + c with d >= 3, c a non-integer rational,
    # |c| > 2^(d/(d-1)): the Zsigmondy set is empty.
    Claim(
        "cor12", BINOMIAL, lambda c: True, "Z(f,0) = empty", _cor12_checks,
        lower=ingram_lower_bound,
        hypothesis=lambda d, e, c: (
            d >= 3 and c.denominator > 1 and hypothesis_abs_c_exceeds(c, d)
        ),
    ),
    # Thm 1.3: z^d + z^e + c with |c| > 2: no Zsigmondy index exceeds 6.
    Claim(
        "thm13", TRINOMIAL, lambda c: abs(c) > 2, "every Zsigmondy index <= 6",
        _thm13_checks, cap=6, lower=trinomial_family_lower,
    ),
    # Prop 5.1: 1 < c < 2: no Zsigmondy index exceeds 7.
    Claim(
        "prop51", TRINOMIAL, lambda c: 1 < c < 2, "every Zsigmondy index <= 7",
        _prop51_checks, cap=7, lower=trinomial_family_lower,
    ),
    # Props 5.2-5.4: empty Zsigmondy set, up to the unit-numerator convention,
    # for 0 < c < 1; for -1 < c < 0 with d odd; for -2 < c < -1 with d odd
    # or e even.
    Claim("prop52", TRINOMIAL, lambda c: 0 < c < 1, _EMPTY_UP_TO_UNITS, _prop52_checks),
    Claim(
        "prop53", TRINOMIAL, lambda c: -1 < c < 0, _EMPTY_UP_TO_UNITS, _prop53_checks,
        hypothesis=lambda d, e, c: d % 2 == 1,
    ),
    Claim(
        "prop54", TRINOMIAL, lambda c: -2 < c < -1, _EMPTY_UP_TO_UNITS, _prop54_checks,
        hypothesis=lambda d, e, c: d % 2 == 1 or e % 2 == 0,
    ),
)}


def default_horizon(theorem_id: str) -> int:
    return max((CLAIMS[theorem_id].cap or 0) + 4, 10)


def verify(
    theorem_id: str,
    d: int,
    c: Fraction,
    e: int | None = None,
    config: RunConfig | None = None,
    horizon: int | None = None,
) -> TheoremVerdict:
    """Check claim ``theorem_id`` at one point (``e`` is ignored for cor12)."""
    claim = CLAIMS.get(theorem_id)
    if claim is None:
        raise ValueError(f"unknown theorem id: {theorem_id!r}")
    if claim.family == TRINOMIAL and e is None:
        raise ValueError(f"{theorem_id} requires a middle exponent e")
    cfg = config or RunConfig()
    c = Fraction(c)
    # trinomial() rejects e outside 2 <= e < d, so hypotheses never repeat it
    f = binomial(d, c) if claim.family == BINOMIAL else trinomial(d, e, c)
    hypothesis = claim.in_range(c) and claim.hypothesis(d, e, c)
    if horizon is None:
        horizon = default_horizon(theorem_id)
    entries, report, error = _observe(f, horizon, cfg)
    details: dict = {"horizon_used": len(entries)}
    if error:
        details["error"] = error
    elements: list[int] = []
    if report is not None:
        elements = list(report.elements)
        details["unit_exceptions"] = [v.n for v in report.per_index if v.is_unit]
        details["rigid_violations"] = len(report.rigid_violations)
    consistent = True
    if hypothesis and error is None:
        if claim.lower is not None:
            hhat_lower, C = claim.lower(f).lower, family_C(c)
            bound = theorem1_bound(f, hhat_lower, C)
            details.update(
                hhat_lower=hhat_lower, C=C, n_max=bound.n_max,
                n_max_floor=bound.n_max_floor, bound_certified=bound.certified,
            )
        checks = claim.checks(d, e, c, entries)
        details.update(checks)
        consistent = all(v for v in checks.values() if isinstance(v, bool))
        if claim.cap is None:
            details["screen_inconclusive"] = _divisibility_screen_inconclusive(entries)
            # Only unit indices may sit in the set.  For cor12 this is the same
            # as demanding an empty set: growth_verified (|f^n(0)| > 2) forces
            # |A_n| >= 3, so no unit index occurs whenever it holds.
            consistent = (
                consistent
                and all(n in details["unit_exceptions"] for n in elements)
                and not details["screen_inconclusive"]
            )
        else:
            consistent = (
                consistent
                and all(n <= claim.cap for n in elements)
                and details["n_max"] < claim.cap + 1
            )
    return TheoremVerdict(
        theorem_id, str(f), hypothesis, claim.predicted, elements, consistent, details
    )


def classify_point(d: int, e: int | None, c: Fraction) -> str | None:
    """Pick the applicable claim id for a grid point, or None if no claim
    covers this c range."""
    family = BINOMIAL if e is None else TRINOMIAL
    return next(
        (cl.id for cl in CLAIMS.values() if cl.family == family and cl.in_range(c)),
        None,
    )


def point_key(theorem_id: str | None, d: int, e: int | None, c: Fraction) -> str:
    middle = "" if e is None else f":e={e}"
    return f"{theorem_id or 'unclassified'}:d={d}{middle}:c={c}"


def _run_point(point, horizon: int | None, cfg: RunConfig) -> tuple[str, TheoremVerdict]:
    d, e, c = point
    theorem_id = classify_point(d, e, c)
    if theorem_id is None:
        f = binomial(d, c) if e is None else trinomial(d, e, c)
        return point_key(None, d, e, c), TheoremVerdict(
            "unclassified", str(f), False,
            "no claim covers this parameter range", [], True,
            {"d": d, "e": e, "c": str(c)},
        )
    return point_key(theorem_id, d, e, c), verify(theorem_id, d, c, e, cfg, horizon)
