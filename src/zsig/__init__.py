"""Orbits of rational polynomials at 0: primitive prime divisors, Zsigmondy
sets, and explicit canonical-height index bounds, all in exact arithmetic."""

from .arith import FactorReport, factor, is_prime, v_p
from .bounds import (
    BoundResult,
    SignSets,
    check_condition3,
    compute_sign_sets,
    omega,
    omega_inequality_audit,
    prop31_check,
    theorem1_bound,
)
from .config import RunConfig, config_from_env
from .heights import (
    GlobalC,
    HeightInterval,
    canonical_height_interval,
    family_C,
    global_C,
    global_height,
    ingram_lower_bound,
    lemma41_lower_bound,
    local_C_v,
    trinomial_D_lower,
    trinomial_family_lower,
)
from .orbits import (
    DigitBudgetError,
    FiniteOrbitError,
    Orbit,
    OrbitEntry,
    iterate_point,
    orbit,
    wandering_entries,
)
from .polynomials import ParseError, PolyQ, parse_poly
from .verifiers import CLAIMS, SweepSpec, TheoremVerdict, run_sweep, verify
from .zsigmondy import (
    PrimitiveVerdict,
    ZsigmondyReport,
    check_zsigmondy_divisibility,
    verify_rigid_divisibility,
    zsigmondy_set,
)

__version__ = "0.1.0"
