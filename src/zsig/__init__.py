"""Orbits of rational polynomials at 0: primitive prime divisors, Zsigmondy
sets, and explicit canonical-height index bounds, all in exact arithmetic.

``import zsig`` loads no submodule: each public name loads its defining
module on first access (PEP 562), so ``zsig.factor`` loads only ``arith``
and ``config``.
"""

from importlib import import_module

# The public names, by defining module.
_MODULES = {
    "arith": "FactorReport factor is_prime v_p",
    "bounds": "BoundResult SignSets check_condition3 compute_sign_sets omega "
    "omega_inequality_audit prop31_check theorem1_bound",
    "config": "RunConfig config_from_env",
    "heights": "GlobalC HeightInterval canonical_height_interval family_C global_C "
    "global_height ingram_lower_bound lemma41_lower_bound local_C_v "
    "trinomial_D_lower trinomial_family_lower",
    "orbits": "DigitBudgetError FiniteOrbitError Orbit OrbitEntry iterate_point orbit "
    "wandering_entries",
    "polynomials": "ParseError PolyQ parse_poly",
    "verifiers": "CLAIMS SweepSpec TheoremVerdict run_sweep verify",
    "zsigmondy": "PrimitiveVerdict ZsigmondyReport check_zsigmondy_divisibility "
    "verify_rigid_divisibility zsigmondy_set",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached in this namespace: zsig.X stays the defining module's X, even
    # after that module's attribute is swapped and restored
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
