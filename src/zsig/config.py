"""Run-wide knobs: budgets, workers, output format.

Every budget has a conservative default so interactive runs stay desk-scale;
batch code (tests, sweeps) passes explicit values instead.  Results are
deterministic for fixed (input, budget).
"""

from __future__ import annotations

import os
from typing import NamedTuple

# Numerators grow roughly like d^n digits; this keeps d=2, N~18 runs in range.
DEFAULT_DIGIT_BUDGET = 200_000
DEFAULT_RHO_BUDGET = 100_000_000

_ENV_PREFIX = "ZSIG_"
OUTPUT_FORMATS = ("text", "json", "csv")


# typing.NamedTuple forbids __new__ in its body: the checks sit on the subclass
class _RunConfigFields(NamedTuple):
    digit_budget: int = DEFAULT_DIGIT_BUDGET
    factor_rho_budget: int = DEFAULT_RHO_BUDGET
    workers: int = 1
    output_format: str = "text"


class RunConfig(_RunConfigFields):
    """The knobs.  Every field is also read from ``ZSIG_<FIELD>`` in the
    environment (``ZSIG_FORMAT`` for ``output_format``).  Every integer field
    must be positive; the ``BUDGETS`` may be pinned in a sweep spec."""

    def __new__(cls, *args, **kwargs) -> "RunConfig":
        self = super().__new__(cls, *args, **kwargs)
        for name in INT_KNOBS:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"unknown output format: {self.output_format!r}")
        return self

    def with_overrides(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return RunConfig(**{**self._asdict(), **kwargs}) if kwargs else self


INT_KNOBS = tuple(k for k, v in RunConfig._field_defaults.items() if isinstance(v, int))
# the knobs that can change a result record, so the only ones a spec may pin
BUDGETS = ("digit_budget", "factor_rho_budget")


def env_name(field: str) -> str:
    return _ENV_PREFIX + ("FORMAT" if field == "output_format" else field.upper())


def config_from_env() -> RunConfig:
    """Build a RunConfig with ZSIG_* environment overrides applied; any other
    ZSIG_* variable is a misspelt knob and raises ValueError.  Unless
    ``ZSIG_WORKERS`` sets it, ``workers`` is the CPUs this process may use:
    the command line's default, where ``RunConfig()`` keeps a library call
    to one process."""
    knobs = {env_name(field): (field, type(default))
             for field, default in RunConfig._field_defaults.items()}
    unknown = sorted(k for k in os.environ if k.startswith(_ENV_PREFIX) and k not in knobs)
    if unknown:
        raise ValueError(f"unknown environment variable: {', '.join(unknown)}")
    overrides = {}
    for name, (field, kind) in knobs.items():
        if name in os.environ:
            try:
                overrides[field] = kind(os.environ[name])  # int(raw), or the format
            except ValueError:
                raise ValueError(f"{name} must be an integer: {os.environ[name]!r}") from None
    if "workers" not in overrides:
        from .pool import usable_cpus

        overrides["workers"] = usable_cpus()
    return RunConfig(**overrides)
