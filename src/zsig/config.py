"""Run-wide knobs: budgets, workers, output format.

Every budget has a conservative default so interactive runs stay desk-scale;
batch code (tests, sweeps) passes explicit values instead.  Results are
deterministic for fixed (input, budget).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

# Numerators grow roughly like d^n digits; this keeps d=2, N~18 runs in range.
DEFAULT_DIGIT_BUDGET = 200_000
DEFAULT_RHO_BUDGET = 100_000_000

_ENV_PREFIX = "ZSIG_"


@dataclass(frozen=True)
class RunConfig:
    """The knobs.  Every field is also read from ``ZSIG_<FIELD>`` in the
    environment (``ZSIG_FORMAT`` for ``output_format``).  Every integer field
    may be pinned in a sweep spec's budgets and must be positive."""

    digit_budget: int = DEFAULT_DIGIT_BUDGET
    factor_rho_budget: int = DEFAULT_RHO_BUDGET
    workers: int = 1
    output_format: str = "text"

    def __post_init__(self) -> None:
        for name in INT_KNOBS:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format: {self.output_format!r}")

    def with_overrides(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self


INT_KNOBS = tuple(f.name for f in fields(RunConfig) if isinstance(f.default, int))


def config_from_env(base: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig with ZSIG_* environment overrides applied; any other
    ZSIG_* variable is a misspelt knob and raises ValueError."""
    knobs = {
        _ENV_PREFIX + ("FORMAT" if f.name == "output_format" else f.name.upper()): f
        for f in fields(RunConfig)
    }
    unknown = sorted(k for k in os.environ if k.startswith(_ENV_PREFIX) and k not in knobs)
    if unknown:
        raise ValueError(f"unknown environment variable: {', '.join(unknown)}")
    overrides = {
        f.name: type(f.default)(os.environ[name])  # int(raw), or the format string
        for name, f in knobs.items()
        if name in os.environ
    }
    return (base or RunConfig()).with_overrides(**overrides)
