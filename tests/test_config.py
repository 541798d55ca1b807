from dataclasses import fields

import pytest

from zsig import RunConfig, config_from_env
from zsig.config import INT_KNOBS
from zsig.verifiers import SweepSpec


def test_defaults():
    cfg = RunConfig()
    assert cfg.digit_budget == 200_000
    assert cfg.factor_rho_budget == 100_000_000
    assert cfg.workers == 1
    assert cfg.output_format == "text"


def test_validation():
    with pytest.raises(ValueError):
        RunConfig(digit_budget=0)
    with pytest.raises(ValueError):
        RunConfig(workers=-1)
    with pytest.raises(ValueError):
        RunConfig(output_format="xml")


def test_with_overrides_ignores_none():
    cfg = RunConfig().with_overrides(digit_budget=None, workers=3)
    assert cfg.workers == 3 and cfg.digit_budget == 200_000


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("ZSIG_FACTOR_RHO_BUDGET", "11")
    monkeypatch.setenv("ZSIG_WORKERS", "2")
    monkeypatch.setenv("ZSIG_FORMAT", "json")
    cfg = config_from_env()
    assert cfg.factor_rho_budget == 11
    assert cfg.workers == 2
    assert cfg.output_format == "json"


def test_knob_lists_come_from_the_fields(monkeypatch):
    names = [f.name for f in fields(RunConfig)]
    assert names == ["digit_budget", "factor_rho_budget", "workers", "output_format"]
    assert INT_KNOBS == tuple(n for n in names if n != "output_format")
    spec = {"family": "z^d+c", "d": [3], "c": ["7/2"]}
    for name in INT_KNOBS:
        # every integer field is a ZSIG_<FIELD> variable and a sweep budget
        monkeypatch.setenv("ZSIG_" + name.upper(), "7")
        assert getattr(config_from_env(), name) == 7
        monkeypatch.delenv("ZSIG_" + name.upper())
        budgets = SweepSpec.from_dict({**spec, "budgets": {name: 7}}).budgets
        assert budgets == ((name, 7),)
        # and every one must be positive
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: 0})
    for name in ("output_format", "primality_rounds", "factor_trial_bound", "seed"):
        with pytest.raises(ValueError, match="unknown budget field"):
            SweepSpec.from_dict({**spec, "budgets": {name: 1}})
    # a misspelt or removed knob is an error, not a silent default
    monkeypatch.setenv("ZSIG_PRIMALITY_ROUNDS", "0")
    with pytest.raises(ValueError, match="ZSIG_PRIMALITY_ROUNDS"):
        config_from_env()
