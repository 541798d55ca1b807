"""The lazy package namespace: ``import zsig`` loads no submodule, and each
public name is its defining module's object."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zsig
import zsig.cli  # noqa: F401  (the tracer wraps names in every zsig module)
from perfbench.tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def _defining_object(name):
    return getattr(sys.modules[f"zsig.{zsig._HOME[name]}"], name)


def test_import_loads_no_submodule(tmp_path):
    code = (
        "import sys, zsig\n"
        "print(sorted(m for m in sys.modules if m.startswith('zsig')))\n"
        "zsig.factor\n"
        "print(sorted(m for m in sys.modules if m.startswith('zsig')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['zsig']",
        "['zsig', 'zsig.arith', 'zsig.config']",
    ]


def test_every_public_name_is_its_defining_modules_object():
    assert len(zsig.__all__) == len(set(zsig.__all__)) == 45
    listed = dir(zsig)
    for name in zsig.__all__:
        assert getattr(zsig, name) is _defining_object(name)
        assert name in listed
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        zsig.nope


def test_public_names_follow_a_tracer_install_and_uninstall():
    originals = {name: getattr(zsig, name) for name in zsig.__all__}
    tracer = Tracer()
    tracer.install()
    try:
        assert zsig.factor is not originals["factor"]  # the tracer's wrapper
        for name in zsig.__all__:
            assert getattr(zsig, name) is _defining_object(name)
    finally:
        tracer.uninstall()
    for name in zsig.__all__:
        assert getattr(zsig, name) is originals[name] is _defining_object(name)
    # nothing is cached in the package, where a wrapper seen once would outlive uninstall
    assert not set(zsig.__all__) & set(vars(zsig))
