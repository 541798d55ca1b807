"""The lazy package namespace: ``import zsig`` loads no submodule, and each
public name is its defining module's object."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zsig
import zsig.cli  # noqa: F401  (the tracer wraps names in every zsig module)
from perfbench.tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


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
    assert len(zsig.__all__) == len(set(zsig.__all__)) == 44
    listed = dir(zsig)
    for name in zsig.__all__:
        assert getattr(zsig, name) is _defining_object(name)
        assert name in listed
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        zsig.nope


def test_readme_library_api_list_matches_the_package():
    lines = README.read_text().splitlines()
    start = lines.index("Library API, the names of `zsig.__all__` by defining module:") + 2
    documented = {}
    for line in lines[start:]:
        if not line.startswith("- "):
            break
        module, names = line[2:].split(": ")
        for name in names.split(", "):
            documented[name.strip("`")] = module.strip("`")
    assert documented == zsig._HOME
    assert list(documented) == zsig.__all__ and len(documented) == 44


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


def test_only_orbits_names_the_unbuilt_entry_type():
    # other modules ask an entry ``built`` and ``compare``; the source text is
    # read, so an import added later fails too
    modules = (SRC / "zsig").glob("*.py")
    assert {path.stem for path in modules if "PendingEntry" in path.read_text()} == {"orbits"}


def _imported(module: str) -> list[str]:
    """Every name that ``src/zsig/<module>.py`` imports, at any depth, relative
    ones with their dots; ``from a import b`` gives both ``a`` and ``a.b``."""
    imported = []
    for node in ast.walk(ast.parse((SRC / "zsig" / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported += [base, *(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)]
    return imported


def test_pool_imports_nothing_from_zsig():
    # so that any zsig module may import the pool lazily without a cycle; the
    # source is read, so an import added later fails too
    imported = _imported("pool")
    assert "os" in imported
    assert not [name for name in imported if name.startswith((".", "zsig"))]


def test_no_module_imports_dataclasses():
    # every record is a typing.NamedTuple: importing dataclasses and building
    # its classes cost each command about 15 ms of cold start
    modules = sorted(path.stem for path in (SRC / "zsig").glob("*.py"))
    assert {"arith", "config", "verifiers"} <= set(modules)
    assert [module for module in modules if "dataclasses" in _imported(module)] == []


def _pool_policy_reads(module: str) -> list[str]:
    """Each read of ``os.fork`` (``hasattr(os, "fork")`` included) and each
    call of ``usable_cpus`` in ``src/zsig/<module>.py``."""
    reads = []
    for node in ast.walk(ast.parse((SRC / "zsig" / f"{module}.py").read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ("fork", "usable_cpus"):
            reads.append(node.attr)
        elif isinstance(node, ast.Constant) and node.value == "fork":
            reads.append("fork")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "usable_cpus":
            reads.append("usable_cpus")
    return reads


def test_only_the_pool_decides_where_a_batch_runs():
    # a caller that checked for fork or counted CPUs itself would hold a second
    # copy of pool.imap's policy; config counts the CPUs only for the command
    # line's default of --workers
    reads = {path.stem: _pool_policy_reads(path.stem) for path in (SRC / "zsig").glob("*.py")}
    assert {"fork", "usable_cpus"} <= set(reads.pop("pool"))
    assert reads.pop("config") == ["usable_cpus"]
    assert {module: found for module, found in reads.items() if found} == {}


def test_verifiers_imports_nothing_from_sweep():
    # sweep imports verifiers, never the other way; the source is read, so a
    # lazy import added later fails too
    imported = _imported("verifiers")
    assert ".config" in imported and ".config.RunConfig" in imported
    assert not [name for name in imported if name.split(".")[-1] == "sweep"]
    assert ".sweep" in _imported("cli") and ".verifiers" in _imported("sweep")


def test_every_module_imports_alone():
    # an import cycle fails for the module imported first, so each module is
    # imported first, in a fresh interpreter
    modules = sorted(path.stem for path in (SRC / "zsig").glob("*.py"))
    assert {"cli", "pool", "sweep", "verifiers"} <= set(modules)
    for module in modules:
        proc = subprocess.run(
            [sys.executable, "-c", f"import zsig.{module}"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
        )
        assert proc.returncode == 0, f"zsig.{module}: {proc.stderr}"


def test_a_traced_sweep_has_one_point_span_per_point(tmp_path, capsys):
    # perfbench's per-point figures read the spans of the names it wraps; a
    # sweep that called around those names would leave them at 0
    spec_path, out_path = tmp_path / "grid.json", tmp_path / "out.jsonl"
    spec_path.write_text(json.dumps(
        {"family": "z^d+z^e+c", "d": [3], "e": [2], "c": ["5/2", "3/2", "1/2", "1"],
         "horizon": 2}
    ))
    argv = ["sweep", str(spec_path), "-o", str(out_path), "--workers", "1"]
    tracer = Tracer()
    tracer.install()
    try:
        code = sys.modules["zsig.cli"].main(argv)  # the tracer's wrapper of main
    finally:
        tracer.uninstall()
    assert code == 0 and len(out_path.read_text().splitlines()) == 4
    points = [i for i, span in enumerate(tracer.spans) if span[0] == "verifiers.point"]
    verifies = [span for span in tracer.spans if span[0] == "verifiers.verify"]
    # each of the three classified points is verified inside its own point
    # span; c = 1 is unclassified, a point span with no verify
    assert len(points) == 4 and [span[3] for span in verifies] == points[:3]
