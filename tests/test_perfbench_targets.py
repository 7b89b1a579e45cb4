"""Every function the benchmark's traced runs wrap still exists under its name."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(target):
    owner = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner).get(attr)


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for target in layers.TARGETS:
        assert callable(_resolve(target)), f"{target.module}.{target.qualname} is gone"


def test_traced_run_installs_on_the_package(monkeypatch):
    """The benchmark's recorder wraps every target in the loaded package, and uninstalling restores each one."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    importlib.import_module("abrlab.cli")
    importlib.import_module("abrlab.service")
    originals = [_resolve(target) for target in layers.TARGETS]
    recorder = spans.Recorder()
    try:
        recorder.install("abrlab", layers.TARGETS)
        for target, original in zip(layers.TARGETS, originals):
            assert _resolve(target) is not original, f"{target.module}.{target.qualname} is not wrapped"
    finally:
        recorder.uninstall()
    assert [_resolve(target) for target in layers.TARGETS] == originals


def _package_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) pairs a benchmark file reads off the package: ``a.name`` after
    ``from abrlab import m [as a]``, and ``n`` of ``from abrlab.m import n``."""
    aliases: dict[str, str] = {}
    names: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "abrlab":
            aliases.update((a.asname or a.name, f"abrlab.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("abrlab."):
            names.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add((aliases[node.value.id], node.attr))
    return names


def test_names_the_benchmark_reads_resolve():
    """Every package name a benchmark file reads outside the traced targets still exists, e.g. the
    ``est.STARTUP_PRIOR`` of decide-http's set-up."""
    read = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        read |= {(module, name, path.name) for module, name in _package_names(ast.parse(path.read_text()))}
    assert ("abrlab.estimator", "STARTUP_PRIOR", "decide.py") in read
    missing = [f"{file}: {module}.{name}" for module, name, file in sorted(read)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing
