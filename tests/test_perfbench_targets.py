"""Every function the benchmark's traced runs wrap still exists under its name."""

from __future__ import annotations

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
