"""Every function the benchmark's traced runs wrap still exists under its name."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for target in layers.TARGETS:
        owner = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"{target.module}.{target.qualname} is gone"
