"""In-memory span recorder that wraps a program's public functions from outside.

A span is one call into a wrapped function: its name, start, end, parent
span and the operation it belongs to.  Spans of one operation share an id.
Nothing is written while recording; ``dump`` writes everything at the end.

The recorder replaces functions by module attribute.  Because a module may
hold its own binding of another module's function (``from .sim import
run_policy``), ``install`` replaces every binding of the original object in
every loaded module of the package, not only the defining one.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


@dataclass
class Span:
    id: int
    parent: int  # 0 for a root span
    op: int
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target(NamedTuple):
    """A function or method to wrap.

    ``attrs(args, kwargs, result)`` annotates its spans; ``around(recorder,
    fn)`` may replace the wrapped callable first (e.g. to time a callback).
    """

    module: str
    qualname: str
    attrs: Callable | None = None
    around: Callable | None = None


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children.get(s.id, ())) for s in spans}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn: Callable, args=(), kwargs=None, attrs: Callable | None = None):
        """Call ``fn`` inside a span named ``name``; ``attrs(args, kwargs, result)`` annotates it."""
        kwargs = kwargs or {}
        stack = self._stack()
        span_id = next(self._ids)
        parent, op = stack[-1] if stack else (0, span_id)
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        self.spans.append(
            Span(span_id, parent, op, name, start, end, attrs(args, kwargs, result) if attrs else {})
        )
        return result

    def operation(self, name: str, fn: Callable, *args, **kwargs):
        """Run one benchmark operation as a root span; its descendants share its id."""
        return self.record(name, fn, args, kwargs)

    # -- patching ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        record = self.record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return record(name, fn, args, kwargs, attrs)

        return wrapper

    def install(self, package: str, targets: list[Target]) -> None:
        """Wrap each target, e.g. ``Target("abrlab.nn", "Affine.forward")``.

        Functions are replaced in every loaded module of ``package`` that
        binds them; methods are replaced on their class.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for target in targets:
            owner = sys.modules[target.module]
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            inner = target.around(self, original) if target.around else original
            span_name = f"{target.module.rsplit('.', 1)[-1]}.{target.qualname}"
            wrapper = self.wrap(span_name, inner, target.attrs)
            if path:
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        dump_spans(self.spans, path)


def dump_spans(spans: list[Span], path) -> None:
    rows = [[s.id, s.parent, s.op, s.name, s.start, s.end, s.attrs] for s in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(*row) for row in json.load(fh)]
