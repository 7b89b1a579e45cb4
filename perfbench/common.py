"""Pieces shared by the workloads: the run context, the result record and the timing loop."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import layers
from spans import Recorder, Span

SETUP_REPEATS = 3


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path  # scratch directory inside the checkout, removed after the run


@dataclass
class Result:
    setup_s: list[float]
    op_p50_ms: float
    throughput_per_s: float
    attempted: int
    failed: int  # operations with a wrong output that no documented known defect explains
    unexpected: list[str] = field(default_factory=list)  # those failures, and set-up problems
    known: dict[str, int] = field(default_factory=dict)  # operations showing each documented known defect
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)  # named workload figures
    layers: dict[str, float] | None = None
    spans: list[Span] = field(default_factory=list)  # traced runs: every span recorded
    details: dict = field(default_factory=dict)


def repeat_setup(setup: Callable[[], object]) -> tuple[list[float], object]:
    """Run ``setup`` SETUP_REPEATS times; returns every duration and the last result."""
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return times, result


@dataclass
class Timings:
    untraced_ms: list[float] = field(default_factory=list)
    traced_ms: list[float] = field(default_factory=list)
    recorder: Recorder = field(default_factory=Recorder)


def trace_overhead(untraced_ms: list[float], traced_ms: list[float]) -> dict[str, float]:
    """Tracing overhead: traced minus untraced median operation time."""
    if not untraced_ms or not traced_ms:
        return {}
    base = statistics.median(untraced_ms)
    diff = statistics.median(traced_ms) - base
    return {"trace.overhead.op_p50_ms": diff, "trace.overhead.pct": 100.0 * diff / base}


def is_traced(ctx: Context, i: int) -> bool:
    """Whether ``timed_ops`` runs operation ``i`` traced."""
    return ctx.trace and i % 2 == 1


def timed_ops(op: Callable[[int], None], ctx: Context, name: str) -> Timings:
    """Run ``op(i)`` until ``ctx.seconds`` have passed, at least once.

    With tracing, operations alternate untraced and traced (at least one of
    each), so the same run yields per-layer spans and the tracing overhead.
    """
    timings = Timings()
    start = time.perf_counter()
    i = 0
    while True:
        traced = is_traced(ctx, i)
        if traced:
            layers.install(timings.recorder)
        t0 = time.perf_counter()
        try:
            if traced:
                timings.recorder.operation(f"op.{name}", op, i)
            else:
                op(i)
        finally:
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            if traced:
                timings.recorder.uninstall()
        (timings.traced_ms if traced else timings.untraced_ms).append(elapsed_ms)
        i += 1
        if time.perf_counter() - start >= ctx.seconds and (not ctx.trace or i >= 2):
            return timings
