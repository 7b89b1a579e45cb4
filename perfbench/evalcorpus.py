"""eval-corpus: ``abrlab eval`` of each algorithm over a cooked test corpus.

Set-up writes the lab (see ``lab.py``).  One timed operation is a cycle of
four ``abrlab eval --config <one-algorithm run.json>`` calls through
``cli.main``: bb, rb, mpc and dt.  After each cycle, outside its time, the
same is done for dp with pruning: the planner is timed in desk-pipeline,
and here it would make up over half of the cycle and hide the other four.
Each call is one attempt with its own output checks.  No training runs
after set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

from abrlab import cli

import checks
from common import Context, Result, is_traced, repeat_setup, timed_ops, trace_overhead
from layers import layer_metrics
from lab import ALGORITHMS, N_TEST_TRACES, build_lab

GOLDEN_PATH = Path(__file__).with_name("golden.json")
CYCLE = ("bb", "rb", "mpc", "dt")  # the timed part of each operation; dp runs after it


def load_golden(seed: int) -> dict[str, dict] | None:
    """Golden aggregate rows (bb, rb, mpc, dp) when ``seed`` is the seed they were recorded with."""
    doc = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return doc["rows"] if doc["seed"] == seed else None


def run(ctx: Context) -> Result:
    golden = load_golden(ctx.seed)
    setup_s, lab = repeat_setup(lambda: build_lab(ctx.work / "lab", ctx.seed))
    eval_s: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
    cycle_ms: dict[bool, list[float]] = {False: [], True: []}  # traced -> cycle times
    problems: list[str] = []
    attempts = failures = 0
    rows: dict[str, dict] = {}

    def op(i: int) -> None:
        nonlocal attempts, failures
        traced = is_traced(ctx, i)
        cycle = 0.0
        for alg in ALGORITHMS:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(["eval", "--config", str(lab.configs[alg])])
                seconds = time.perf_counter() - t0
            if alg in CYCLE:
                cycle += seconds
            if not traced:
                eval_s[alg].append(seconds)
            attempts += 1
            found = [f"exit code {code}"] if code else []
            found += checks.eval_report(lab.reports[alg], {alg: golden[alg]} if golden and alg in golden else None)
            if not found:
                rows[alg] = checks.load_aggregates(lab.reports[alg])[0]
            problems.extend(f"cycle {i} {alg}: {p}" for p in found)
            failures += bool(found)
        cycle_ms[traced].append(cycle * 1e3)

    timings = timed_ops(op, ctx, "eval-cycle")
    op_ms = cycle_ms[False]
    sessions = N_TEST_TRACES * len(CYCLE) * len(op_ms)
    medians = {a: statistics.median(eval_s[a]) for a in ALGORITHMS}
    result = Result(
        setup_s=setup_s,
        op_p50_ms=statistics.median(op_ms),
        throughput_per_s=sessions / (sum(op_ms) / 1e3),
        attempted=attempts,
        failed=failures,
        unexpected=problems,
        figures={f"sessions_per_s.{a}": (N_TEST_TRACES / medians[a], "sessions/s") for a in ALGORITHMS},
        details={
            "golden_checked": golden is not None,
            "cycle_ms": op_ms,
            "cycle_share": {a: medians[a] / sum(medians[c] for c in CYCLE) for a in CYCLE},
            "eval_s": eval_s,
            "aggregates": rows,
        },
    )
    if ctx.trace:
        result.spans = timings.recorder.spans
        result.layers = layer_metrics(result.spans, len(cycle_ms[True]), trace_overhead(op_ms, cycle_ms[True]))
    return result
