"""desk-pipeline: ``harness.run_pipeline`` on a reduced desk configuration.

The acceptance suite's desk config with its model size, batch of 128, K=4,
L=4, segment-mean range (0.4, 3.0) Mbps, all five algorithms and dominance
pruning, but fewer traces, a coarser estimator grid and fewer training
steps, so that one run takes seconds.  The pipeline regenerates everything
from the seed, so the timed operation is the whole pipeline.
"""

from __future__ import annotations

import statistics
from dataclasses import replace

from abrlab import harness

import checks
from common import Context, Result, repeat_setup, timed_ops, trace_overhead
from layers import layer_metrics

ALGORITHMS = ("bb", "rb", "mpc", "dt", "dp")

# Reduced scale; everything not named here keeps the desk value.
DESK_SCALE = dict(
    n_train_traces=8,
    n_test_traces=4,
    dt_steps=20,
    grid_mu_step=1.1,
    grid_sigma_step=3.0,
    estimator_epochs=40,
)
# Set-up runs a miniature pipeline: it warms every code path and checks the
# output directory before anything is timed.
SMOKE_SCALE = dict(
    n_train_traces=1,
    n_test_traces=1,
    dt_steps=2,
    grid_mu_step=5.5,
    grid_sigma_step=3.0,
    estimator_epochs=2,
)


def desk_config(seed: int) -> harness.PipelineConfig:
    return harness.PipelineConfig(
        seed=seed,
        mu_range=(0.4, 3.0),
        sigma_rel_range=(0.15, 0.4),
        segment_s=(12.0, 35.0),
        algorithms=ALGORITHMS,
        dominance_prune=True,
        **DESK_SCALE,
    )


def run(ctx: Context) -> Result:
    config = desk_config(ctx.seed)
    smoke = replace(config, **SMOKE_SCALE)
    out = ctx.work / "report"
    setup_problems: list[str] = []

    def setup() -> None:
        report, _ = harness.run_pipeline(smoke, ctx.work / "smoke")
        setup_problems[:] = checks.report_files(ctx.work / "smoke") + checks.aggregate_identity(
            [vars(a) for a in report.aggregates]
        )

    setup_s, _ = repeat_setup(setup)
    problems: list[str] = []  # unexpected
    dp_below: list[str] = []  # the known planner/simulator gap, see README.md
    failed: set[int] = set()
    known: set[int] = set()

    def op(i: int) -> None:
        harness.run_pipeline(config, out / str(i))
        found = checks.pipeline_report(out / str(i), ALGORITHMS)
        problems.extend(f"pipeline {i}: {p}" for p in found)
        below = [] if found else checks.dp_on_top(out / str(i))
        dp_below.extend(f"pipeline {i}: {p}" for p in below)
        if found:
            failed.add(i)
        elif below:
            known.add(i)

    timings = timed_ops(op, ctx, "pipeline")
    op_ms = timings.untraced_ms
    unexpected = [f"set-up: {p}" for p in setup_problems] + problems
    attempted = len(timings.untraced_ms) + len(timings.traced_ms)
    result = Result(
        setup_s=setup_s,
        op_p50_ms=statistics.median(op_ms),
        throughput_per_s=len(op_ms) / (sum(op_ms) / 1e3),
        attempted=attempted,
        failed=len(failed),
        unexpected=unexpected,
        known={"dp_below_other_row": len(known)},
        figures={"pipeline_s": (statistics.median(op_ms) / 1e3, "s")},
        details={"op_ms": op_ms, "config": DESK_SCALE, "dp_below_other_rows": dp_below},
    )
    if ctx.trace:
        result.spans = timings.recorder.spans
        extra = trace_overhead(timings.untraced_ms, timings.traced_ms)
        extra["expert.dp_below_other_row.pct"] = 100.0 * len(known) / attempted
        result.layers = layer_metrics(result.spans, len(timings.traced_ms), extra)
    return result
