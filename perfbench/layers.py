"""Which abrlab functions the traced run wraps, and the per-layer metrics it derives.

Every per-layer metric is listed in ``PER_LAYER`` with its unit and the
direction that counts as better.  A traced run reports all of them; a layer
the workload never enters reads 0.  Counts are per timed operation
("calls/op"); times are means per call unless the name says otherwise.
"""

from __future__ import annotations

import statistics

from spans import Recorder, Span, Target, self_times

ALGORITHMS = ("bb", "rb", "mpc", "dt", "dp")

PER_LAYER: list[tuple[str, str, str]] = [
    ("cli.eval.s", "s", "lower"),
    ("cli.serve.ready_s", "s", "lower"),
    ("traces.load_trace_file.ms", "ms", "lower"),
    ("traces.gen_switching_trace.ms", "ms", "lower"),
    ("qoe.session_qoe.us", "us", "lower"),
    ("sim.run_policy.calls", "calls/op", "lower"),
    *[(f"sim.run_policy.self_ms.{a}", "ms", "lower") for a in ALGORITHMS],
    ("sim.step.calls", "calls/op", "lower"),
    ("expert.dp_plan.calls", "calls/op", "lower"),
    ("expert.dp_plan.p50_ms", "ms", "lower"),
    ("expert.dp_plan.max_ms", "ms", "lower"),
    ("expert.plan_session.ms", "ms", "lower"),
    ("expert.trajectory_from_log.ms", "ms", "lower"),
    ("expert.dp_below_other_row.pct", "%", "lower"),
    ("estimator.make_estimator_dataset.ms_per_cell", "ms/cell", "lower"),
    ("estimator.train_estimator.s", "s", "lower"),
    ("estimator.estimate.calls", "calls/op", "lower"),
    ("estimator.estimate.us", "us", "lower"),
    ("nn.TransformerBlock.forward.ms", "ms/step", "lower"),
    ("nn.TransformerBlock.backward.ms", "ms/step", "lower"),
    ("nn.LayerNorm.forward.ms", "ms/step", "lower"),
    ("nn.LayerNorm.backward.ms", "ms/step", "lower"),
    ("nn.Affine.forward.ms", "ms/step", "lower"),
    ("nn.Affine.backward.ms", "ms/step", "lower"),
    ("nn.Dropout.forward.ms", "ms/step", "lower"),
    ("nn.AdamW.step.ms", "ms/step", "lower"),
    ("nn.TransformerBlock.forward.infer_us", "us", "lower"),
    ("dt.train_dt.step_ms", "ms", "lower"),
    ("dt.train_dt.tokens_per_s", "tokens/s", "higher"),
    ("dt.train_dt.final_loss", "nats", "lower"),
    ("dt.decide.calls", "calls/op", "lower"),
    ("dt.decide.us", "us", "lower"),
    ("dt.update_window.us", "us", "lower"),
    ("dt.tokenize_window.us", "us", "lower"),
    ("baselines.robust_mpc_decide.calls", "calls/op", "lower"),
    ("baselines.robust_mpc_decide.us", "us", "lower"),
    ("baselines.bb_decide.us", "us", "lower"),
    ("baselines.rb_decide.us", "us", "lower"),
    *[(f"harness.stage.{s}.s", "s", "lower") for s in ("estimator", "expert", "train", "eval")],
    ("harness.evaluate_corpus.s", "s", "lower"),
    ("harness.self_ms", "ms", "lower"),
    ("harness.emit_report.ms", "ms", "lower"),
    ("harness.dt_mean_qoe", "qoe", "higher"),
    ("service.handle_decide.us", "us", "lower"),
    ("service.request_cpu_us.valid", "us", "lower"),
    ("service.request_cpu_us.malformed", "us", "lower"),
    ("service.malformed_cpu_pct", "%", "lower"),
    *[(f"service.status.{c}", "count", "lower" if c == 500 else "higher") for c in (200, 400, 500)],
    ("service.no_response", "count", "lower"),
    ("service.mismatch", "count", "lower"),
    ("service.known_hole_not_400", "count", "lower"),
    ("decide.generator_late_ms", "ms", "lower"),
    ("trace.overhead.op_p50_ms", "ms", "lower"),
    ("trace.overhead.pct", "%", "lower"),
]


def policy_kind(policy) -> str:
    """Algorithm label of a policy handed to ``sim.run_policy``."""
    by_class = {"BufferBasedPolicy": "bb", "RateBasedPolicy": "rb", "RobustMpcPolicy": "mpc", "DtPolicy": "dt"}
    kind = by_class.get(type(policy).__name__)
    if kind:
        return kind
    return "dp" if "dp_factory" in getattr(policy, "__qualname__", "") else "replay"


class TimedPolicy:
    """Forwards a policy's calls through a "policy" span; keeps ``reset`` only if the policy has one."""

    def __init__(self, recorder: Recorder, policy) -> None:
        self._record = recorder.record
        self._policy = policy
        if hasattr(policy, "reset"):
            self.reset = policy.reset

    def __call__(self, state, obs):
        return self._record("policy", self._policy, (state, obs))


def _timed_run_policy(recorder: Recorder, run_policy):
    def run(policy, *args, **kwargs):
        return run_policy(TimedPolicy(recorder, policy), *args, **kwargs)

    return run


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _train_dt_attrs(args, kwargs, result) -> dict:
    config, hyper = _arg(args, kwargs, 1, "config"), _arg(args, kwargs, 2, "hyper")
    history = result[1]
    return {
        "steps": history.steps_run,
        "tokens_per_step": (hyper.batch_size if hyper else 128) * 3 * (config.context_len if config else 4),
        "final_loss": float(history.losses[-1]) if history.losses else None,
    }


def _eval_attrs(args, kwargs, result) -> dict:
    dt_rows = [a.mean_qoe for a in result.aggregates if a.algorithm == "dt"]
    return {"dt_mean_qoe": dt_rows[0] if dt_rows else None}


TARGETS: list[Target] = [
    Target("abrlab.cli", "main", lambda a, k, r: {"cmd": (_arg(a, k, 0, "argv") or [None])[0]}),
    Target("abrlab.traces", "load_trace_file"),
    Target("abrlab.traces", "gen_switching_trace"),
    Target("abrlab.qoe", "session_qoe"),
    Target("abrlab.sim", "run_policy", lambda a, k, r: {"kind": policy_kind(a[0])}, _timed_run_policy),
    Target("abrlab.sim", "step"),
    Target("abrlab.expert", "dp_plan"),
    Target("abrlab.expert", "plan_session"),
    Target("abrlab.expert", "trajectory_from_log"),
    Target("abrlab.estimator", "make_estimator_dataset", lambda a, k, r: {"cells": len(a[0])}),
    Target("abrlab.estimator", "train_estimator"),
    Target("abrlab.estimator", "estimate"),
    *[
        Target("abrlab.nn", f"{cls}.{meth}")
        for cls, meth in [
            ("TransformerBlock", "forward"), ("TransformerBlock", "backward"),
            ("LayerNorm", "forward"), ("LayerNorm", "backward"),
            ("Affine", "forward"), ("Affine", "backward"),
            ("Dropout", "forward"), ("AdamW", "step"),
        ]
    ],
    Target("abrlab.dt", "train_dt", _train_dt_attrs),
    Target("abrlab.dt", "decide"),
    Target("abrlab.dt", "update_window"),
    Target("abrlab.dt", "tokenize_window"),
    Target("abrlab.baselines", "robust_mpc_decide"),
    Target("abrlab.baselines", "bb_decide"),
    Target("abrlab.baselines", "rb_decide"),
    Target("abrlab.harness", "evaluate_corpus", _eval_attrs),
    Target("abrlab.harness", "emit_report"),
    Target("abrlab.harness", "make_policy_factory"),
    Target("abrlab.harness", "SweepContext.trajectories"),
    Target("abrlab.service", "handle_decide", lambda a, k, r: {"status": r[0]}),
]


def install(recorder: Recorder) -> None:
    import abrlab.cli  # noqa: F401  (loads every layer module before patching)
    import abrlab.service  # noqa: F401

    recorder.install("abrlab", TARGETS)


def layer_metrics(spans: list[Span], n_ops: int, extra: dict[str, float] | None = None) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the spans of ``n_ops`` traced operations.

    ``extra`` supplies figures measured outside spans (service statuses,
    server readiness, tracing overhead); anything not measured reads 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    parents = {s.id: s for s in spans}
    selfs = self_times(spans)
    n_ops = max(n_ops, 1)

    def durations(name: str) -> list[float]:
        return [s.duration for s in by_name.get(name, ())]

    def mean(name: str, scale: float) -> float:
        d = durations(name)
        return scale * statistics.fmean(d) if d else 0.0

    def per_op(name: str) -> float:
        return len(by_name.get(name, ())) / n_ops

    def under_training(span: Span) -> bool:
        while span.parent:
            span = parents.get(span.parent)
            if span is None:
                return False
            if span.name == "dt.train_dt":
                return True
        return False

    out: dict[str, float] = {}
    cli_eval = [s.duration for s in by_name.get("cli.main", ()) if s.attrs.get("cmd") == "eval"]
    out["cli.eval.s"] = statistics.fmean(cli_eval) if cli_eval else 0.0
    out["traces.load_trace_file.ms"] = mean("traces.load_trace_file", 1e3)
    out["traces.gen_switching_trace.ms"] = mean("traces.gen_switching_trace", 1e3)
    out["qoe.session_qoe.us"] = mean("qoe.session_qoe", 1e6)

    runs = by_name.get("sim.run_policy", [])
    out["sim.run_policy.calls"] = len(runs) / n_ops
    policy_time: dict[int, float] = {}
    for s in by_name.get("policy", ()):
        policy_time[s.parent] = policy_time.get(s.parent, 0.0) + s.duration
    for alg in ALGORITHMS:
        own = [s.duration - policy_time.get(s.id, 0.0) for s in runs if s.attrs.get("kind") == alg]
        out[f"sim.run_policy.self_ms.{alg}"] = 1e3 * statistics.fmean(own) if own else 0.0
    out["sim.step.calls"] = per_op("sim.step")

    plans = sorted(durations("expert.dp_plan"))
    out["expert.dp_plan.calls"] = len(plans) / n_ops
    out["expert.dp_plan.p50_ms"] = 1e3 * statistics.median(plans) if plans else 0.0
    out["expert.dp_plan.max_ms"] = 1e3 * plans[-1] if plans else 0.0
    out["expert.plan_session.ms"] = mean("expert.plan_session", 1e3)
    out["expert.trajectory_from_log.ms"] = mean("expert.trajectory_from_log", 1e3)

    datasets = by_name.get("estimator.make_estimator_dataset", [])
    cells = sum(s.attrs["cells"] for s in datasets)
    out["estimator.make_estimator_dataset.ms_per_cell"] = (
        1e3 * sum(s.duration for s in datasets) / cells if cells else 0.0
    )
    out["estimator.train_estimator.s"] = mean("estimator.train_estimator", 1.0)
    out["estimator.estimate.calls"] = per_op("estimator.estimate")
    out["estimator.estimate.us"] = mean("estimator.estimate", 1e6)

    trainings = by_name.get("dt.train_dt", [])
    steps = sum(s.attrs["steps"] for s in trainings)
    train_time = sum(s.duration for s in trainings)
    for name in ("TransformerBlock.forward", "TransformerBlock.backward", "LayerNorm.forward",
                 "LayerNorm.backward", "Affine.forward", "Affine.backward", "Dropout.forward", "AdamW.step"):
        inside = sum(s.duration for s in by_name.get(f"nn.{name}", ()) if under_training(s))
        out[f"nn.{name}.ms"] = 1e3 * inside / steps if steps else 0.0
    infer = [s.duration for s in by_name.get("nn.TransformerBlock.forward", ()) if not under_training(s)]
    out["nn.TransformerBlock.forward.infer_us"] = 1e6 * statistics.fmean(infer) if infer else 0.0
    out["dt.train_dt.step_ms"] = 1e3 * train_time / steps if steps else 0.0
    tokens = sum(s.attrs["steps"] * s.attrs["tokens_per_step"] for s in trainings)
    out["dt.train_dt.tokens_per_s"] = tokens / train_time if train_time else 0.0
    losses = [s.attrs["final_loss"] for s in trainings if s.attrs["final_loss"] is not None]
    out["dt.train_dt.final_loss"] = losses[-1] if losses else 0.0
    out["dt.decide.calls"] = per_op("dt.decide")
    out["dt.decide.us"] = mean("dt.decide", 1e6)
    out["dt.update_window.us"] = mean("dt.update_window", 1e6)
    out["dt.tokenize_window.us"] = mean("dt.tokenize_window", 1e6)

    out["baselines.robust_mpc_decide.calls"] = per_op("baselines.robust_mpc_decide")
    out["baselines.robust_mpc_decide.us"] = mean("baselines.robust_mpc_decide", 1e6)
    out["baselines.bb_decide.us"] = mean("baselines.bb_decide", 1e6)
    out["baselines.rb_decide.us"] = mean("baselines.rb_decide", 1e6)

    def stage(*names: str) -> float:
        return sum(sum(durations(n)) for n in names) / n_ops

    out["harness.stage.estimator.s"] = stage("estimator.make_estimator_dataset", "estimator.train_estimator")
    out["harness.stage.expert.s"] = stage("harness.SweepContext.trajectories")
    out["harness.stage.train.s"] = stage("dt.train_dt")
    out["harness.stage.eval.s"] = stage("harness.evaluate_corpus", "harness.emit_report")
    evals = by_name.get("harness.evaluate_corpus", [])
    out["harness.evaluate_corpus.s"] = mean("harness.evaluate_corpus", 1.0)
    out["harness.self_ms"] = 1e3 * statistics.fmean(selfs[s.id] for s in evals) if evals else 0.0
    out["harness.emit_report.ms"] = mean("harness.emit_report", 1e3)
    dt_qoe = [s.attrs["dt_mean_qoe"] for s in evals if s.attrs["dt_mean_qoe"] is not None]
    out["harness.dt_mean_qoe"] = dt_qoe[-1] if dt_qoe else 0.0

    out["service.handle_decide.us"] = mean("service.handle_decide", 1e6)
    for name, _, _ in PER_LAYER:
        out.setdefault(name, 0.0)
    out.update(extra or {})
    return {name: out[name] for name, _, _ in PER_LAYER}
