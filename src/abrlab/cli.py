"""Command-line entry points for the streaming laboratory.

A command refused for its input (a missing or unreadable file, a setting or
artifact the lab rejects) exits with status 2 and one line on stderr.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller set one, before anything imports numpy: training runs its
# parameter gradients on a helper thread beside the main one, and BLAS worker threads on top of
# those two spin for work and slow a step about fivefold on shared cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import dt, estimator as est, expert, harness, nn, qoe, service, sim, traces


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="abrlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-traces", help="generate synthetic traces and a corpus index")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kind", choices=["switching", "grid"], default="switching")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--duration", type=float, default=400.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.set_defaults(func=_cmd_gen_traces)

    p = sub.add_parser("train-estimator", help="build the grid dataset and train the QoE-to-go estimator")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="estimator checkpoint path (.npz)")
    p.add_argument("--dataset-out", help="optional JSONL dump of the dataset")
    p.add_argument("--mu-step", type=float, default=0.5)
    p.add_argument("--sigma-step", type=float, default=0.5)
    p.add_argument("--duration", type=float, default=320.0)
    p.add_argument("--epochs", type=int, default=120)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_train_estimator)

    p = sub.add_parser("make-expert", help="plan sessions and write expert trajectories")
    p.add_argument("--manifest", required=True)
    p.add_argument("--estimator", required=True)
    p.add_argument("--traces", required=True, nargs="+", help="trace files or a corpus index JSON")
    p.add_argument("--split", choices=["train", "test"], default="train", help="split to use from a corpus index")
    p.add_argument("--out", required=True, help="trajectory JSONL path")
    p.add_argument("--stats-window", type=int, default=4)
    p.add_argument("--prune", action="store_true", help="enable dominance pruning in the planner")
    p.set_defaults(func=_cmd_make_expert)

    p = sub.add_parser("train-dt", help="train the sequence policy on expert trajectories")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--out", required=True, help="model checkpoint path (.npz)")
    p.add_argument("--context-len", type=int, default=4)
    p.add_argument("--steps", type=int, default=1500)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_train_dt)

    p = sub.add_parser("eval", help="evaluate configured algorithms over the test corpus")
    p.add_argument("--config", required=True, help="run-config JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="ablate the context length K or the stats window L")
    p.add_argument("--config", required=True, help="run-config JSON (needs train traces and a dt algorithm)")
    p.add_argument("--parameter", choices=["K", "L"], required=True)
    p.add_argument("--values", required=True, help="comma-separated integers, e.g. 1,4")
    p.add_argument("--steps", type=int, default=1500)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("serve", help="run the HTTP decision service")
    p.add_argument("--dt", required=True, help="sequence-policy checkpoint")
    p.add_argument("--estimator", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8008)
    p.add_argument("--stats-window", type=int, default=4)
    p.add_argument("--manifest-ref", default="default")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("report", help="re-emit CSV outputs from a report.json")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every lab error and json.JSONDecodeError subclass ValueError
        print(f"abrlab {args.command}: {exc}", file=sys.stderr)
        return 2


def _cmd_gen_traces(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "grid":
        specs = traces.estimator_grid(duration_s=args.duration, seed=args.seed)
        generated = [traces.gen_synthetic_trace(s) for s in specs]
    else:
        cfg = harness.PipelineConfig(seed=args.seed, trace_duration_s=args.duration)
        generated = harness.make_switching_corpus(args.count, cfg, args.seed, "trace")
    paths = []
    for i, trace in enumerate(generated):
        path = out / f"{trace.source_tag or f'trace{i:04d}'}.log"
        traces.save_trace_file(trace, path)
        paths.append(str(path))
    corpus = traces.split_corpus(generated, args.train_fraction, args.seed)
    tags = {t.source_tag for t in corpus.train}
    index = {
        "train": [p for p, t in zip(paths, generated) if t.source_tag in tags],
        "test": [p for p, t in zip(paths, generated) if t.source_tag not in tags],
    }
    traces.save_corpus_index(index, out / "corpus.json")
    print(f"wrote {len(paths)} traces and corpus index to {out}")
    return 0


def _cmd_train_estimator(args) -> int:
    manifest = qoe.load_manifest(args.manifest)
    grid = traces.estimator_grid(
        mu_step=args.mu_step, sigma_step=args.sigma_step, duration_s=args.duration, seed=args.seed
    )
    dataset = est.make_estimator_dataset(grid, manifest)
    if args.dataset_out:
        est.save_estimator_dataset(dataset, args.dataset_out)
    model, report = est.train_estimator(dataset, est.EstimatorConfig(seed=args.seed, epochs=args.epochs))
    est.save_estimator(model, args.out)
    print(
        f"trained on {len(dataset)} rows; held-out MSE {report.heldout_mse:.5f} "
        f"({report.heldout_mse / report.label_variance:.1%} of label variance)"
    )
    return 0


def _resolve_traces(paths: list[str], split: str) -> list[traces.NetworkTrace]:
    if len(paths) == 1 and paths[0].endswith(".json"):
        index = traces.load_corpus_index(paths[0])
        paths = index.get(split, [])
    return [traces.load_trace_file(p) for p in paths]


def _cmd_make_expert(args) -> int:
    manifest = qoe.load_manifest(args.manifest)
    estimator_model = est.load_estimator(args.estimator)
    corpus = _resolve_traces(args.traces, args.split)
    dp_cfg = expert.DpConfig(dominance_prune=args.prune)
    start = time.perf_counter()
    sessions = expert.plan_sessions(manifest, corpus, qoe.QoeParams(), dp_cfg)
    plan_s = time.perf_counter() - start
    trajectories = [
        replace(expert.trajectory_from_log(log, estimator_model, args.stats_window), ladder_kbps=manifest.ladder.levels)
        for _, log in sessions
    ]
    expert.save_trajectories(trajectories, args.out)
    print(f"wrote {len(trajectories)} trajectories to {args.out}")
    # Planner throughput, worker processes and frontier go to stdout only, never into the trajectory file.
    peak = max((int(plan.frontier[:, 0].max()) for plan, _ in sessions), default=0)
    rate = len(sessions) / max(plan_s, 1e-9)
    print(
        f"planned {len(sessions)} sessions in {plan_s:.3f} s ({rate:.1f} sessions/s) "
        f"on {expert.plan_processes(len(corpus))} processes; "
        f"peak frontier {peak} of max_states {dp_cfg.max_states} candidate states"
    )
    return 0


def _cmd_train_dt(args) -> int:
    trajectories = expert.load_trajectories(args.trajectories)
    if not trajectories:
        raise dt.DtError(f"no trajectories in {args.trajectories}")
    obs_width = trajectories[0].observations.shape[1]
    n_actions = trajectories[0].actions.shape[1]
    ladder = _trajectory_ladder(trajectories, args.trajectories, n_actions)
    max_t = max(int(t.timesteps.max()) for t in trajectories) + 1
    start = time.perf_counter()
    config = dt.DtConfig(context_len=args.context_len, action_count=n_actions, obs_dim=obs_width, max_timestep=max_t)
    hyper = dt.DtTrainConfig(steps=args.steps, batch_size=args.batch, seed=args.seed)
    model, history = dt.train_dt(trajectories, config, hyper)
    train_s = time.perf_counter() - start
    dt.save_dt(model, args.out, ladder)
    # Training throughput goes to stdout only; tokens count batch x 3K per step.
    steps = history.steps_run
    tokens = steps * hyper.batch_size * 3 * config.context_len
    print(
        f"trained {steps} steps in {train_s:.3f} s ({steps / train_s:.1f} steps/s, "
        f"{tokens / train_s:.0f} tokens/s); final loss {history.losses[-1]:.4f}"
    )
    return 0


def _trajectory_ladder(trajectories: list[expert.Trajectory], path: str, n_actions: int) -> tuple[float, ...]:
    """The one bitrate ladder every trajectory of a file was planned on, which the checkpoint records."""
    ladders = {traj.ladder_kbps for traj in trajectories}
    if None in ladders:
        raise dt.DtError(f"{path}: a trajectory records no ladder_kbps; write the file with make-expert")
    if len(ladders) > 1:
        raise dt.DtError(f"{path}: trajectories disagree on ladder_kbps: {sorted(ladders)}")
    ladder = ladders.pop()
    if len(ladder) != n_actions:
        raise dt.DtError(f"{path}: ladder_kbps of {len(ladder)} levels for {n_actions} actions")
    return ladder


def _cmd_eval(args) -> int:
    config = harness.load_run_config(args.config)
    start = time.perf_counter()
    inputs = harness.load_inputs(config)
    policies = harness.run_policies(config, inputs.manifest)
    report = harness.evaluate_corpus(policies, inputs.manifest, inputs.test_traces, config.qoe_params, config.sim_config)
    eval_s = time.perf_counter() - start
    paths = harness.emit_report(report, config.output_dir)
    # Throughput goes to stdout only: the report files stay byte-identical across runs.
    for agg, seconds in zip(report.aggregates, report.seconds):
        print(
            f"{agg.algorithm:>6}: mean QoE {agg.mean_qoe:+.4f} +- {agg.std_qoe:.4f}; "
            f"{agg.session_count} sessions in {seconds:.3f} s ({agg.session_count / seconds:.1f} sessions/s)"
        )
    sessions = len(report.sessions)
    print(f"evaluated {sessions} sessions in {eval_s:.3f} s ({sessions / eval_s:.1f} sessions/s)")
    print(f"report written to {paths['json']}")
    return 0


def _cmd_sweep(args) -> int:
    dt_hyper = dt.DtTrainConfig(steps=args.steps, seed=args.seed)
    values = [int(v) for v in args.values.split(",")]
    config = harness.load_run_config(args.config)
    dt_spec = next((a for a in config.algorithms if a.name == "dt"), None)
    if dt_spec is None or "estimator" not in dt_spec.settings:
        raise harness.HarnessError("needs a 'dt' algorithm entry with an estimator checkpoint")
    estimator_model = est.load_estimator(dt_spec.settings["estimator"])
    inputs = harness.load_inputs(config, train=True)
    manifest = inputs.manifest
    obs_width = sim.obs_dim(len(manifest.ladder))
    ctx = harness.SweepContext(
        manifest=manifest,
        params=config.qoe_params,
        train_traces=inputs.train_traces,
        test_traces=inputs.test_traces,
        estimator_model=estimator_model,
        dt_config=dt.DtConfig(
            action_count=len(manifest.ladder), obs_dim=obs_width, max_timestep=manifest.chunk_count
        ),
        dt_hyper=dt_hyper,
        stats_window=dt_spec.settings.get("stats_window", 4),
        sim_config=config.sim_config,
        dp_config=config.dp_config,
    )
    rows = harness.ablation_sweep(args.parameter, values, ctx)
    for row in rows:
        print(f"{row.parameter}={row.value}: mean QoE {row.mean_qoe:+.4f} +- {row.std_qoe:.4f}")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    sweep_path = out / f"sweep_{args.parameter}.json"
    sweep_path.write_text(
        json.dumps([row.__dict__ for row in rows], indent=2, sort_keys=True), encoding="utf-8"
    )
    print(f"sweep table written to {sweep_path}")
    return 0


def _cmd_serve(args) -> int:
    arrays, meta = nn.load_checkpoint(args.dt)
    model, estimator_model = dt.from_checkpoint(arrays, meta), est.load_estimator(args.estimator)
    ladder = tuple(float(r) for r in meta.get("ladder_kbps", qoe.DEFAULT_LADDER_KBPS))
    bundle = service.DecisionBundle(model, estimator_model, ladder, args.stats_window, args.manifest_ref)
    service.serve_decisions(bundle, args.host, args.port)
    return 0


def _cmd_report(args) -> int:
    report = harness.load_report(args.report)
    paths = harness.emit_report(report, args.out)
    print(f"re-emitted {', '.join(str(p) for p in paths.values())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
