"""End-to-end orchestration: corpus evaluation, ablation sweeps, reports.

Evaluation drives named policies over every test trace of an in-memory
corpus and aggregates per-session QoE into a report with per-component means
and CDF sample points.  A run configuration names the manifest, the trace
corpus and the algorithms to compare; ``load_inputs`` and ``run_policies``
resolve it into those inputs.  The pipeline helper regenerates everything
(traces, estimator, expert trajectories, sequence model) from one seed so
that two runs with the same configuration produce byte-identical reports.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import baselines, dt, estimator as est, expert, nn, qoe, sim, traces


class HarnessError(ValueError):
    """Invalid run configuration or missing artifact."""


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str
    settings: dict = field(default_factory=dict)


PolicyFactory = Callable[[Sequence[traces.NetworkTrace]], object]


@dataclass
class RunConfig:
    manifest_path: str
    test_trace_paths: list[str]
    algorithms: list[AlgorithmSpec]
    train_trace_paths: list[str] = field(default_factory=list)
    qoe_params: qoe.QoeParams = field(default_factory=qoe.QoeParams)
    sim_config: sim.SimConfig = field(default_factory=sim.SimConfig)
    dp_config: expert.DpConfig = field(default_factory=expert.DpConfig)
    output_dir: str = "out"


# The settings each algorithm reads from its run-config entry, with the type of each.
ALGORITHM_SETTINGS = {
    "bb": {"reservoir_s": "float", "cushion_s": "float"},
    "rb": {"pred_window": "int"},
    "mpc": {"horizon": "int", "error_window": "int", "pred_window": "int"},
    "dt": {"checkpoint": "str", "estimator": "str", "stats_window": "int"},
    "dp": {"buffer_quantum_s": "float", "time_quantum_s": "float", "dominance_prune": "bool"},
}


def _check_types(values: dict, kinds: dict[str, str], where: str) -> None:
    """Refuse a value that does not fit its field's type: bool fields take JSON bools, int fields
    ints, float fields ints or floats, and no number field a bool."""
    accepted = {"bool": bool, "int": int, "float": (int, float), "str": str}
    for key, value in values.items():
        kind = kinds[key]
        if isinstance(value, bool) != (kind == "bool") or not isinstance(value, accepted[kind]):
            raise HarnessError(f"{where}: '{key}' must be {'an' if kind == 'int' else 'a'} {kind}, got {value!r}")


def _config_section(doc: dict, key: str, cls: type, path: str | Path):
    """``cls`` built from the run config's ``key`` object (its defaults when absent)."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise HarnessError(f"run config {path}: '{key}' must be an object")
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(section) - set(kinds))
    if unknown:
        raise HarnessError(f"run config {path}: unknown '{key}' key(s) {unknown}")
    _check_types(section, kinds, f"run config {path}: '{key}'")
    return cls(**section)


def load_run_config(path: str | Path) -> RunConfig:
    """The run config at ``path``; a top-level ``seed`` key is accepted and ignored."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if "manifest" not in doc:
        raise HarnessError(f"run config {path} has no 'manifest' key")
    algorithms = []
    for entry in doc.get("algorithms", []):
        if "name" not in entry:
            raise HarnessError(f"run config {path} has an algorithm without a 'name' key")
        settings = {k: v for k, v in entry.items() if k != "name"}
        kinds = ALGORITHM_SETTINGS.get(entry["name"], {})
        unread = sorted(set(settings) - set(kinds))
        if unread:
            raise HarnessError(f"run config {path}: algorithm {entry['name']!r} has unknown setting(s) {unread}")
        _check_types(settings, kinds, f"run config {path}: algorithm {entry['name']!r}")
        algorithms.append(AlgorithmSpec(entry["name"], settings))
    trace_doc = doc.get("traces", {})
    if "corpus_index" in doc:
        index = traces.load_corpus_index(doc["corpus_index"])
        trace_doc = {"train": index.get("train", []), "test": index.get("test", [])}
    return RunConfig(
        manifest_path=doc["manifest"],
        test_trace_paths=list(trace_doc.get("test", [])),
        train_trace_paths=list(trace_doc.get("train", [])),
        algorithms=algorithms,
        qoe_params=_config_section(doc, "qoe", qoe.QoeParams, path),
        sim_config=_config_section(doc, "sim", sim.SimConfig, path),
        dp_config=_config_section(doc, "dp", expert.DpConfig, path),
        output_dir=doc.get("output_dir", "out"),
    )


@dataclass
class RunInputs:
    """The files a run config names, loaded."""

    manifest: qoe.VideoManifest
    test_traces: list[traces.NetworkTrace]
    train_traces: list[traces.NetworkTrace]


def load_inputs(config: RunConfig, train: bool = False) -> RunInputs:
    """Load the manifest and the test traces (and the train traces if ``train``), refusing missing files."""
    train_paths = config.train_trace_paths if train else []
    missing = [p for p in [config.manifest_path, *config.test_trace_paths, *train_paths] if not Path(p).exists()]
    if missing:
        raise HarnessError(f"missing input files: {missing}")
    return RunInputs(
        manifest=qoe.load_manifest(config.manifest_path),
        test_traces=[traces.load_trace_file(p) for p in config.test_trace_paths],
        train_traces=[traces.load_trace_file(p) for p in train_paths],
    )


def run_policies(config: RunConfig, manifest: qoe.VideoManifest) -> list[tuple[str, PolicyFactory]]:
    """A named policy factory per configured algorithm, in config order."""
    return [
        (spec.name, make_policy_factory(spec, manifest, config.qoe_params, config.sim_config, config.dp_config))
        for spec in config.algorithms
    ]


@dataclass
class SessionSummary:
    algorithm: str
    trace_tag: str
    mean_qoe: float
    total_qoe: float
    utility: float
    rebuffer_penalty: float
    smoothness_penalty: float
    rebuffer_s: float
    startup_s: float


@dataclass
class AlgorithmAggregate:
    algorithm: str
    mean_qoe: float
    std_qoe: float
    utility: float
    rebuffer_penalty: float
    smoothness_penalty: float
    session_count: int


@dataclass
class EvalReport:
    """Per-session rows, per-algorithm aggregates, and CDF sample points.

    Component values are per-chunk means so that for every aggregate row
    mean_qoe == utility - rebuffer_penalty - smoothness_penalty.
    ``seconds`` holds the evaluation wall time of each aggregate row's
    algorithm; it stays out of the report files, which are byte-identical
    across runs.
    """

    sessions: list[SessionSummary]
    aggregates: list[AlgorithmAggregate]
    cdf: dict[str, dict[str, list[float]]]
    seconds: list[float] = field(default_factory=list, compare=False)

    def to_dict(self) -> dict:
        return {
            "sessions": [asdict(s) for s in self.sessions],
            "aggregates": [asdict(a) for a in self.aggregates],
            "cdf": self.cdf,
        }

    @staticmethod
    def from_dict(doc: dict) -> "EvalReport":
        return EvalReport(
            sessions=[SessionSummary(**s) for s in doc["sessions"]],
            aggregates=[AlgorithmAggregate(**a) for a in doc["aggregates"]],
            cdf={k: {"qoe": list(v["qoe"]), "fraction": list(v["fraction"])} for k, v in doc["cdf"].items()},
        )


def summarize_session(
    algorithm: str, log: sim.SessionLog, params: qoe.QoeParams
) -> SessionSummary:
    totals = qoe.session_qoe(log.records, params)
    n = len(log.records)
    return SessionSummary(
        algorithm=algorithm,
        trace_tag=log.trace_tag,
        mean_qoe=totals.mean,
        total_qoe=totals.total,
        utility=totals.utility / n,
        rebuffer_penalty=totals.rebuffer_penalty / n,
        smoothness_penalty=totals.smoothness_penalty / n,
        rebuffer_s=log.final_state.rebuffer_total_s,
        startup_s=log.final_state.startup_delay_s,
    )


def make_policy_factory(
    spec: AlgorithmSpec,
    manifest: qoe.VideoManifest,
    params: qoe.QoeParams,
    sim_config: sim.SimConfig,
    dp_config: expert.DpConfig,
) -> PolicyFactory:
    """Resolve an algorithm spec to a constructor of the policy for a test corpus.

    The policy drives every session of the corpus in one ``sim.run_sessions``
    call; only dp depends on the traces, with one plan per trace.  dt loads
    its sequence model and estimator from checkpoint paths.
    """
    name, settings = spec.name, spec.settings
    if name == "bb":
        cfg = baselines.BbConfig(**settings)
        return lambda corpus: baselines.BufferBasedPolicy(manifest.ladder, cfg)
    if name == "rb":
        window = settings.get("pred_window", 5)
        return lambda corpus: baselines.RateBasedPolicy(manifest.ladder, window)
    if name == "mpc":
        cfg = baselines.MpcConfig(**settings)
        return lambda corpus: baselines.RobustMpcPolicy(manifest, params, cfg, sim_config)
    if name == "dt":
        model, estimator_model = _load_dt_bundle(settings, manifest)
        window = settings.get("stats_window", 4)
        return lambda corpus: dt.DtPolicy(model, estimator_model, window)
    if name == "dp":
        cfg = replace(dp_config, **settings)
        return lambda corpus: expert.PlanFollower(
            tuple(plan.actions for plan in expert.dp_plans(manifest, corpus, params, cfg, sim_config))
        )
    raise HarnessError(f"unknown algorithm {name!r}")


def _load_dt_bundle(settings: dict, manifest: qoe.VideoManifest):
    """The sequence model and estimator of a dt entry, refusing a model that does not fit ``manifest``."""
    for key in ("checkpoint", "estimator"):
        if not isinstance(settings.get(key), str):
            raise HarnessError(f"algorithm 'dt': needs a '{key}' path")
        if not Path(settings[key]).exists():
            raise HarnessError(f"algorithm 'dt': missing {key} file {settings[key]!r}")
    arrays, meta = nn.load_checkpoint(settings["checkpoint"])
    model, levels = dt.from_checkpoint(arrays, meta), manifest.ladder.levels
    if tuple(meta.get("ladder_kbps", levels)) != levels or model.config.action_count != len(levels):
        raise HarnessError(
            f"algorithm 'dt': checkpoint of {model.config.action_count} actions and ladder "
            f"{meta.get('ladder_kbps', '(not recorded)')} does not fit the manifest's ladder {list(levels)}"
        )
    if model.config.max_timestep < manifest.chunk_count:
        raise HarnessError(
            f"algorithm 'dt': checkpoint covers {model.config.max_timestep} of {manifest.chunk_count} chunks"
        )
    return model, est.load_estimator(settings["estimator"])


def evaluate_corpus(
    policies: Sequence[tuple[str, PolicyFactory]],
    manifest: qoe.VideoManifest,
    test_traces: Sequence[traces.NetworkTrace],
    params: qoe.QoeParams,
    sim_config: sim.SimConfig,
) -> EvalReport:
    """Run every named policy over every test trace.

    Each factory builds its policy for the whole test corpus, which then
    drives all test sessions in lock step, one ``sim.run_sessions`` call per
    policy.  Report rows keep the order of ``policies``.
    """
    if not policies:
        raise HarnessError("at least one algorithm is required")
    if not test_traces:
        raise HarnessError("no test traces")

    sessions: list[SessionSummary] = []
    aggregates: list[AlgorithmAggregate] = []
    cdf: dict[str, dict[str, list[float]]] = {}
    seconds: list[float] = []
    for name, factory in policies:
        start = time.perf_counter()
        logs = sim.run_sessions(factory(test_traces), manifest, test_traces, sim_config, params)
        rows = [summarize_session(name, log, params) for log in logs]
        sessions.extend(rows)
        means = np.array([r.mean_qoe for r in rows])
        aggregates.append(
            AlgorithmAggregate(
                algorithm=name,
                mean_qoe=float(means.mean()),
                std_qoe=float(means.std()),
                utility=float(np.mean([r.utility for r in rows])),
                rebuffer_penalty=float(np.mean([r.rebuffer_penalty for r in rows])),
                smoothness_penalty=float(np.mean([r.smoothness_penalty for r in rows])),
                session_count=len(rows),
            )
        )
        ordered = np.sort(means)
        cdf[name] = {
            "qoe": [float(v) for v in ordered],
            "fraction": [float((i + 1) / len(ordered)) for i in range(len(ordered))],
        }
        seconds.append(time.perf_counter() - start)
    return EvalReport(sessions=sessions, aggregates=aggregates, cdf=cdf, seconds=seconds)


def emit_report(report: EvalReport, output_dir: str | Path) -> dict[str, Path]:
    """Write report.json, summary.csv, and cdf.csv; returns the paths."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "json": out / "report.json",
        "csv": out / "summary.csv",
        "cdf": out / "cdf.csv",
    }
    paths["json"].write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
    with open(paths["csv"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["algorithm", "mean_qoe", "std_qoe", "utility", "rebuffer_penalty", "smoothness_penalty", "sessions"]
        )
        for a in report.aggregates:
            writer.writerow(
                [a.algorithm, repr(a.mean_qoe), repr(a.std_qoe), repr(a.utility),
                 repr(a.rebuffer_penalty), repr(a.smoothness_penalty), a.session_count]
            )
    with open(paths["cdf"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "mean_qoe", "fraction"])
        for name, points in report.cdf.items():
            for v, f in zip(points["qoe"], points["fraction"]):
                writer.writerow([name, repr(v), repr(f)])
    return paths


def load_report(path: str | Path) -> EvalReport:
    return EvalReport.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class SweepContext:
    """Shared artifacts for ablation sweeps, with plan/trajectory caching.

    Planning each training trace is the expensive part; it is done once and
    reused across the window sizes and context lengths being swept.
    """

    manifest: qoe.VideoManifest
    params: qoe.QoeParams
    train_traces: list[traces.NetworkTrace]
    test_traces: list[traces.NetworkTrace]
    estimator_model: est.EstimatorModel
    dt_config: dt.DtConfig
    dt_hyper: dt.DtTrainConfig
    stats_window: int = 4
    sim_config: sim.SimConfig = field(default_factory=sim.SimConfig)
    dp_config: expert.DpConfig = field(default_factory=expert.DpConfig)
    _plans: list[tuple[expert.Plan, sim.SessionLog]] | None = None
    _trajectories: dict[int, list[expert.Trajectory]] = field(default_factory=dict)
    _models: dict[tuple[int, int], dt.DtModel] = field(default_factory=dict)

    def plans(self) -> list[tuple[expert.Plan, sim.SessionLog]]:
        if self._plans is None:
            self._plans = expert.plan_sessions(
                self.manifest, self.train_traces, self.params, self.dp_config, self.sim_config
            )
        return self._plans

    def trajectories(self, stats_window: int) -> list[expert.Trajectory]:
        if stats_window not in self._trajectories:
            self._trajectories[stats_window] = [
                expert.trajectory_from_log(log, self.estimator_model, stats_window) for _, log in self.plans()
            ]
        return self._trajectories[stats_window]

    def model(self, context_len: int, stats_window: int) -> dt.DtModel:
        key = (context_len, stats_window)
        if key not in self._models:
            cfg = replace(self.dt_config, context_len=context_len)
            trained, _ = dt.train_dt(self.trajectories(stats_window), cfg, self.dt_hyper)
            self._models[key] = trained
        return self._models[key]

    def policies(
        self, names: Sequence[str], model: dt.DtModel, stats_window: int
    ) -> list[tuple[str, PolicyFactory]]:
        """A named policy factory per algorithm; dt decides with ``model`` over an L=``stats_window`` window."""

        def factory(name: str) -> PolicyFactory:
            if name == "dt":
                return lambda corpus: dt.DtPolicy(model, self.estimator_model, stats_window)
            spec = AlgorithmSpec(name)
            return make_policy_factory(spec, self.manifest, self.params, self.sim_config, self.dp_config)

        return [(name, factory(name)) for name in names]


@dataclass
class SweepRow:
    parameter: str
    value: int
    mean_qoe: float
    std_qoe: float


def ablation_sweep(parameter: str, values: Sequence[int], ctx: SweepContext) -> list[SweepRow]:
    """Retrain (or reuse cached) models per value and evaluate on the test split.

    parameter "K" sweeps the sequence context length; "L" sweeps the
    throughput-statistics window feeding the QoE-to-go estimate (both in
    trajectory building and at decision time).
    """
    if parameter not in ("K", "L"):
        raise HarnessError("parameter must be 'K' or 'L'")
    rows = []
    for value in values:
        if parameter == "K":
            k, window = int(value), ctx.stats_window
        else:
            k, window = ctx.dt_config.context_len, int(value)
        policies = ctx.policies(["dt"], ctx.model(k, window), window)
        agg = evaluate_corpus(policies, ctx.manifest, ctx.test_traces, ctx.params, ctx.sim_config).aggregates[0]
        rows.append(SweepRow(parameter=parameter, value=int(value), mean_qoe=agg.mean_qoe, std_qoe=agg.std_qoe))
    return rows


@dataclass
class PipelineConfig:
    """Desk-scale end-to-end run: corpus synthesis through final report."""

    seed: int = 7
    chunk_count: int = 48
    chunk_duration_s: float = 4.0
    size_jitter: float = 0.1
    # Estimator grid (coarsened from the full 0.1-step sweep).
    grid_mu_step: float = 0.5
    grid_sigma_step: float = 0.5
    grid_duration_s: float = 320.0
    estimator_epochs: int = 120
    # Regime-switching corpus for training/evaluating policies.
    n_train_traces: int = 200
    n_test_traces: int = 50
    trace_duration_s: float = 400.0
    segment_s: tuple[float, float] = (12.0, 35.0)
    mu_range: tuple[float, float] = (0.4, 3.0)
    sigma_rel_range: tuple[float, float] = (0.15, 0.4)
    stats_window: int = 4
    dt_steps: int = 1500
    dt_batch: int = 128
    context_len: int = 4
    algorithms: tuple[str, ...] = ("bb", "rb", "mpc", "dt", "dp")
    dominance_prune: bool = True


def make_switching_corpus(
    n: int, config: PipelineConfig, seed: int, tag_prefix: str
) -> list[traces.NetworkTrace]:
    """Seeded piecewise-stationary traces: Gaussian segments with moving means."""
    out = []
    lo, hi = config.mu_range
    for i in range(n):
        rng = np.random.default_rng((seed, i))
        mu = float(rng.uniform(lo, hi))
        segs = []
        remaining = config.trace_duration_s
        while remaining > 0:
            seg_len = min(remaining, float(rng.uniform(*config.segment_s)))
            sigma = mu * float(rng.uniform(*config.sigma_rel_range))
            segs.append(
                traces.SyntheticSpec(
                    mean_mbps=mu,
                    stddev_mbps=sigma,
                    duration_s=max(seg_len, 2.0),
                    seed=int(rng.integers(0, 2**31)),
                )
            )
            mu = float(rng.uniform(lo, hi))
            remaining -= seg_len
        out.append(traces.gen_switching_trace(segs, source_tag=f"{tag_prefix}{i:03d}"))
    return out


def build_pipeline_context(config: PipelineConfig) -> SweepContext:
    """Generate corpora, train the estimator, and wire up a sweep context."""
    manifest = qoe.make_manifest(
        config.chunk_count, config.chunk_duration_s, size_jitter=config.size_jitter, seed=config.seed
    )
    params = qoe.QoeParams()
    dp_config = expert.DpConfig(dominance_prune=config.dominance_prune)
    grid = traces.estimator_grid(
        mu_step=config.grid_mu_step,
        sigma_step=config.grid_sigma_step,
        duration_s=config.grid_duration_s,
        seed=config.seed,
    )
    dataset = est.make_estimator_dataset(grid, manifest, params, dp_config)
    estimator_model, _ = est.train_estimator(
        dataset, est.EstimatorConfig(seed=config.seed, epochs=config.estimator_epochs)
    )
    train_traces = make_switching_corpus(config.n_train_traces, config, config.seed * 2 + 1, "train")
    test_traces = make_switching_corpus(config.n_test_traces, config, config.seed * 2 + 2, "test")
    obs_width = sim.obs_dim(len(manifest.ladder))
    dt_config = dt.DtConfig(
        context_len=config.context_len,
        action_count=len(manifest.ladder),
        obs_dim=obs_width,
        max_timestep=config.chunk_count,
    )
    dt_hyper = dt.DtTrainConfig(steps=config.dt_steps, batch_size=config.dt_batch, seed=config.seed)
    return SweepContext(
        manifest=manifest,
        params=params,
        train_traces=train_traces,
        test_traces=test_traces,
        estimator_model=estimator_model,
        dt_config=dt_config,
        dt_hyper=dt_hyper,
        stats_window=config.stats_window,
        dp_config=dp_config,
    )


def run_pipeline(config: PipelineConfig, output_dir: str | Path) -> tuple[EvalReport, dict[str, Path]]:
    """Full deterministic pass: synthesize, train, evaluate, emit report."""
    ctx = build_pipeline_context(config)
    model = ctx.model(config.context_len, config.stats_window)
    policies = ctx.policies(config.algorithms, model, config.stats_window)
    report = evaluate_corpus(policies, ctx.manifest, ctx.test_traces, ctx.params, ctx.sim_config)
    paths = emit_report(report, output_dir)
    return report, paths
