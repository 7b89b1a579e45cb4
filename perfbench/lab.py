"""Set-up shared by eval-corpus and decide-http: a small lab on disk.

Writes a manifest, cooked trace files for a regime-switching test corpus
drawn from the run's seed, a corpus index, one run config per algorithm, and
estimator and sequence-model checkpoints from a short training whose inputs
and seed are fixed, so every run seed evaluates the same trained models.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from abrlab import dt, estimator as est, harness, qoe, traces

ALGORITHMS = ("bb", "rb", "mpc", "dt", "dp")
TRAIN_SEED = 7
N_TEST_TRACES = 8
N_TRAIN_TRACES = 4
STATS_WINDOW = 4
CONTEXT_LEN = 4


@dataclass
class Lab:
    manifest: qoe.VideoManifest
    test_traces: list[traces.NetworkTrace]
    dt_path: Path
    estimator_path: Path
    configs: dict[str, Path]  # algorithm -> one-algorithm run config
    reports: dict[str, Path]  # algorithm -> its output directory


def corpus_config() -> harness.PipelineConfig:
    """The desk corpus shape: 400 s traces of 12-35 s segments with means in 0.4-3.0 Mbps."""
    return harness.PipelineConfig(mu_range=(0.4, 3.0), sigma_rel_range=(0.15, 0.4), segment_s=(12.0, 35.0))


def training_config() -> harness.PipelineConfig:
    """The fixed short training behind the lab checkpoints; it draws no test traces."""
    return replace(
        corpus_config(),
        seed=TRAIN_SEED,
        n_train_traces=N_TRAIN_TRACES,
        n_test_traces=0,
        grid_mu_step=2.75,
        grid_sigma_step=3.0,
        estimator_epochs=30,
        dt_steps=10,
        dt_batch=32,
    )


def build_lab(root: Path, seed: int) -> Lab:
    root.mkdir(parents=True, exist_ok=True)
    trained = harness.build_pipeline_context(training_config())
    model = trained.model(CONTEXT_LEN, STATS_WINDOW)
    qoe.save_manifest(trained.manifest, root / "manifest.json")
    estimator_path = root / "estimator.npz"
    est.save_estimator(trained.estimator_model, estimator_path)
    dt_path = root / "dt.npz"
    dt.save_dt(model, dt_path, trained.manifest.ladder.levels)

    test = harness.make_switching_corpus(N_TEST_TRACES, corpus_config(), seed, "test")
    trace_dir = root / "traces"
    trace_dir.mkdir(exist_ok=True)
    test_paths = []
    for trace in test:
        path = trace_dir / f"{trace.source_tag}.log"
        traces.save_trace_file(trace, path)
        test_paths.append(str(path))
    traces.save_corpus_index({"train": [], "test": test_paths}, root / "corpus.json")

    specs = {
        "bb": {"name": "bb"},
        "rb": {"name": "rb"},
        "mpc": {"name": "mpc"},
        "dt": {"name": "dt", "checkpoint": str(dt_path), "estimator": str(estimator_path),
               "stats_window": STATS_WINDOW},
        "dp": {"name": "dp", "dominance_prune": True},
    }
    configs, reports = {}, {}
    for name in ALGORITHMS:
        reports[name] = root / "report" / name
        configs[name] = root / f"run_{name}.json"
        doc = {
            "manifest": str(root / "manifest.json"),
            "corpus_index": str(root / "corpus.json"),
            "algorithms": [specs[name]],
            "seed": seed,
            "output_dir": str(reports[name]),
        }
        configs[name].write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return Lab(trained.manifest, test, dt_path, estimator_path, configs, reports)
