from __future__ import annotations

import numpy as np
import pytest

from abrlab import estimator as est, expert, nn, qoe, traces
from abrlab.estimator import (
    EstimatorConfig,
    EstimatorError,
    estimate,
    features,
    make_estimator_dataset,
    rank_correlation,
    throughput_stats,
    train_estimator,
)


def test_throughput_stats_examples():
    assert throughput_stats([2, 2, 2, 2]) == est.NetStats(2.0, 0.0)
    stats = throughput_stats([1, 3])
    assert stats.mean_mbps == pytest.approx(2.0) and stats.stddev_mbps == pytest.approx(1.0)
    single = throughput_stats([1.5])
    assert single.mean_mbps == pytest.approx(1.5) and single.stddev_mbps == 0.0
    windowed = throughput_stats([1, 1, 9, 9, 9, 9], window=4)
    assert windowed.mean_mbps == pytest.approx(9.0)
    with pytest.raises(EstimatorError):
        throughput_stats([])
    with pytest.raises(EstimatorError):
        throughput_stats([1.0], window=0)


def test_feature_normalization():
    feats = features(est.NetStats(6.0, 3.0), 60.0, 1.0)
    assert np.allclose(feats, 1.0)
    feats = features(est.STARTUP_PRIOR, 0.0, 1.0)
    assert feats[0] == pytest.approx(1.0 / 6.0) and feats[1] == 0.0


@pytest.fixture(scope="module")
def tiny_dataset():
    manifest = qoe.make_manifest(chunk_count=6)
    specs = [
        traces.SyntheticSpec(mu, sigma, 120.0, seed=3)
        for mu in (0.5, 1.5, 3.0)
        for sigma in (0.0, 0.4)
    ]
    return manifest, specs, make_estimator_dataset(specs, manifest)


def test_dataset_structure(tiny_dataset):
    manifest, specs, dataset = tiny_dataset
    rows_per_trace = manifest.chunk_count + 1  # one terminal row per trace
    assert len(dataset) == len(specs) * rows_per_trace
    terminal = dataset.raw[:, 3] == 0.0
    assert np.all(dataset.labels[terminal] == 0.0)
    assert np.all(dataset.labels >= -1e-9)


def test_dataset_labels_match_planner(tiny_dataset):
    manifest, specs, dataset = tiny_dataset
    params = qoe.QoeParams()
    # first row of the first trace is the session start: label equals the
    # scaled optimal total for that trace
    spec = specs[0]
    plan = expert.dp_plan(manifest, traces.gen_synthetic_trace(spec), params)
    assert dataset.labels[0] == pytest.approx(params.qoe_to_go_scale * plan.total_qoe, abs=1e-9)


def test_labels_monotone_in_mean(tiny_dataset):
    manifest, specs, dataset = tiny_dataset
    # session-start labels for sigma == 0 cells, ordered by mu
    start_rows = [
        (raw[0], label)
        for raw, label in zip(dataset.raw, dataset.labels)
        if raw[1] == 0.0 and raw[3] == 1.0
    ]
    start_rows.sort()
    labels = [label for _, label in start_rows]
    assert labels == sorted(labels)


def test_training_overfits_subset(tiny_dataset):
    _, _, dataset = tiny_dataset
    subset = est.EstimatorDataset(
        features=dataset.features[:100], labels=dataset.labels[:100], raw=dataset.raw[:100]
    )
    config = EstimatorConfig(
        hidden=128, seed=0, epochs=4000, batch_size=100, lr0=1e-2, weight_decay=0.0, val_fraction=0.0
    )
    model, report = train_estimator(subset, config)
    preds = np.array([estimate(model, f) for f in subset.features])
    mse = float(np.mean((preds - subset.labels) ** 2))
    assert mse < 1e-3 * max(float(np.var(subset.labels)), 1e-12)


def test_training_deterministic(tiny_dataset):
    _, _, dataset = tiny_dataset
    config = EstimatorConfig(hidden=16, seed=5, epochs=3)
    m1, _ = train_estimator(dataset, config)
    m2, _ = train_estimator(dataset, config)
    for p1, p2 in zip(m1.params(), m2.params()):
        assert np.array_equal(p1.value, p2.value)


def test_training_loss_trend(tiny_dataset):
    _, _, dataset = tiny_dataset
    _, report = train_estimator(dataset, EstimatorConfig(hidden=32, seed=1, epochs=30))
    losses = report.epoch_losses
    assert losses[-1] < losses[0]
    diffs = np.diff(losses)
    assert float((diffs <= 0).mean()) >= 0.7


def test_estimate_clamps_and_is_pure():
    model = est.EstimatorModel(hidden=4, seed=0)
    model.fc2.w.value[...] = 0.0
    model.fc2.b.value[...] = -1.0  # forces a negative raw output
    feats = features(est.NetStats(1.0, 0.1), 10.0, 0.5)
    assert estimate(model, feats) == 0.0
    model.fc2.b.value[...] = 0.7
    assert estimate(model, feats) == estimate(model, feats) == pytest.approx(0.7, abs=1e-6)


def test_qoe_to_go_one_session_equals_scalar_composition():
    model = est.EstimatorModel(hidden=16, seed=2)
    rng = np.random.default_rng(3)
    for n in range(9):
        history = tuple(rng.uniform(0.2, 6.0, n))
        buffer_s, remaining = float(rng.uniform(0, 60)), float(rng.uniform(0, 1))
        for window in (1, 2, 4, 8):
            stats = throughput_stats(history, window) if n else est.STARTUP_PRIOR
            scalar = estimate(model, features(stats, buffer_s, remaining))
            assert est.qoe_to_go(model, [history], [buffer_s], [remaining], window).tolist() == [scalar]


def test_qoe_to_go_batch_rows_match_single_calls():
    model = est.EstimatorModel(hidden=16, seed=2)
    rng = np.random.default_rng(4)
    measured = rng.uniform(0.2, 6.0, (64, 6))
    buffer_s, remaining = rng.uniform(0, 60, 64), rng.uniform(0, 1, 64)
    batch = est.qoe_to_go(model, measured, buffer_s, remaining, 4)
    single = [est.qoe_to_go(model, [m], [b], [r], 4)[0] for m, b, r in zip(measured, buffer_s, remaining)]
    assert batch.shape == (64,)
    assert np.allclose(batch, single, rtol=0.0, atol=1e-6)
    assert np.all(batch >= 0.0) and 0 < np.count_nonzero(batch) < 64  # some rows clamped, some not
    startup = est.qoe_to_go(model, [(), ()], [10.0, 20.0], [1.0, 1.0], 4)
    alone = [estimate(model, features(est.STARTUP_PRIOR, b, 1.0)) for b in (10.0, 20.0)]
    assert np.allclose(startup, alone, rtol=0.0, atol=1e-6)


def test_rank_correlation():
    assert rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert rank_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert rank_correlation([1, 1, 2, 2], [1, 1, 2, 2]) == pytest.approx(1.0)
    with pytest.raises(EstimatorError):
        rank_correlation([1, 1], [1, 2])


def test_estimator_checkpoint_roundtrip(tmp_path):
    model = est.EstimatorModel(hidden=8, seed=2)
    path = tmp_path / "est.npz"
    est.save_estimator(model, path)
    loaded = est.load_estimator(path)
    for p1, p2 in zip(model.params(), loaded.params()):
        assert np.array_equal(p1.value, p2.value)
    feats = features(est.NetStats(2.0, 0.3), 20.0, 0.4)
    assert estimate(model, feats) == estimate(loaded, feats)


def test_estimator_checkpoint_refuses_mismatched_arrays(tmp_path):
    model = est.EstimatorModel(hidden=8, seed=2)
    arrays = {p.name: p.value for p in model.params()}
    meta = {"kind": "qoe_to_go_estimator", "hidden": 8}
    wrong_shape = dict(arrays)
    wrong_shape["est.fc2.w"] = np.zeros((4, 1), dtype=np.float32)
    missing = {k: v for k, v in arrays.items() if k != "est.fc1.b"}
    cases = [(wrong_shape, "est.fc2.w"), (missing, r"missing \['est.fc1.b'\]"),
             (dict(arrays, extra=np.zeros(1)), r"unexpected \['extra'\]")]
    for bad, match in cases:
        nn.save_checkpoint(tmp_path / "est.npz", bad, meta)
        with pytest.raises(nn.NnError, match=match):
            est.load_estimator(tmp_path / "est.npz")


def test_dataset_roundtrip(tmp_path, tiny_dataset):
    _, _, dataset = tiny_dataset
    path = tmp_path / "dataset.jsonl"
    est.save_estimator_dataset(dataset, path)
    loaded = est.load_estimator_dataset(path)
    assert np.allclose(loaded.features, dataset.features)
    assert np.allclose(loaded.labels, dataset.labels)
