"""QoE-to-go estimation from network condition and playback status.

A two-layer fully connected network maps normalized
(throughput mean, throughput stddev, buffer, remaining fraction) features to
the scaled maximum achievable QoE over the remaining chunks.  Training
labels come from the offline-optimal planner run over stationary synthetic
traces, whose generating (mean, stddev) pair doubles as the network-condition
feature; at streaming time the same features are computed from a short
window of measured per-chunk throughput.  ``qoe_to_go`` is that streaming
estimate, the one composition of window statistics, features and network
that expert trajectories, the lock-step policy and the service all use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from .qoe import QoeParams, VideoManifest
from .sim import STARTUP_THROUGHPUT_MBPS, SimConfig, throughput_history
from .traces import SyntheticSpec, gen_synthetic_trace

# Feature normalization constants: mean/6 Mbps, stddev/3, buffer/60 s map the
# training grid and buffer cap onto [0, 1]; the remaining fraction is already
# a fraction.
FEATURE_SCALE = np.array([6.0, 3.0, 60.0, 1.0])


class EstimatorError(ValueError):
    """Invalid estimator input or diverged training."""


@dataclass(frozen=True)
class NetStats:
    """Throughput window statistics of one session, or (B,) arrays of B sessions."""

    mean_mbps: float | np.ndarray
    stddev_mbps: float | np.ndarray


# Equal to throughput_stats(sim.throughput_history(())), before any download.
STARTUP_PRIOR = NetStats(mean_mbps=STARTUP_THROUGHPUT_MBPS, stddev_mbps=0.0)


def throughput_stats(history, window: int = 4) -> NetStats:
    """Mean and population stddev of the last ``window`` throughput samples.

    With fewer than ``window`` samples available, all of them are used.  A
    (B, n) ``history`` of B equally long histories gives (B,) arrays, each
    row's stats equal to its own.
    """
    if window < 1:
        raise EstimatorError("window must be >= 1")
    recent = np.asarray(history, dtype=np.float64)[..., -window:]
    if recent.shape[-1] == 0:
        raise EstimatorError("throughput history is empty")
    # The ufunc calls ndarray.mean and .std make, without their Python wrappers: the same bits.
    n = recent.shape[-1]
    mean = np.add.reduce(recent, axis=-1) / n
    std = np.sqrt(np.add.reduce(np.square(recent - mean[..., None]), axis=-1) / n)
    if recent.ndim == 1:
        return NetStats(float(mean), float(std))
    return NetStats(mean, std)


def features(stats: NetStats, buffer_s, remaining_frac) -> np.ndarray:
    """Normalized (mean, stddev, buffer, remaining) features: (4,), or (B, 4) from (B,) arrays."""
    raw = np.stack([stats.mean_mbps, stats.stddev_mbps, buffer_s, remaining_frac], axis=-1)
    return raw / FEATURE_SCALE


@dataclass
class EstimatorConfig:
    hidden: int = 128
    seed: int = 0
    epochs: int = 120
    batch_size: int = 128
    lr0: float = 1e-3
    weight_decay: float = 1e-4
    val_fraction: float = 0.2


class EstimatorModel:
    """Two affine layers with a ReLU between: 4 -> hidden -> 1."""

    def __init__(self, hidden: int = 128, seed: int = 0, dtype=np.float32) -> None:
        rng = np.random.default_rng(seed)
        self.hidden = hidden
        self.fc1 = nn.Affine(4, hidden, rng, "est.fc1", dtype=dtype)
        self.act = nn.ReLU()
        self.fc2 = nn.Affine(hidden, 1, rng, "est.fc2", dtype=dtype)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        h, c1 = self.fc1.forward(x)
        h, c2 = self.act.forward(h)
        y, c3 = self.fc2.forward(h)
        return y, (c1, c2, c3)

    def backward(self, cache: tuple, dy: np.ndarray) -> np.ndarray:
        c1, c2, c3 = cache
        return self.fc1.backward(c1, self.act.backward(c2, self.fc2.backward(c3, dy)))

    def params(self) -> list[nn.Param]:
        return self.fc1.params() + self.fc2.params()


def estimate(model: EstimatorModel, feats: np.ndarray) -> float:
    """QoE-to-go estimate of one (4,) feature vector: the B = 1 case of ``estimate_batch``."""
    return float(estimate_batch(model, np.reshape(feats, (1, 4)))[0])


def estimate_batch(model: EstimatorModel, feats: np.ndarray) -> np.ndarray:
    """QoE-to-go estimates for a (B, 4) feature matrix, each clamped below at zero."""
    out = model.forward(np.asarray(feats, dtype=model.fc1.w.value.dtype))[0][:, 0].astype(np.float64)
    if not np.all(np.isfinite(out)):
        raise EstimatorError("estimator produced a non-finite value")
    return np.where(out < 0.0, 0.0, out)


def qoe_to_go(model: EstimatorModel, measured, buffer_s, remaining_frac, window: int) -> np.ndarray:
    """Streaming QoE-to-go estimates of B sessions, each clamped below at zero: (B,).

    ``measured`` holds B equally long measured-throughput histories, oldest
    first; an empty one stands for the startup value (``sim.throughput_history``).
    ``buffer_s`` and ``remaining_frac`` are (B,) decision-time values.  A row
    of a B > 1 call may differ from its own B = 1 call in the last bits, since
    the BLAS kernel of the float32 network depends on the row count.
    """
    stats = throughput_stats([throughput_history(m) for m in measured], window)
    return estimate_batch(model, features(stats, np.asarray(buffer_s), np.asarray(remaining_frac)))


@dataclass
class EstimatorDataset:
    """Rows of normalized features and scaled QoE-to-go labels."""

    features: np.ndarray  # (N, 4)
    labels: np.ndarray  # (N,)
    raw: np.ndarray  # (N, 4) un-normalized (mean, stddev, buffer, remaining)

    def __len__(self) -> int:
        return len(self.labels)


def make_estimator_dataset(
    specs: Sequence[SyntheticSpec],
    manifest: VideoManifest,
    params: QoeParams = QoeParams(),
    dp_config=None,
    sim_config: SimConfig = SimConfig(),
) -> EstimatorDataset:
    """Label every decision point along the optimal path of each grid trace.

    Features take the generating (mean, stddev) of the trace spec — not a
    measured window — plus the decision-time buffer and remaining fraction.
    One extra end-of-session row per trace carries the zero label.
    """
    from . import expert  # deferred: expert imports this module at top level

    if dp_config is None:
        dp_config = expert.DpConfig()
    rows: list[np.ndarray] = []
    labels: list[float] = []
    grid = [gen_synthetic_trace(spec) for spec in specs]
    sessions = expert.plan_sessions(manifest, grid, params, dp_config, sim_config)
    for spec, (plan, log) in zip(specs, sessions):
        suffix = params.qoe_to_go_scale * plan.value_to_go
        for t, obs in enumerate(log.observations):
            rows.append(np.array([spec.mean_mbps, spec.stddev_mbps, obs.buffer_s, obs.remaining_frac]))
            labels.append(float(suffix[t]))
        rows.append(
            np.array([spec.mean_mbps, spec.stddev_mbps, log.final_state.buffer_s, 0.0])
        )
        labels.append(0.0)
    raw = np.stack(rows)
    return EstimatorDataset(features=raw / FEATURE_SCALE, labels=np.asarray(labels), raw=raw)


@dataclass
class EstimatorTrainReport:
    epoch_losses: list[float]
    heldout_mse: float
    label_variance: float


def train_estimator(
    dataset: EstimatorDataset,
    config: EstimatorConfig = EstimatorConfig(),
) -> tuple[EstimatorModel, EstimatorTrainReport]:
    """Minimize MSE with AdamW under cosine decay; deterministic per seed."""
    n = len(dataset)
    if n == 0:
        raise EstimatorError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    n_val = max(1, int(n * config.val_fraction)) if n > 1 else 0
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        train_idx = order
    model = EstimatorModel(config.hidden, seed=config.seed)
    dtype = model.fc1.w.value.dtype
    x_train = dataset.features[train_idx].astype(dtype)
    y_train = dataset.labels[train_idx].astype(dtype).reshape(-1, 1)
    opt = nn.AdamW(model.params(), lr=config.lr0, weight_decay=config.weight_decay)
    batches_per_epoch = max(1, len(train_idx) // config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    step = 0
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        perm = rng.permutation(len(train_idx))
        losses = []
        for b in range(batches_per_epoch):
            sel = perm[b * config.batch_size : (b + 1) * config.batch_size]
            if len(sel) == 0:
                continue
            opt.zero_grad()
            pred, cache = model.forward(x_train[sel])
            loss, dpred = nn.mse(pred, y_train[sel])
            if not np.isfinite(loss):
                raise EstimatorError("training diverged (non-finite loss)")
            model.backward(cache, dpred)
            opt.lr = nn.cosine_lr(step, total_steps, config.lr0)
            opt.step()
            step += 1
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    if len(val_idx):
        pred, _ = model.forward(dataset.features[val_idx].astype(dtype))
        heldout = float(np.mean(np.square(pred.reshape(-1) - dataset.labels[val_idx]), dtype=np.float64))
    else:
        heldout = float("nan")
    report = EstimatorTrainReport(
        epoch_losses=epoch_losses,
        heldout_mse=heldout,
        label_variance=float(np.var(dataset.labels)),
    )
    return model, report


def rank_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman correlation with average ranks for ties."""
    x = _average_ranks(np.asarray(a, dtype=np.float64))
    y = _average_ranks(np.asarray(b, dtype=np.float64))
    x -= x.mean()
    y -= y.mean()
    denom = np.sqrt((x * x).sum() * (y * y).sum())
    if denom == 0:
        raise EstimatorError("rank correlation undefined for constant inputs")
    return float((x * y).sum() / denom)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    sv = v[order]
    i = 0
    while i < len(sv):
        j = i
        while j + 1 < len(sv) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def save_estimator(model: EstimatorModel, path: str | Path) -> None:
    arrays = {p.name: p.value for p in model.params()}
    nn.save_checkpoint(path, arrays, {"kind": "qoe_to_go_estimator", "hidden": model.hidden})


def load_estimator(path: str | Path) -> EstimatorModel:
    arrays, meta = nn.load_checkpoint(path)
    if meta.get("kind") != "qoe_to_go_estimator":
        raise EstimatorError(f"not an estimator checkpoint: {meta.get('kind')}")
    model = EstimatorModel(hidden=int(meta["hidden"]))
    nn.restore_params(model.params(), arrays)
    return model
