"""Rule-based comparison policies: buffer-based, rate-based, and robust MPC."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qoe import QoeParams, VideoManifest
from .sim import Observation, SessionState, SimConfig, throughput_history, transition


@dataclass(frozen=True)
class BbConfig:
    reservoir_s: float = 5.0
    cushion_s: float = 10.0

    def __post_init__(self) -> None:
        if self.reservoir_s < 0 or self.cushion_s <= 0:
            raise ValueError("reservoir must be >= 0 and cushion > 0")


@dataclass(frozen=True)
class MpcConfig:
    horizon: int = 5
    error_window: int = 5
    pred_window: int = 5

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


def bb_decide(buffer_s: float, ladder, config: BbConfig = BbConfig()) -> int:
    """Map buffer occupancy onto the ladder.

    Below the reservoir pick the lowest level; above reservoir + cushion pick
    the highest; in between, interpolate linearly between the lowest and
    highest bitrates and take the highest level not exceeding that value.
    """
    if buffer_s < 0:
        raise ValueError("buffer_s must be non-negative")
    if buffer_s < config.reservoir_s:
        return 0
    if buffer_s > config.reservoir_s + config.cushion_s:
        return len(ladder) - 1
    frac = (buffer_s - config.reservoir_s) / config.cushion_s
    target = ladder[0] + frac * (ladder[len(ladder) - 1] - ladder[0])
    level = 0
    for i in range(len(ladder)):
        if ladder[i] <= target:
            level = i
    return level


def harmonic_mean(values: Sequence[float]) -> float:
    v = np.asarray(values, dtype=np.float64)
    if len(v) == 0 or np.any(v <= 0):
        raise ValueError("harmonic mean needs positive values")
    return float(len(v) / np.sum(1.0 / v))


def rb_decide(predicted_throughput_mbps: float, ladder) -> int:
    """Highest level whose bitrate fits the prediction; lowest if none do."""
    if predicted_throughput_mbps <= 0:
        raise ValueError("prediction must be positive")
    pred_kbps = predicted_throughput_mbps * 1000.0
    level = 0
    for i in range(len(ladder)):
        if ladder[i] <= pred_kbps:
            level = i
    return level


def robust_mpc_decide(
    state: SessionState,
    manifest: VideoManifest,
    throughput_history_mbps: Sequence[float],
    config: MpcConfig = MpcConfig(),
    params: QoeParams = QoeParams(),
    sim_config: SimConfig = SimConfig(),
) -> int:
    """First action of the best bitrate sequence over the lookahead horizon.

    The throughput forecast is the harmonic mean of recent measurements,
    discounted by 1/(1+e) where e is the largest normalized absolute error
    the same forecaster would have made over the recent past.  The horizon
    search replays the simulator's buffer dynamics (``sim.transition``)
    under the constant discounted forecast; ties keep the first
    (lexicographically lowest) sequence.
    """
    if len(throughput_history_mbps) == 0:
        raise ValueError("need at least one throughput measurement")
    history = list(throughput_history_mbps)
    pred = harmonic_mean(history[-config.pred_window:])
    err = _max_recent_error(history, config)
    pred /= 1.0 + err

    t0 = state.next_chunk
    horizon = min(config.horizon, manifest.chunk_count - t0)
    if horizon <= 0:
        raise ValueError("session already complete")
    rate_bits = pred * 1e6
    n_lv = len(manifest.ladder)
    seqs = _level_sequences(n_lv, horizon)
    q_lv = params.quality_scale * np.asarray(manifest.ladder.levels)

    buffer_s = np.full(len(seqs), state.buffer_s)
    value = np.zeros(len(seqs))
    q_prev = None if state.last_level is None else q_lv[state.last_level]
    for i in range(horizon):
        t = t0 + i
        lv = seqs[:, i]
        d = manifest.chunk_sizes_bytes[t, lv] * 8.0 / rate_bits
        _, rebuffer, buffer_s, _ = transition(
            buffer_s, d, t == 0, manifest.chunk_duration_s, sim_config.buffer_cap_s
        )
        q = q_lv[lv]
        smooth = 0.0 if q_prev is None else np.abs(q - q_prev)
        value += q - params.rebuffer_penalty * rebuffer - params.smooth_penalty * smooth
        q_prev = q
    # argmax takes the first maximum: sequences enumerate in ascending
    # lexicographic order, so ties resolve toward lower bitrates.
    return int(seqs[int(np.argmax(value)), 0])


_SEQ_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _level_sequences(n_levels: int, horizon: int) -> np.ndarray:
    key = (n_levels, horizon)
    if key not in _SEQ_CACHE:
        _SEQ_CACHE[key] = np.array(
            list(itertools.product(range(n_levels), repeat=horizon)), dtype=np.int64
        )
    return _SEQ_CACHE[key]


def _max_recent_error(history: Sequence[float], config: MpcConfig) -> float:
    """Largest |predicted - actual| / actual the forecaster recently made."""
    worst = 0.0
    n = len(history)
    for k in range(max(1, n - config.error_window), n):
        past = history[max(0, k - config.pred_window):k]
        predicted = harmonic_mean(past)
        actual = history[k]
        worst = max(worst, abs(predicted - actual) / actual)
    return worst


class BufferBasedPolicy:
    def __init__(self, ladder, config: BbConfig = BbConfig()) -> None:
        self.ladder = ladder
        self.config = config

    def __call__(self, state: SessionState, obs: Observation) -> int:
        return bb_decide(obs.buffer_s, self.ladder, self.config)


class RateBasedPolicy:
    """Harmonic-mean forecast over the last few measured chunk throughputs."""

    def __init__(self, ladder, pred_window: int = 5) -> None:
        self.ladder = ladder
        self.pred_window = pred_window

    def __call__(self, state: SessionState, obs: Observation) -> int:
        history = throughput_history(state.measured_mbps)
        return rb_decide(harmonic_mean(history[-self.pred_window:]), self.ladder)


class RobustMpcPolicy:
    def __init__(
        self,
        manifest: VideoManifest,
        params: QoeParams = QoeParams(),
        config: MpcConfig = MpcConfig(),
        sim_config: SimConfig = SimConfig(),
    ) -> None:
        self.manifest = manifest
        self.params = params
        self.config = config
        self.sim_config = sim_config

    def __call__(self, state: SessionState, obs: Observation) -> int:
        history = throughput_history(state.measured_mbps)
        return robust_mpc_decide(state, self.manifest, history, self.config, self.params, self.sim_config)
