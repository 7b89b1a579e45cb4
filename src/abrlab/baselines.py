"""Rule-based comparison policies: buffer-based, rate-based, and robust MPC.

Each policy decides every session of a lock-step corpus run in one
``decide_batch`` call: the buffer and rate rules are elementwise over (B,)
arrays, and robust MPC (Yin et al., SIGCOMM 2015) searches its lookahead
horizon as a prefix tree over (sessions, prefixes) arrays, with
``robust_mpc_decide`` its one-session case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qoe import QoeParams, VideoManifest, level_terms
from .sim import Observation, SessionState, SimConfig, stall_s, throughput_history, transition


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


def bb_decide(buffer_s, ladder, config: BbConfig = BbConfig()) -> np.ndarray:
    """Map buffer occupancy onto the ladder, elementwise over (B,) buffers.

    Below the reservoir pick the lowest level; above reservoir + cushion pick
    the highest; in between, interpolate linearly between the lowest and
    highest bitrates and take the highest level not exceeding that value.
    """
    buffer_s = np.asarray(buffer_s, dtype=np.float64)
    if not np.all(buffer_s >= 0):
        raise ValueError("buffer_s must be non-negative")
    frac = (buffer_s - config.reservoir_s) / config.cushion_s
    target = ladder[0] + frac * (ladder[len(ladder) - 1] - ladder[0])
    level = np.maximum(np.searchsorted(ladder, target, side="right") - 1, 0)
    level = np.where(buffer_s > config.reservoir_s + config.cushion_s, len(ladder) - 1, level)
    return np.where(buffer_s < config.reservoir_s, 0, level)


def harmonic_mean(values):
    """Harmonic mean of positive values; of each row for a (B, n) array."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape[-1] == 0 or np.any(v <= 0):
        raise ValueError("harmonic mean needs positive values")
    mean = v.shape[-1] / np.sum(1.0 / v, axis=-1)
    return float(mean) if v.ndim == 1 else mean


def rb_decide(predicted_throughput_mbps, ladder) -> np.ndarray:
    """Highest level whose bitrate fits each prediction, elementwise; lowest if none do."""
    predicted = np.asarray(predicted_throughput_mbps, dtype=np.float64)
    if not np.all(predicted > 0):
        raise ValueError("prediction must be positive")
    return np.maximum(np.searchsorted(ladder, predicted * 1000.0, side="right") - 1, 0)


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
    search (``mpc_first_levels``, here for one session) replays the
    simulator's buffer dynamics under the constant discounted forecast.
    """
    forecast = mpc_forecasts([throughput_history_mbps], config)
    return int(mpc_first_levels([state], manifest, forecast, config, params, sim_config)[0])


def mpc_forecasts(histories, config: MpcConfig = MpcConfig()) -> np.ndarray:
    """Discounted harmonic-mean forecasts for B equally long histories, (B, n) -> (B,)."""
    history = np.asarray(histories, dtype=np.float64)
    if history.shape[1] == 0:
        raise ValueError("need at least one throughput measurement")
    pred = harmonic_mean(history[:, -config.pred_window:])
    return pred / (1.0 + _max_recent_error(history, config))


def _max_recent_error(history, config: MpcConfig) -> np.ndarray:
    """Largest |predicted - actual| / actual the forecaster recently made, per history row."""
    h = np.asarray(history, dtype=np.float64)
    n = h.shape[-1]
    worst = np.zeros(h.shape[:-1])
    for k in range(max(1, n - config.error_window), n):
        predicted = harmonic_mean(h[..., max(0, k - config.pred_window):k])
        actual = h[..., k]
        worst = np.maximum(worst, np.abs(predicted - actual) / actual)
    return worst


def mpc_first_levels(
    states: Sequence[SessionState],
    manifest: VideoManifest,
    forecasts_mbps: Sequence[float],
    config: MpcConfig = MpcConfig(),
    params: QoeParams = QoeParams(),
    sim_config: SimConfig = SimConfig(),
) -> np.ndarray:
    """Robust-MPC first levels for sessions that all decide the same chunk.

    The horizon is searched as a prefix tree, one depth at a time on
    (sessions, prefixes) arrays: depth i holds every level sequence of
    length i+1 in ascending lexicographic order, so the n + n^2 + ... + n^H
    nodes replace n^H full sequences of H steps each.  Every leaf sums the
    same per-chunk terms in the same order as replaying its sequence alone,
    and ties keep the first (lexicographically lowest) sequence.  The last
    depth needs only each leaf's stall, and its terms accumulate in place.
    """
    t0 = states[0].next_chunk
    if any(s.next_chunk != t0 for s in states):
        raise ValueError("sessions must decide the same chunk")
    horizon = min(config.horizon, manifest.chunk_count - t0)
    if horizon <= 0:
        raise ValueError("session already complete")
    B, n_lv = len(states), len(manifest.ladder)
    q_lv, switch = level_terms(manifest.ladder, params)
    rate_bits = np.asarray(forecasts_mbps, dtype=np.float64)[:, None, None] * 1e6
    prev_rows = [0 if s.last_level is None else s.last_level + 1 for s in states]
    buffer_s = np.array([s.buffer_s for s in states])[:, None]
    value = np.zeros((B, 1))
    for i in range(horizon):
        # Children of every (session, prefix) node, one per level: (B, prefixes, n_lv).
        t = t0 + i
        d = manifest.chunk_sizes_bytes[t] * 8.0 / rate_bits
        term = np.empty((B, value.shape[1], n_lv))
        if i + 1 < horizon:
            _, rebuffer, buffer_s, _ = transition(
                buffer_s[:, :, None], d, t == 0, manifest.chunk_duration_s, sim_config.buffer_cap_s
            )
            np.multiply(rebuffer, params.rebuffer_penalty, out=term)
        elif t == 0:  # a one-chunk horizon at the session start: its stall is startup delay
            term.fill(0.0)
        else:  # the leaves: only the rebuffering counts, no buffer to carry on
            stall_s(buffer_s[:, :, None], d, out=term)
            term *= params.rebuffer_penalty
        np.subtract(q_lv, term, out=term)
        if i == 0:  # against each session's last level, if it has one
            term -= switch[prev_rows][:, None]
        else:  # against the parent node's level, the same for every session
            by_parent = term.reshape(B, -1, n_lv, n_lv)  # (B, grandparents, parent level, level), a view
            by_parent -= switch[1:]
        term += value[:, :, None]
        value, buffer_s = term.reshape(B, -1), buffer_s.reshape(B, -1)
    # argmax takes the first maximum: leaves are in ascending lexicographic
    # order, so ties resolve toward lower bitrates.
    return np.argmax(value, axis=1) // n_lv ** (horizon - 1)


class BufferBasedPolicy:
    def __init__(self, ladder, config: BbConfig = BbConfig()) -> None:
        self.ladder = ladder
        self.config = config

    def decide_batch(self, states: Sequence[SessionState], observations: Sequence[Observation]) -> list[int]:
        return bb_decide([o.buffer_s for o in observations], self.ladder, self.config).tolist()


class RateBasedPolicy:
    """Harmonic-mean forecast over the last few measured chunk throughputs."""

    def __init__(self, ladder, pred_window: int = 5) -> None:
        self.ladder = ladder
        self.pred_window = pred_window

    def decide_batch(self, states: Sequence[SessionState], observations: Sequence[Observation]) -> list[int]:
        """Levels for sessions deciding the same chunk, so their histories are equally long."""
        recent = [throughput_history(s.measured_mbps)[-self.pred_window:] for s in states]
        return rb_decide(harmonic_mean(recent), self.ladder).tolist()


class RobustMpcPolicy:
    """Robust MPC; stateless, so one instance serves any number of sessions."""

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

    def decide_batch(self, states: Sequence[SessionState], observations: Sequence[Observation]) -> list[int]:
        """Levels for sessions deciding the same chunk, in one horizon search."""
        forecasts = mpc_forecasts([throughput_history(s.measured_mbps) for s in states], self.config)
        levels = mpc_first_levels(states, self.manifest, forecasts, self.config, self.params, self.sim_config)
        return levels.tolist()
