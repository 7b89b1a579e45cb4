"""Deterministic chunk-level streaming simulator.

Downloads follow a fluid model: a chunk of S bits started at wall time w
finishes at the smallest w+d such that the integral of link bandwidth over
[w, w+d] equals S.  Bandwidth is piecewise constant from the trace and the
trace loops when a session outlives it.  Playback starts when the first
chunk lands (that delay is startup, not rebuffering); afterwards any gap
between an empty buffer and a finishing download counts as rebuffering.
When a finished download would push the buffer above its cap, the client
sleeps until the buffer drains to the cap, with the wall clock (and hence
the trace) advancing during the sleep.  ``transition`` holds this buffer
arithmetic once; the planner and the MPC rollout apply it to arrays.
``run_sessions`` is the one session loop: it advances every session of a
corpus by one chunk per step, so a batch policy decides for all of them in
one call; ``run_policy`` is its one-trace case.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import json

import numpy as np

from .qoe import ChunkRecord, QoeParams, VideoManifest, chunk_qoe
from .traces import NetworkTrace

# Throughput assumed before any download has been measured: the first
# observation's placeholder and the startup history (see throughput_history).
STARTUP_THROUGHPUT_MBPS = 1.0


class SimError(ValueError):
    """Invalid simulator input or policy output."""


@dataclass(frozen=True)
class SimConfig:
    buffer_cap_s: float = 60.0
    link_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.buffer_cap_s <= 0:
            raise SimError("buffer_cap_s must be positive")
        if not 0.0 < self.link_efficiency <= 1.0:
            raise SimError("link_efficiency must be in (0, 1]")


@dataclass
class SessionState:
    """Progress of one streaming session.

    The trace cursor is implicit: position within the looped trace is
    wall_clock_s modulo the trace duration.  ``measured_mbps`` holds the
    throughput of every completed download, oldest first.
    """

    next_chunk: int = 0
    buffer_s: float = 0.0
    last_level: int | None = None
    wall_clock_s: float = 0.0
    rebuffer_total_s: float = 0.0
    startup_delay_s: float = 0.0
    sleep_total_s: float = 0.0
    measured_mbps: tuple[float, ...] = ()


def throughput_history(measured_mbps: Sequence[float]) -> Sequence[float]:
    """Measured per-chunk throughputs, or the startup value before any download."""
    return measured_mbps if len(measured_mbps) else (STARTUP_THROUGHPUT_MBPS,)


@dataclass
class Observation:
    """Decision-time inputs for chunk ``next_chunk``.

    buffer_s is the current buffer; throughput_mbps and download_s describe
    the most recent completed download; next_chunk_sizes_bytes lists the
    available encodings of the chunk about to be requested (zeros once the
    session is over); remaining_frac is (chunks left) / (total chunks).
    """

    buffer_s: float
    throughput_mbps: float
    download_s: float
    next_chunk_sizes_bytes: np.ndarray
    remaining_frac: float

    def __post_init__(self) -> None:
        self.next_chunk_sizes_bytes = np.asarray(self.next_chunk_sizes_bytes, dtype=np.float64)
        if self.throughput_mbps <= 0:
            raise SimError("observed throughput must be positive")
        if not 0.0 <= self.remaining_frac <= 1.0:
            raise SimError("remaining_frac must be within [0, 1]")

    def vector(self) -> np.ndarray:
        """Flat feature layout [buffer, throughput, download, sizes..., remaining]."""
        return np.concatenate(
            (
                [self.buffer_s, self.throughput_mbps, self.download_s],
                self.next_chunk_sizes_bytes,
                [self.remaining_frac],
            )
        ).astype(np.float64)


def obs_dim(ladder_size: int) -> int:
    return 4 + ladder_size


class BandwidthProfile:
    """Cumulative-capacity view of a looped trace for O(log n) download solves.

    Adjacent samples with equal throughput are merged.  ``cum_bits[k]`` holds
    the deliverable bits from time 0 to segment k's start, scaled by the
    link efficiency; one full loop delivers ``bits_per_period``.
    """

    def __init__(self, trace: NetworkTrace, link_efficiency: float = 1.0) -> None:
        times = trace.times_s
        bw = trace.throughput_mbps
        # Segment j covers [times[j], times[j+1]) at bw[j]; the final sample
        # only closes the last segment.
        starts = [times[0]]
        rates = [bw[0] * 1e6 * link_efficiency]
        for j in range(1, len(times) - 1):
            rate = bw[j] * 1e6 * link_efficiency
            if rate != rates[-1]:
                starts.append(times[j])
                rates.append(rate)
        self.period_s = float(times[-1])
        self.seg_starts = np.asarray(starts, dtype=np.float64)
        self.seg_rates = np.asarray(rates, dtype=np.float64)
        seg_ends = np.append(self.seg_starts[1:], self.period_s)
        seg_bits = self.seg_rates * (seg_ends - self.seg_starts)
        self.cum_bits = np.concatenate(([0.0], np.cumsum(seg_bits)))
        self.bits_per_period = float(self.cum_bits[-1])

    def bits_before(self, wall_s: np.ndarray | float) -> np.ndarray:
        """Deliverable bits over [0, wall_s] of looped playback."""
        w = np.asarray(wall_s, dtype=np.float64)
        loops = np.floor(w / self.period_s)
        tau = w - loops * self.period_s
        k = np.searchsorted(self.seg_starts, tau, side="right") - 1
        within = self.cum_bits[k] + self.seg_rates[k] * (tau - self.seg_starts[k])
        return loops * self.bits_per_period + within

    def time_for_bits(self, bits_target: np.ndarray | float) -> np.ndarray:
        """Inverse of bits_before: wall time at which the target is reached."""
        b = np.asarray(bits_target, dtype=np.float64)
        loops = np.floor(b / self.bits_per_period)
        rem = b - loops * self.bits_per_period
        k = np.searchsorted(self.cum_bits, rem, side="right") - 1
        k = np.minimum(k, len(self.seg_rates) - 1)
        tau = self.seg_starts[k] + (rem - self.cum_bits[k]) / self.seg_rates[k]
        return loops * self.period_s + tau

    def download_time(self, wall_s: np.ndarray | float, size_bits: np.ndarray | float) -> np.ndarray:
        """Fluid-model download duration for size_bits starting at wall_s."""
        start_bits = self.bits_before(wall_s)
        finish = self.time_for_bits(start_bits + np.asarray(size_bits, dtype=np.float64))
        return finish - np.asarray(wall_s, dtype=np.float64)


def init_session(trace: NetworkTrace) -> SessionState:
    """Fresh session: empty buffer, clock at 0, cursor at the trace start."""
    if trace.duration_s < 1.0:
        raise SimError("trace must cover at least 1 s")
    return SessionState()


def observe(
    manifest: VideoManifest,
    state: SessionState,
    throughput_mbps: float = STARTUP_THROUGHPUT_MBPS,
    download_s: float = 0.0,
) -> Observation:
    """Decision-time observation for chunk ``state.next_chunk``.

    The defaults describe a session start, before any download has completed;
    once the session is over the chunk sizes are zeros.
    """
    t = state.next_chunk
    done = t >= manifest.chunk_count
    return Observation(
        buffer_s=state.buffer_s,
        throughput_mbps=throughput_mbps,
        download_s=download_s,
        next_chunk_sizes_bytes=np.zeros(len(manifest.ladder)) if done else manifest.chunk_sizes_bytes[t].copy(),
        remaining_frac=(manifest.chunk_count - t) / manifest.chunk_count,
    )


def transition(buffer_s, download_s, first: bool, chunk_s: float, cap_s: float):
    """Buffer dynamics of one chunk download: (stall, rebuffer, buffer_after, sleep).

    Works elementwise on floats or arrays; floats skip the ufunc overhead.
    The stall is the time the download outlasts the buffer; on the session's
    first chunk it is startup delay, so rebuffering is 0.  The chunk lands,
    then the client sleeps until the buffer drains to ``cap_s``.
    """
    scalar = isinstance(buffer_s, float) and isinstance(download_s, float)
    maximum, minimum = (max, min) if scalar else (np.maximum, np.minimum)
    stall = maximum(download_s - buffer_s, 0.0)
    rebuffer = 0.0 if first else stall
    buffer_mid = maximum(buffer_s - download_s, 0.0) + chunk_s
    buffer_after = minimum(buffer_mid, cap_s)
    return stall, rebuffer, buffer_after, buffer_mid - buffer_after


def step(
    state: SessionState,
    level: int,
    manifest: VideoManifest,
    trace: NetworkTrace,
    config: SimConfig = SimConfig(),
    params: QoeParams = QoeParams(),
    profile: BandwidthProfile | None = None,
) -> tuple[Observation, ChunkRecord, SessionState]:
    """Download chunk ``state.next_chunk`` at ``level`` and advance the session.

    Returns the observation for the next decision, the record of this chunk,
    and the successor state.  Pass a prebuilt BandwidthProfile to amortize
    trace preprocessing across steps.
    """
    t = state.next_chunk
    if t >= manifest.chunk_count:
        raise SimError("session already complete")
    if not 0 <= level < len(manifest.ladder):
        raise SimError(f"invalid ladder level {level} at chunk {t}")
    if profile is None:
        profile = BandwidthProfile(trace, config.link_efficiency)

    size_bits = manifest.chunk_bits(t, level)
    d = float(profile.download_time(state.wall_clock_s, size_bits))

    first = t == 0
    stall, rebuffer, buffer_after, sleep = transition(
        state.buffer_s, d, first, manifest.chunk_duration_s, config.buffer_cap_s
    )

    throughput_mbps = size_bits / d / 1e6
    qoe = chunk_qoe(
        manifest.ladder[level],
        None if state.last_level is None else manifest.ladder[state.last_level],
        rebuffer,
        params,
    )
    record = ChunkRecord(
        chunk_index=t,
        chosen_level=level,
        bitrate_kbps=manifest.ladder[level],
        rebuffer_s=rebuffer,
        download_s=d,
        throughput_mbps=throughput_mbps,
        buffer_after_s=buffer_after,
        qoe_value=qoe,
    )
    new_state = SessionState(
        next_chunk=t + 1,
        buffer_s=buffer_after,
        last_level=level,
        wall_clock_s=state.wall_clock_s + d + sleep,
        rebuffer_total_s=state.rebuffer_total_s + rebuffer,
        startup_delay_s=state.startup_delay_s + (stall if first else 0.0),
        sleep_total_s=state.sleep_total_s + sleep,
        measured_mbps=state.measured_mbps + (throughput_mbps,),
    )
    return observe(manifest, new_state, throughput_mbps, d), record, new_state


@dataclass
class SessionLog:
    """Everything produced by one simulated session.

    ``observations[t]`` is the decision-time observation for chunk t (so the
    startup placeholder sits at index 0); ``records[t]`` is its outcome.
    """

    records: list[ChunkRecord]
    observations: list[Observation]
    final_state: SessionState
    trace_tag: str = ""


Policy = Callable[[SessionState, Observation], int]


def run_sessions(
    policy,
    manifest: VideoManifest,
    traces: Sequence[NetworkTrace],
    config: SimConfig = SimConfig(),
    params: QoeParams = QoeParams(),
) -> list[SessionLog]:
    """Drive one session per trace in lock step; deterministic with the inputs.

    Every step advances each session by one chunk.  A policy with
    ``decide_batch(states, observations)`` picks the levels of all sessions
    in one call; a plain ``Policy`` callable is applied per session.
    Stateful policies may expose ``reset()``, called before the first chunk.
    Each session steps through ``step`` with its own BandwidthProfile, so its
    log equals a run over its trace alone.
    """
    states = [init_session(trace) for trace in traces]
    profiles = [BandwidthProfile(trace, config.link_efficiency) for trace in traces]
    reset = getattr(policy, "reset", None)
    if reset is not None:
        reset()
    decide_batch = getattr(policy, "decide_batch", None) or (
        lambda states, observations: [policy(s, o) for s, o in zip(states, observations)]
    )
    obs = [observe(manifest, state) for state in states]
    records: list[list[ChunkRecord]] = [[] for _ in traces]
    observations: list[list[Observation]] = [[] for _ in traces]
    for t in range(manifest.chunk_count):
        levels = decide_batch(states, obs)
        if len(levels) != len(traces):
            raise SimError(f"policy returned {len(levels)} levels for {len(traces)} sessions at chunk {t}")
        for i, level in enumerate(levels):
            if not isinstance(level, (int, np.integer)) or not 0 <= level < len(manifest.ladder):
                raise SimError(f"policy returned invalid level {level!r} at chunk {t}")
            observations[i].append(obs[i])
            obs[i], record, states[i] = step(
                states[i], int(level), manifest, traces[i], config, params, profiles[i]
            )
            records[i].append(record)
    return [
        SessionLog(records=recs, observations=seen, final_state=state, trace_tag=trace.source_tag)
        for recs, seen, state, trace in zip(records, observations, states, traces)
    ]


def run_policy(
    policy: Policy,
    manifest: VideoManifest,
    trace: NetworkTrace,
    config: SimConfig = SimConfig(),
    params: QoeParams = QoeParams(),
) -> SessionLog:
    """Drive one full session under ``policy``: ``run_sessions`` over one trace."""
    return run_sessions(policy, manifest, [trace], config, params)[0]


def save_session_log(log: SessionLog, path: str | Path) -> None:
    """One ChunkRecord per line, JSON-encoded."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in log.records:
            fh.write(json.dumps(rec.__dict__, sort_keys=True) + "\n")
