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
corpus by one chunk per step, so the policy decides for all of them in
one call, and one array step over a ``BandwidthProfile`` of all traces
moves them all; ``run_policy`` and ``step`` are its one-trace cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qoe import ChunkRecord, QoeParams, VideoManifest, level_terms
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
    """Cumulative-capacity view of B looped traces for O(log n) download solves.

    Row b describes trace b.  Adjacent samples with equal throughput are
    merged into one segment; ``seg_count[b]`` segments start at
    ``seg_starts[b]`` with rates ``seg_rates[b]``, and ``cum_bits[b, k]``
    holds the deliverable bits from time 0 to segment k's start, scaled by
    the link efficiency.  Rows are padded with +inf to one width.  One full
    loop of trace b lasts ``period_s[b]`` and delivers ``bits_per_period[b]``.
    Wall times and bit targets put the session axis first, as (B, ...)
    arrays; a one-trace profile broadcasts against any shape, which is how
    the planner uses it.
    """

    def __init__(self, traces: NetworkTrace | Sequence[NetworkTrace], link_efficiency: float = 1.0) -> None:
        if isinstance(traces, NetworkTrace):
            traces = [traces]
        segments = [_segments(trace, link_efficiency) for trace in traces]
        B, width = len(segments), max(len(starts) for starts, _ in segments) + 1
        self.seg_count = np.array([len(starts) for starts, _ in segments])
        self.period_s = np.array([trace.duration_s for trace in traces])
        self.seg_starts = np.full((B, width), np.inf)
        self.seg_rates = np.full((B, width), np.inf)
        self.cum_bits = np.full((B, width), np.inf)
        for b, (starts, rates) in enumerate(segments):
            n = len(starts)
            seg_ends = np.append(starts[1:], self.period_s[b])
            self.seg_starts[b, :n] = starts
            self.seg_rates[b, :n] = rates
            self.cum_bits[b, : n + 1] = np.concatenate(([0.0], np.cumsum(rates * (seg_ends - starts))))
        self._rows = np.arange(B)
        self.bits_per_period = self.cum_bits[self._rows, self.seg_count]
        self._row_offset = self._rows * width
        self._start_keys, self._cum_keys = self._search_keys(self.seg_starts), self._search_keys(self.cum_bits)

    def _search_keys(self, rows: np.ndarray) -> np.ndarray:
        """Every row entry after the first, keyed (session, entry) as a complex number, flat.

        numpy orders complex numbers by real part, then imaginary part, so one
        sorted array serves the binary searches of all sessions, exactly.
        """
        keys = np.empty((len(rows), rows.shape[1] - 1), dtype=np.complex128)
        keys.real, keys.imag = self._rows[:, None], rows[:, 1:]
        return keys.ravel()

    def _per_session(self, values: np.ndarray, ndim: int):
        """(B,) values shaped to broadcast over (B, ...) arrays of ``ndim`` dims; one trace's broadcast over any."""
        if len(values) == 1:
            return values[0]
        return values if ndim == 1 else values.reshape((-1,) + (1,) * (ndim - 1))

    def _segment_at(self, rows: np.ndarray, keys: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Flat index of the last segment whose row entry is at or below x, per session.

        Segment 0 starts every row at 0, so an x a rounding step below 0 (a
        wall time just short of a loop boundary) also lands in segment 0.
        One trace searches its row directly: cheaper than complex keys for
        the planner's (states, levels) queries.
        """
        if len(rows) == 1:
            return np.searchsorted(rows[0, 1:], x, side="right")
        rows_of_x = self._per_session(self._rows, x.ndim)
        query = np.empty(x.shape, dtype=np.complex128)
        query.real, query.imag = rows_of_x, x
        # Row b's keys start after b * (width - 1) keys; its entries after b * width.
        return np.searchsorted(keys, query, side="right") + rows_of_x

    def bits_before(self, wall_s: np.ndarray | float) -> np.ndarray:
        """Deliverable bits over [0, wall_s] of looped playback."""
        w = np.asarray(wall_s, dtype=np.float64)
        period = self._per_session(self.period_s, w.ndim)
        loops = np.floor(w / period)
        tau = w - loops * period
        k = self._segment_at(self.seg_starts, self._start_keys, tau)
        within = self.cum_bits.take(k) + self.seg_rates.take(k) * (tau - self.seg_starts.take(k))
        return loops * self._per_session(self.bits_per_period, w.ndim) + within

    def time_for_bits(self, bits_target: np.ndarray | float) -> np.ndarray:
        """Inverse of bits_before: wall time at which the target is reached."""
        b = np.asarray(bits_target, dtype=np.float64)
        per_period = self._per_session(self.bits_per_period, b.ndim)
        loops = np.floor(b / per_period)
        rem = b - loops * per_period
        # A remainder of a whole period (rounding) stays in the last segment.
        last = self._per_session(self._row_offset + self.seg_count - 1, b.ndim)
        k = np.minimum(self._segment_at(self.cum_bits, self._cum_keys, rem), last)
        tau = self.seg_starts.take(k) + (rem - self.cum_bits.take(k)) / self.seg_rates.take(k)
        return loops * self._per_session(self.period_s, b.ndim) + tau

    def download_time(self, wall_s: np.ndarray | float, size_bits: np.ndarray | float) -> np.ndarray:
        """Fluid-model download duration for size_bits starting at wall_s."""
        start_bits = self.bits_before(wall_s)
        finish = self.time_for_bits(start_bits + np.asarray(size_bits, dtype=np.float64))
        return finish - np.asarray(wall_s, dtype=np.float64)


def _segments(trace: NetworkTrace, link_efficiency: float) -> tuple[np.ndarray, np.ndarray]:
    """Start times and rates (bits/s) of a trace's segments, equal adjacent samples merged.

    Segment j covers [times[j], times[j+1]) at throughput[j]; the final
    sample only closes the last segment.
    """
    rates = trace.throughput_mbps[:-1] * 1e6 * link_efficiency
    new = np.empty(len(rates), dtype=bool)
    new[0] = True
    np.not_equal(rates[1:], rates[:-1], out=new[1:])
    return trace.times_s[:-1][new], rates[new]


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


def stall_s(buffer_s, download_s, out: np.ndarray | None = None):
    """Time a download outlasts the buffer, elementwise; ``out`` receives it if given."""
    return np.maximum(np.subtract(download_s, buffer_s, out=out), 0.0, out=out)


def transition(buffer_s, download_s, first: bool, chunk_s: float, cap_s: float):
    """Buffer dynamics of one chunk download: (stall, rebuffer, buffer_after, sleep).

    Works elementwise on floats or arrays.  The stall is the time the
    download outlasts the buffer; on the session's first chunk it is startup
    delay, so rebuffering is 0.  The chunk lands, then the client sleeps
    until the buffer drains to ``cap_s``.
    """
    stall = stall_s(buffer_s, download_s)
    rebuffer = 0.0 if first else stall
    buffer_mid = np.maximum(buffer_s - download_s, 0.0) + chunk_s
    buffer_after = np.minimum(buffer_mid, cap_s)
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
    and the successor state: the one-session case of ``run_sessions``'s
    step.  Pass a prebuilt one-trace BandwidthProfile to amortize trace
    preprocessing across steps.
    """
    t = state.next_chunk
    if t >= manifest.chunk_count:
        raise SimError("session already complete")
    if not 0 <= level < len(manifest.ladder):
        raise SimError(f"invalid ladder level {level} at chunk {t}")
    if profile is None:
        profile = BandwidthProfile(trace, config.link_efficiency)
    observations, records, states = _step_sessions([state], [int(level)], manifest, profile, config, params)
    return observations[0], records[0], states[0]


def _step_sessions(
    states: Sequence[SessionState],
    levels: list[int],
    manifest: VideoManifest,
    profile: BandwidthProfile,
    config: SimConfig,
    params: QoeParams,
) -> tuple[list[Observation], list[ChunkRecord], list[SessionState]]:
    """Download chunk t at ``levels[i]`` in session i, for every session at once.

    Every state must be at the same chunk t (so all of them have a last
    level, or none), and row i of ``profile`` must be session i's trace.
    The download solve, the buffer transition and the chunk QoE run on (B,)
    arrays; the observations, records and successor states are built from
    Python scalars, each equal to a run of its session alone.
    """
    t = states[0].next_chunk
    first = t == 0
    level_idx = np.array(levels)
    size_bits = manifest.chunk_sizes_bytes[t, level_idx] * 8.0
    d = profile.download_time(np.array([s.wall_clock_s for s in states]), size_bits)
    stall, rebuffer, buffer_after, sleep = transition(
        np.array([s.buffer_s for s in states]), d, first, manifest.chunk_duration_s, config.buffer_cap_s
    )
    throughput = size_bits / d / 1e6
    utility, switch = level_terms(manifest.ladder, params)
    prev_rows = 0 if states[0].last_level is None else np.array([s.last_level for s in states]) + 1
    qoe = utility[level_idx] - params.rebuffer_penalty * rebuffer - switch[prev_rows, level_idx]

    download, measured, buffer, slept, score = (a.tolist() for a in (d, throughput, buffer_after, sleep, qoe))
    rebuffered = [0.0] * len(states) if first else rebuffer.tolist()
    startup = stall.tolist() if first else [0.0] * len(states)
    observations, records, successors = [], [], []
    for i, (state, level) in enumerate(zip(states, levels)):
        records.append(
            ChunkRecord(
                chunk_index=t,
                chosen_level=level,
                bitrate_kbps=manifest.ladder[level],
                rebuffer_s=rebuffered[i],
                download_s=download[i],
                throughput_mbps=measured[i],
                buffer_after_s=buffer[i],
                qoe_value=score[i],
            )
        )
        new_state = SessionState(
            next_chunk=t + 1,
            buffer_s=buffer[i],
            last_level=level,
            wall_clock_s=state.wall_clock_s + download[i] + slept[i],
            rebuffer_total_s=state.rebuffer_total_s + rebuffered[i],
            startup_delay_s=state.startup_delay_s + startup[i],
            sleep_total_s=state.sleep_total_s + slept[i],
            measured_mbps=state.measured_mbps + (measured[i],),
        )
        successors.append(new_state)
        observations.append(observe(manifest, new_state, measured[i], download[i]))
    return observations, records, successors


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


def run_sessions(
    policy,
    manifest: VideoManifest,
    traces: Sequence[NetworkTrace],
    config: SimConfig = SimConfig(),
    params: QoeParams = QoeParams(),
) -> list[SessionLog]:
    """Drive one session per trace in lock step; deterministic with the inputs.

    Every step advances each session by one chunk: the policy's
    ``decide_batch(states, observations)`` picks the levels of all sessions
    in one call, and one array step over a BandwidthProfile of all traces
    moves them all.  Each session's log equals a run over its trace alone.
    """
    if not traces:
        return []
    states = [init_session(trace) for trace in traces]
    profile = BandwidthProfile(traces, config.link_efficiency)
    n_levels = len(manifest.ladder)
    obs = [observe(manifest, state) for state in states]
    records: list[list[ChunkRecord]] = [[] for _ in traces]
    observations: list[list[Observation]] = [[] for _ in traces]
    for t in range(manifest.chunk_count):
        levels = policy.decide_batch(states, obs)
        if len(levels) != len(traces):
            raise SimError(f"policy returned {len(levels)} levels for {len(traces)} sessions at chunk {t}")
        for level in levels:
            if not isinstance(level, (int, np.integer)) or not 0 <= level < n_levels:
                raise SimError(f"policy returned invalid level {level!r} at chunk {t}")
        for seen, o in zip(observations, obs):
            seen.append(o)
        obs, chunk_records, states = _step_sessions(
            states, [int(level) for level in levels], manifest, profile, config, params
        )
        for recs, record in zip(records, chunk_records):
            recs.append(record)
    return [
        SessionLog(records=recs, observations=seen, final_state=state, trace_tag=trace.source_tag)
        for recs, seen, state, trace in zip(records, observations, states, traces)
    ]


def run_policy(
    policy,
    manifest: VideoManifest,
    trace: NetworkTrace,
    config: SimConfig = SimConfig(),
    params: QoeParams = QoeParams(),
) -> SessionLog:
    """Drive one full session under ``policy``: ``run_sessions`` over one trace."""
    return run_sessions(policy, manifest, [trace], config, params)[0]
