"""Offline-optimal planning over a fully known trace, and expert trajectories.

The planner runs a forward dynamic program over states
(chunk index, quantized buffer, last level, quantized wall time), with the
per-chunk QoE as the reward.  Each expansion applies the simulator's own
``BandwidthProfile`` download solve and ``sim.transition`` to (parent,
action) arrays, with one download start per parent; candidates that reach
the same state are merged by one stable sort on the state key, and the
optional dominance prune works on integer value ranks.  ``Plan.frontier``
records the state counts of every chunk.  Buffer and wall time are
re-quantized after every transition, so the search is exact whenever the
true values land on quantization points and otherwise accurate to a bound
that scales with the quanta.

``dp_plans`` plans a corpus from the session start of every trace, one
forked worker process per usable CPU; each plan is the same pure call as a
serial ``dp_plan``, so the plans are identical bit for bit.
``PlanFollower`` is the one plan replay: ``plan_sessions`` replays every
plan of a corpus in one lock-step run with it (``plan_session`` is its
one-trace case), and so does the evaluation's dp row.  Expert trajectories
pair each decision-time observation of a replayed plan with the estimator's
QoE-to-go output and the replayed action as a one-hot distribution; they are
the training unit for the sequence model.
"""

from __future__ import annotations

import functools
import json
import os
from concurrent import futures
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .qoe import QoeParams, VideoManifest, level_terms
from .sim import BandwidthProfile, SessionLog, SessionState, SimConfig, run_sessions, transition
from .traces import NetworkTrace
from . import estimator as est


class DpError(ValueError):
    """Invalid planner input or an empty reachable state set."""


class DpBudgetError(DpError):
    """State count exceeded the configured budget; try coarser quanta."""


@dataclass(frozen=True)
class DpConfig:
    buffer_quantum_s: float = 0.5
    time_quantum_s: float = 0.5
    max_time_s: float = 7200.0
    max_states: int = 3_000_000
    # Strict dominance pruning (drop states with another state at
    # buffer >=, time <=, value >, same last level).  Large speedup, but can
    # sacrifice exactness when later trace segments are faster than earlier
    # ones, so it defaults off; the evaluation pipeline opts in.
    dominance_prune: bool = False

    def __post_init__(self) -> None:
        if self.buffer_quantum_s <= 0 or self.time_quantum_s <= 0:
            raise DpError("quanta must be positive")


@dataclass
class Plan:
    """Optimal action per remaining chunk plus the planner's value accounting.

    ``value_to_go[i]`` is the planned QoE sum from the i-th planned chunk to
    the end of the session; ``value_to_go[0] == total_qoe``.
    """

    actions: list[int]
    total_qoe: float
    value_to_go: np.ndarray
    start_chunk: int = 0
    # One row per planned chunk: candidate states, distinct states after the
    # merge, states kept after dominance pruning.
    frontier: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int64))


def dp_plan(
    manifest: VideoManifest,
    trace: NetworkTrace,
    params: QoeParams = QoeParams(),
    start_state: SessionState | None = None,
    dp_config: DpConfig = DpConfig(),
    sim_config: SimConfig = SimConfig(),
) -> Plan:
    """Maximize cumulative per-chunk QoE for all chunks from ``start_state`` on.

    The first chunk of a fresh session gets the simulator's startup treatment
    (its stall is not billed as rebuffering and it pays no smoothness term).
    Among action sequences within 1e-12 of the maximum, the lexicographically
    lowest (most rebuffer-averse) one is returned.
    """
    state0 = start_state if start_state is not None else SessionState()
    t0 = state0.next_chunk
    T = manifest.chunk_count
    if t0 > T:
        raise DpError(f"start_state.next_chunk {t0} beyond chunk count {T}")
    if t0 == T:
        return Plan(actions=[], total_qoe=0.0, value_to_go=np.zeros(0), start_chunk=t0)

    profile = BandwidthProfile(trace, sim_config.link_efficiency)
    n_lv = len(manifest.ladder)
    q_lv, smooth = level_terms(manifest.ladder, params)  # smooth row 0: no previous chunk

    dq_b = dp_config.buffer_quantum_s
    dq_t = dp_config.time_quantum_s
    cap = sim_config.buffer_cap_s
    dur = manifest.chunk_duration_s
    max_bq = int(round(cap / dq_b))
    # On a constant-bandwidth trace the download time is position-free, so
    # wall time can be dropped from the state identity.
    time_free = profile.seg_count[0] == 1
    sizes_bits = manifest.chunk_sizes_bytes * 8.0
    levels = np.arange(n_lv, dtype=np.int64)

    tq = np.array([int(round(state0.wall_clock_s / dq_t))], dtype=np.int64)
    bq = np.array([int(round(state0.buffer_s / dq_b))], dtype=np.int64)
    last = np.array(
        [-1 if state0.last_level is None else state0.last_level], dtype=np.int64
    )
    val = np.zeros(1)
    back: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (parent, action, value)
    frontier: list[tuple[int, int, int]] = []

    for t in range(t0, T):
        n = len(val)
        if n * n_lv > dp_config.max_states:
            raise DpBudgetError(
                f"{n * n_lv} candidate states at chunk {t} exceed max_states="
                f"{dp_config.max_states}; use coarser buffer/time quanta"
            )
        # Candidates are (parent, action) cells of (n, n_lv) arrays; the
        # download solve starts from one position per parent.
        w = (tq * dq_t)[:, None]
        d = profile.download_time(w, sizes_bits[t])
        _, rebuf, b_new, sleep = transition((bq * dq_b)[:, None], d, t == 0, dur, cap)
        w_new = (w + d + sleep).ravel()
        val_new = (val[:, None] + q_lv - params.rebuffer_penalty * rebuf - smooth[last + 1]).ravel()
        tq_new = np.rint(w_new / dq_t).astype(np.int64)
        bq_new = np.rint(b_new.ravel() / dq_b).astype(np.int64)
        key_t = 0 if time_free else tq_new
        key = ((key_t * (max_bq + 1) + bq_new).reshape(n, n_lv) * n_lv + levels).ravel()

        sel = _best_per_key(key, val_new, w_new <= dp_config.max_time_s)
        if len(sel) == 0:
            raise DpError(
                f"all states passed max_time_s={dp_config.max_time_s} at chunk {t}"
            )
        distinct = len(sel)
        act = sel % n_lv
        if dp_config.dominance_prune and not time_free:
            keep = _dominant_mask(tq_new[sel], bq_new[sel], act, val_new[sel], max_bq)
            sel, act = sel[keep], act[keep]
        frontier.append((n * n_lv, distinct, len(sel)))

        tq, bq, last, val = tq_new[sel], bq_new[sel], act, val_new[sel]
        back.append((sel // n_lv, act, val))

    total = float(val.max())
    candidates = np.flatnonzero(val >= total - 1e-12)[:64]
    best_actions: list[int] | None = None
    best_cum: list[float] = []
    for cand in candidates:
        actions: list[int] = []
        cum: list[float] = []
        idx = int(cand)
        for parent, action, value in reversed(back):
            actions.append(int(action[idx]))
            cum.append(float(value[idx]))
            idx = int(parent[idx])
        actions.reverse()
        cum.reverse()
        if best_actions is None or actions < best_actions:
            best_actions, best_cum = actions, cum
    cum_before = np.concatenate(([0.0], np.asarray(best_cum[:-1])))
    value_to_go = total - cum_before
    return Plan(
        actions=best_actions,
        total_qoe=total,
        value_to_go=value_to_go,
        start_chunk=t0,
        frontier=np.array(frontier, dtype=np.int64),
    )


def plan_processes(n_traces: int) -> int:
    """Worker processes ``dp_plans`` runs for ``n_traces`` traces: one per usable CPU, at most one per trace."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(n_traces, cpus))


def dp_plans(
    manifest: VideoManifest,
    traces: Sequence[NetworkTrace],
    params: QoeParams = QoeParams(),
    dp_config: DpConfig = DpConfig(),
    sim_config: SimConfig = SimConfig(),
) -> list[Plan]:
    """``dp_plan`` from the session start of every trace, in trace order.

    The plans are independent, so they run over ``plan_processes`` worker
    processes, forked for this call and joined before it returns; with one
    worker they run in this process.  Each plan is the same pure call on
    pickled copies of the same inputs, so it equals the serial one bit for
    bit, and the first failing trace's ``DpError`` is raised.  Threads would
    not help: the planner holds the GIL.  The workers are forked, not
    spawned, because a spawned worker re-imports numpy and this package
    before its first plan; so call this while no other thread of the
    process holds a lock (every caller in the lab plans on its main thread,
    outside training and serving).
    """
    plan = functools.partial(dp_plan, manifest, params=params, dp_config=dp_config, sim_config=sim_config)
    workers = plan_processes(len(traces))
    if workers == 1:
        return [plan(trace) for trace in traces]
    import multiprocessing  # here, not at the top: with the process pool, it adds ~8 ms to every CLI start

    pool = futures.ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(plan, traces))
    finally:
        pool.shutdown(cancel_futures=True)


def _best_per_key(key: np.ndarray, val: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Index of the best candidate per distinct key among ``within``, in key order.

    The best has the highest value; ties go to the lowest index, i.e. the
    earliest parent, since the key already fixes the action.
    """
    order = np.argsort(key, kind="stable")
    if not within.all():
        order = order[within[order]]
    k, v = key[order], val[order]
    start = np.empty(len(k), dtype=bool)
    start[:1] = True
    np.not_equal(k[1:], k[:-1], out=start[1:])
    starts = np.flatnonzero(start)
    if len(starts) == 0:
        return order
    seg_max = np.maximum.reduceat(v, starts)[np.cumsum(start) - 1]
    first_hit = np.where(v == seg_max, np.arange(len(v)), len(v))
    return order[np.minimum.reduceat(first_hit, starts)]


def _dominant_mask(
    tq: np.ndarray, bq: np.ndarray, lv: np.ndarray, val: np.ndarray, max_bq: int
) -> np.ndarray:
    """Keep states not strictly dominated within their last-level group.

    A state is dominated when another of its level has time <=, buffer >=
    and a strictly higher value.  States come in key order, so times are
    sorted and (time, level, buffer) cells are distinct.  The grid holds one
    plane per level of int32 dense value ranks (equal values share a rank),
    with a row per distinct time and a column per distinct buffer of that
    level, buffers from high to low; two running maxima give every cell the
    best rank at earlier-or-equal time and higher-or-equal buffer.
    """
    _, rank = np.unique(val, return_inverse=True)
    rank = rank.astype(np.int32)
    t = np.zeros(len(tq), dtype=np.int64)
    np.cumsum(tq[1:] != tq[:-1], out=t[1:])
    b = max_bq - bq
    # per level, the dense index of each distinct time and buffer
    n_lv = lv.max() + 1
    rows = np.zeros((n_lv, t[-1] + 1), dtype=np.int64)
    rows[lv, t] = 1
    np.cumsum(rows, axis=1, out=rows)
    cols = np.zeros((n_lv, max_bq + 1), dtype=np.int64)
    cols[lv, b] = 1
    np.cumsum(cols, axis=1, out=cols)
    row, col = rows[lv, t] - 1, cols[lv, b] - 1
    grid = np.full((rows[:, -1].max(), n_lv, cols[:, -1].max()), -1, dtype=np.int32)
    grid[row, lv, col] = rank
    np.maximum.accumulate(grid, axis=0, out=grid)  # earlier-or-equal time
    np.maximum.accumulate(grid, axis=2, out=grid)  # higher-or-equal buffer
    return rank >= grid[row, lv, col]


def qoe_to_go_truth(
    manifest: VideoManifest,
    trace: NetworkTrace,
    params: QoeParams,
    state: SessionState,
    dp_config: DpConfig = DpConfig(),
    sim_config: SimConfig = SimConfig(),
) -> float:
    """Scaled maximum achievable QoE over the remaining chunks (0 when done)."""
    if state.next_chunk >= manifest.chunk_count:
        return 0.0
    plan = dp_plan(manifest, trace, params, state, dp_config, sim_config)
    return params.qoe_to_go_scale * plan.total_qoe


@dataclass
class Trajectory:
    """Per-trace expert sequence: (observation, estimated QoE-to-go, action).

    observations are raw decision-time vectors (T, obs_dim); returns hold the
    estimator output per chunk; actions are one-hot over ladder levels.
    ``ladder_kbps`` is the bitrate ladder the plan chose from, when recorded.
    """

    trace_tag: str
    timesteps: np.ndarray
    observations: np.ndarray
    returns: np.ndarray
    actions: np.ndarray
    ladder_kbps: tuple[float, ...] | None = None

    def __len__(self) -> int:
        return len(self.timesteps)


@dataclass(frozen=True)
class PlanFollower:
    """Replays one fixed action plan per session of a lock-step ``sim.run_sessions`` run."""

    plans: tuple[Sequence[int], ...]

    def decide_batch(self, states: Sequence[SessionState], observations) -> list[int]:
        return [plan[s.next_chunk] for plan, s in zip(self.plans, states)]


def plan_sessions(
    manifest: VideoManifest,
    traces: Sequence[NetworkTrace],
    params: QoeParams = QoeParams(),
    dp_config: DpConfig = DpConfig(),
    sim_config: SimConfig = SimConfig(),
) -> list[tuple[Plan, SessionLog]]:
    """Plan every trace from the session start with ``dp_plans``, then replay all plans in one lock-step run."""
    plans = dp_plans(manifest, traces, params, dp_config, sim_config)
    follower = PlanFollower(tuple(plan.actions for plan in plans))
    return list(zip(plans, run_sessions(follower, manifest, traces, sim_config, params)))


def plan_session(
    manifest: VideoManifest,
    trace: NetworkTrace,
    params: QoeParams = QoeParams(),
    dp_config: DpConfig = DpConfig(),
    sim_config: SimConfig = SimConfig(),
) -> tuple[Plan, SessionLog]:
    """Plan once from the session start, then replay the plan: ``plan_sessions`` of one trace."""
    return plan_sessions(manifest, [trace], params, dp_config, sim_config)[0]


def trajectory_from_log(
    log: SessionLog,
    estimator_model: "est.EstimatorModel",
    stats_window: int = 4,
) -> Trajectory:
    """Assemble the 3-modality expert sequence of one replayed plan.

    The actions are the levels the log chose.  The return modality is
    ``est.qoe_to_go`` on the throughput measured before each chunk, not the
    planner's ground truth; one B = 1 call per chunk keeps each value equal
    to the one the service computes for the same window.
    """
    T = len(log.records)
    obs_mat = np.stack([o.vector() for o in log.observations])
    returns = np.empty(T)
    measured = log.final_state.measured_mbps
    for t, o in enumerate(log.observations):
        returns[t] = est.qoe_to_go(estimator_model, [measured[:t]], [o.buffer_s], [o.remaining_frac], stats_window)[0]
    n_lv = log.observations[0].next_chunk_sizes_bytes.shape[0]
    actions = np.zeros((T, n_lv))
    actions[np.arange(T), [r.chosen_level for r in log.records]] = 1.0
    return Trajectory(
        trace_tag=log.trace_tag,
        timesteps=np.arange(T, dtype=np.int64),
        observations=obs_mat,
        returns=returns,
        actions=actions,
    )


def build_expert_trajectories(
    traces: Sequence[NetworkTrace],
    manifest: VideoManifest,
    params: QoeParams,
    estimator_model: "est.EstimatorModel",
    stats_window: int = 4,
    dp_config: DpConfig = DpConfig(),
    sim_config: SimConfig = SimConfig(),
) -> list[Trajectory]:
    sessions = plan_sessions(manifest, traces, params, dp_config, sim_config)
    return [trajectory_from_log(log, estimator_model, stats_window) for _, log in sessions]


def save_trajectories(trajectories: Sequence[Trajectory], path: str | Path) -> None:
    """One trajectory per line: {"trace", "t", "o", "r", "a"}, plus "ladder_kbps" when recorded."""
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajectories:
            doc = {
                "trace": traj.trace_tag,
                "t": traj.timesteps.tolist(),
                "o": traj.observations.tolist(),
                "r": traj.returns.tolist(),
                "a": traj.actions.tolist(),
            }
            if traj.ladder_kbps is not None:
                doc["ladder_kbps"] = list(traj.ladder_kbps)
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def load_trajectories(path: str | Path) -> list[Trajectory]:
    """Trajectories of a file ``save_trajectories`` wrote; a malformed line raises ``ValueError``."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            doc = json.loads(line)
            try:
                ladder = doc.get("ladder_kbps")
                out.append(
                    Trajectory(
                        trace_tag=doc["trace"],
                        timesteps=np.asarray(doc["t"], dtype=np.int64),
                        observations=np.asarray(doc["o"], dtype=np.float64),
                        returns=np.asarray(doc["r"], dtype=np.float64),
                        actions=np.asarray(doc["a"], dtype=np.float64),
                        ladder_kbps=None if ladder is None else tuple(float(r) for r in ladder),
                    )
                )
            except (AttributeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path} line {line_no}: not a trajectory ({type(exc).__name__}: {exc})") from None
    return out
