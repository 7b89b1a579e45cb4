from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from abrlab import estimator as est, expert, harness, qoe, sim, traces
from abrlab.expert import DpBudgetError, DpConfig, DpError, dp_plan, qoe_to_go_truth
from abrlab.qoe import BitrateLadder, QoeParams, VideoManifest
from abrlab.sim import SessionState

from conftest import constant_trace
from oracles import brute_force_plan, make_aligned_instance, strictly_dominated


def two_level_manifest(chunks=2):
    """Levels 300/750 kbps with exact bitrate-proportional sizes."""
    sizes = np.array([[150_000.0, 375_000.0]] * chunks)
    return VideoManifest(chunks, 4.0, BitrateLadder((300.0, 750.0)), sizes)


def test_dp_two_chunks_fast_link(params):
    manifest = two_level_manifest()
    plan = dp_plan(manifest, constant_trace(10.0), params)
    assert plan.actions == [1, 1]
    assert plan.total_qoe == pytest.approx(1.5, abs=1e-9)


def test_dp_matches_brute_force_slow_link(params):
    manifest = two_level_manifest()
    trace = constant_trace(0.3)
    best_total, _ = brute_force_plan(manifest, trace, params)
    plan = dp_plan(manifest, trace, params, dp_config=DpConfig(buffer_quantum_s=0.25, time_quantum_s=0.25))
    assert plan.total_qoe == pytest.approx(best_total, abs=1e-9)


def test_dp_single_chunk_reduces_to_argmax(params, small_manifest, fast_trace):
    state = SessionState(next_chunk=3, buffer_s=40.0, last_level=2, wall_clock_s=12.0)
    plan = dp_plan(small_manifest, fast_trace, params, state)
    values = [
        qoe.chunk_qoe(small_manifest.ladder[lv], small_manifest.ladder[2], 0.0, params)
        for lv in range(6)
    ]
    # the chosen action attains the single-step maximum (near-ties resolve
    # toward the lower level)
    assert values[plan.actions[0]] == pytest.approx(max(values), abs=1e-9)
    assert plan.total_qoe == pytest.approx(max(values), abs=1e-9)


def test_plan_total_matches_simulated_actions(params):
    manifest = two_level_manifest(chunks=4)
    trace = constant_trace(1.0)
    plan = dp_plan(manifest, trace, params, dp_config=DpConfig(0.25, 0.25))
    state = sim.init_session(trace)
    profile = sim.BandwidthProfile(trace)
    records = []
    for level in plan.actions:
        _, rec, state = sim.step(state, level, manifest, trace, profile=profile)
        records.append(rec)
    assert qoe.session_qoe(records, params).total == pytest.approx(plan.total_qoe, abs=1e-9)


def test_value_to_go_telescopes(params):
    # 0.25 s quanta keep this instance exactly on the quantization grid, so
    # the planner's per-chunk increments equal the simulated chunk QoE.
    manifest = two_level_manifest(chunks=5)
    trace = constant_trace(0.8)
    plan = dp_plan(manifest, trace, params, dp_config=DpConfig(0.25, 0.25))
    vtg = plan.value_to_go
    assert vtg[0] == pytest.approx(plan.total_qoe, abs=1e-12)
    state = sim.init_session(trace)
    profile = sim.BandwidthProfile(trace)
    for i, level in enumerate(plan.actions):
        _, rec, state = sim.step(state, level, manifest, trace, profile=profile)
        follow_on = vtg[i + 1] if i + 1 < len(vtg) else 0.0
        assert vtg[i] == pytest.approx(rec.qoe_value + follow_on, abs=1e-9)


def test_dp_beats_fixed_policies(params):
    manifest = qoe.make_manifest(chunk_count=8)
    trace = traces.gen_synthetic_trace(traces.SyntheticSpec(1.2, 0.4, 300.0, seed=5))
    plan = dp_plan(manifest, trace, params)
    tolerance = 0.5  # discretization slack at the default quanta
    for level in range(6):
        log = sim.run_policy(expert.PlanFollower(([level] * manifest.chunk_count,)), manifest, trace)
        assert plan.total_qoe >= qoe.session_qoe(log.records, params).total - tolerance


def test_qoe_to_go_truth(params, small_manifest, fast_trace):
    done = SessionState(next_chunk=small_manifest.chunk_count)
    assert qoe_to_go_truth(small_manifest, fast_trace, params, done) == 0.0
    last = SessionState(next_chunk=3, buffer_s=50.0, last_level=5, wall_clock_s=5.0)
    value = qoe_to_go_truth(small_manifest, fast_trace, params, last)
    assert value == pytest.approx(0.043, abs=1e-9)
    doubled = QoeParams(qoe_to_go_scale=0.02)
    assert qoe_to_go_truth(small_manifest, fast_trace, doubled, last) == pytest.approx(
        2 * value, abs=1e-12
    )


def test_dp_budget_error(params, small_manifest):
    trace = traces.gen_synthetic_trace(traces.SyntheticSpec(1.0, 0.8, 300.0, seed=1))
    with pytest.raises(DpBudgetError, match="coarser"):
        dp_plan(small_manifest, trace, params, dp_config=DpConfig(max_states=5))


def test_dp_time_limit_error(params, small_manifest, fast_trace):
    with pytest.raises(DpError, match="max_time_s"):
        dp_plan(small_manifest, fast_trace, params, dp_config=DpConfig(max_time_s=0.1))


def test_dp_aligned_instances_match_oracle(params):
    rng = np.random.default_rng(2024)
    for _ in range(15):
        inst = make_aligned_instance(rng)
        cfg = DpConfig(buffer_quantum_s=inst.quantum_s, time_quantum_s=inst.quantum_s)
        best_total, _ = brute_force_plan(inst.manifest, inst.trace, params)
        plan = dp_plan(inst.manifest, inst.trace, params, dp_config=cfg)
        assert plan.total_qoe == pytest.approx(best_total, abs=1e-9)


def test_build_expert_trajectories(params):
    manifest = qoe.make_manifest(chunk_count=6)
    corpus = [constant_trace(1.5, tag="a"), constant_trace(0.8, tag="b")]
    estimator_model = est.EstimatorModel(hidden=8, seed=0)
    trajectories = expert.build_expert_trajectories(corpus, manifest, params, estimator_model)
    assert len(trajectories) == 2
    for traj, trace in zip(trajectories, corpus):
        assert len(traj) == 6  # 3T tokens = 18 once tokenized
        assert traj.observations.shape == (6, sim.obs_dim(6))
        assert np.all(traj.actions.sum(axis=1) == 1.0)
        assert np.all((traj.actions == 0) | (traj.actions == 1))
        plan = dp_plan(manifest, trace, params)
        assert np.argmax(traj.actions, axis=1).tolist() == plan.actions
        assert np.all(traj.returns >= 0.0)


def test_trajectory_roundtrip(tmp_path, params):
    manifest = qoe.make_manifest(chunk_count=5)
    estimator_model = est.EstimatorModel(hidden=8, seed=1)
    trajectories = expert.build_expert_trajectories(
        [constant_trace(2.0, tag="x")], manifest, params, estimator_model
    )
    path = tmp_path / "traj.jsonl"
    expert.save_trajectories(trajectories, path)
    loaded = expert.load_trajectories(path)
    assert len(loaded) == 1
    assert loaded[0].trace_tag == "x"
    assert np.array_equal(loaded[0].timesteps, trajectories[0].timesteps)
    assert np.array_equal(loaded[0].observations, trajectories[0].observations)
    assert np.array_equal(loaded[0].returns, trajectories[0].returns)
    assert np.array_equal(loaded[0].actions, trajectories[0].actions)


# Returns recorded before the QoE-to-go estimate moved into est.qoe_to_go.
PINNED_RETURNS = [
    0.4439842700958252, 0.42172539234161377, 0.3878825008869171, 0.3550780415534973,
    0.31890666484832764, 0.28409358859062195, 0.24924936890602112, 0.2057960033416748,
    0.15785051882266998, 0.11505750566720963, 0.08496202528476715, 0.07001197338104248,
]


def test_pinned_trajectory_returns(params):
    manifest = qoe.make_manifest(12, 4.0, size_jitter=0.1, seed=1)
    trace = traces.gen_synthetic_trace(traces.SyntheticSpec(1.6, 0.6, 200.0, seed=1))
    plan, log = expert.plan_session(manifest, trace, params)
    traj = expert.trajectory_from_log(log, est.EstimatorModel(hidden=16, seed=1), 4)
    assert plan.actions == [4, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3]
    assert traj.returns.tolist() == PINNED_RETURNS


# Plans recorded before the frontier step was rewritten; the pruned and the
# exact plan agreed on every case.  Each case takes one planner path: regime
# switches, a stationary grid trace, a mid-session start, a constant trace
# (wall time dropped from the state), a binding 12 s buffer cap (the client
# sleeps), and a time limit that cuts candidates in the last chunks.
PINNED_PLANS = {
    "switch0": (
        [3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4],
        28.200000000000006,
        [28.200000000000006, 26.350000000000005, 24.500000000000007, 22.650000000000006, 20.800000000000004, 18.950000000000006, 17.10000000000001, 14.250000000000007, 11.400000000000006, 8.550000000000004, 5.700000000000003, 2.8500000000000014],
    ),
    "switch1": (
        [5, 4, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4],
        25.200000000000003,
        [25.200000000000003, 20.900000000000002, 19.5, 18.650000000000002, 16.800000000000004, 14.950000000000003, 13.100000000000003, 11.250000000000004, 9.400000000000004, 7.550000000000004, 5.700000000000003, 2.8500000000000014],
    ),
    "grid": (
        [2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3],
        17.65,
        [17.65, 16.45, 15.249999999999998, 14.049999999999999, 12.849999999999998, 11.649999999999999, 10.45, 9.249999999999998, 7.399999999999999, 5.549999999999999, 3.6999999999999993, 1.8499999999999996],
    ),
    "mid_session": (
        [3, 4, 4, 4, 4, 4, 4, 4],
        20.8,
        [20.8, 18.95, 17.1, 14.25, 11.4, 8.55, 5.700000000000001, 2.8500000000000014],
    ),
    "constant": (
        [5, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        14.399999999999997,
        [14.399999999999997, 10.099999999999998, 11.999999999999996, 10.799999999999997, 9.599999999999996, 8.399999999999995, 7.199999999999996, 5.9999999999999964, 4.799999999999997, 3.599999999999998, 2.3999999999999986, 1.1999999999999993],
    ),
    "cap12": (
        [5, 4, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4],
        25.200000000000003,
        [25.200000000000003, 20.900000000000002, 19.5, 18.650000000000002, 16.800000000000004, 14.950000000000003, 13.100000000000003, 11.250000000000004, 9.400000000000004, 7.550000000000004, 5.700000000000003, 2.8500000000000014],
    ),
    "max_time": (
        [3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4],
        26.200000000000003,
        [26.200000000000003, 24.35, 22.500000000000004, 20.650000000000002, 18.800000000000004, 16.950000000000003, 15.100000000000003, 13.250000000000004, 11.400000000000004, 8.550000000000004, 5.700000000000003, 2.8500000000000014],
    ),
}


def _pinned_case(name):
    """(trace, start state, sim config, extra DpConfig fields) of one pinned case."""
    switching = harness.make_switching_corpus(2, harness.PipelineConfig(trace_duration_s=120.0), 9, "pin")
    grid = traces.gen_synthetic_trace(traces.SyntheticSpec(1.6, 0.5, 120.0, seed=4))
    mid = SessionState(next_chunk=4, buffer_s=9.3, last_level=3, wall_clock_s=21.7)
    return {
        "switch0": (switching[0], None, sim.SimConfig(), {}),
        "switch1": (switching[1], None, sim.SimConfig(), {}),
        "grid": (grid, None, sim.SimConfig(), {}),
        "mid_session": (switching[0], mid, sim.SimConfig(), {}),
        "constant": (constant_trace(1.3), None, sim.SimConfig(), {}),
        "cap12": (switching[1], None, sim.SimConfig(buffer_cap_s=12.0), {}),
        "max_time": (switching[0], None, sim.SimConfig(), {"max_time_s": 44.0}),
    }[name]


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "exact"])
@pytest.mark.parametrize("name", list(PINNED_PLANS))
def test_pinned_plans(params, name, prune):
    manifest = qoe.make_manifest(12, 4.0, size_jitter=0.1, seed=3)
    trace, state, sim_config, extra = _pinned_case(name)
    plan = dp_plan(manifest, trace, params, state, DpConfig(dominance_prune=prune, **extra), sim_config)
    actions, total, value_to_go = PINNED_PLANS[name]
    assert plan.actions == actions
    assert plan.total_qoe == total
    assert plan.value_to_go.tolist() == value_to_go


def test_plan_frontier_counts(params):
    manifest = qoe.make_manifest(12, 4.0, size_jitter=0.1, seed=3)
    trace, mid, _, _ = _pinned_case("mid_session")
    for prune in (True, False):
        plan = dp_plan(manifest, trace, params, dp_config=DpConfig(dominance_prune=prune))
        candidates, distinct, kept = plan.frontier.T
        assert plan.frontier.shape == (12, 3)
        assert candidates[0] == 6
        assert np.array_equal(candidates[1:], 6 * kept[:-1])  # every kept state expands 6 ways
        assert np.all(distinct <= candidates) and np.all(kept <= distinct)
        assert np.array_equal(kept, distinct) != prune
    assert dp_plan(manifest, trace, params, mid).frontier.shape == (8, 3)
    done = SessionState(next_chunk=12)
    assert dp_plan(manifest, trace, params, done).frontier.shape == (0, 3)
    # wall time is not part of the state on a constant trace, so nothing is pruned
    flat = dp_plan(manifest, constant_trace(1.3), params, dp_config=DpConfig(dominance_prune=True))
    assert np.array_equal(flat.frontier[:, 1], flat.frontier[:, 2])


def test_dominance_prune_matches_pairwise_oracle():
    rng = np.random.default_rng(17)
    max_bq, n_lv = 6, 4
    single_point_levels = 0
    for _ in range(300):
        n = int(rng.integers(1, 40))
        tq, bq, lv = rng.integers(0, 5, n), rng.integers(0, max_bq + 1, n), rng.integers(0, n_lv, n)
        # the planner hands the prune distinct (time, buffer, level) cells in key order
        _, first = np.unique((tq * (max_bq + 1) + bq) * n_lv + lv, return_index=True)
        tq, bq, lv = tq[first], bq[first], lv[first]
        val = rng.integers(-2, 3, len(first)) * 0.5  # few values, so many ties
        keep = expert._dominant_mask(tq, bq, lv, val, max_bq)
        assert keep.tolist() == (~strictly_dominated(tq, bq, lv, val)).tolist()
        single_point_levels += int(np.any(np.bincount(lv, minlength=n_lv) == 1))
    assert single_point_levels > 50


def test_merge_keeps_first_best_per_key():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        key, val = rng.integers(0, 30, n), rng.integers(0, 3, n) * 0.5
        within = rng.random(n) < 0.8
        best: dict[int, int] = {}
        for i in np.flatnonzero(within).tolist():
            k = int(key[i])
            if k not in best or val[i] > val[best[k]]:
                best[k] = i
        assert expert._best_per_key(key, val, within).tolist() == [best[k] for k in sorted(best)]


def _use_cpus(monkeypatch, n: int) -> list:
    """Give ``dp_plans`` ``n`` usable CPUs; returns the list each pool construction is logged in."""
    built = []
    real = expert.futures.ProcessPoolExecutor

    def pool(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(expert.os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(expert.futures, "ProcessPoolExecutor", pool)
    return built


def _plan_corpus():
    manifest = qoe.make_manifest(12, 4.0, size_jitter=0.1, seed=3)
    switching = harness.make_switching_corpus(2, harness.PipelineConfig(trace_duration_s=120.0), 9, "pin")
    grid = traces.gen_synthetic_trace(traces.SyntheticSpec(1.6, 0.5, 120.0, seed=4))
    return manifest, [constant_trace(1.3), *switching, grid]


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "exact"])
def test_dp_plans_equal_serial_plans(params, monkeypatch, prune):
    """Worker processes plan each trace as one dp_plan call would, field for field, and leave no process behind."""
    built = _use_cpus(monkeypatch, 2)
    manifest, corpus = _plan_corpus()
    cfg, sim_config = DpConfig(dominance_prune=prune), sim.SimConfig(buffer_cap_s=30.0)
    plans = expert.dp_plans(manifest, corpus, params, cfg, sim_config)
    assert len(built) == 1 and not multiprocessing.active_children()
    assert len(plans) == len(corpus)
    for plan, trace in zip(plans, corpus):
        serial = dp_plan(manifest, trace, params, None, cfg, sim_config)
        assert plan.actions == serial.actions and plan.total_qoe == serial.total_qoe
        assert plan.start_chunk == serial.start_chunk == 0
        assert np.array_equal(plan.value_to_go, serial.value_to_go)
        assert np.array_equal(plan.frontier, serial.frontier)


def test_dp_plans_raise_the_first_serial_error(params, monkeypatch):
    """A worker's DpBudgetError reaches the caller with the type and message of the first failing serial plan."""
    built = _use_cpus(monkeypatch, 2)
    manifest, corpus = _plan_corpus()
    cfg = DpConfig(max_states=2000)
    messages = []
    for trace in corpus:
        try:
            dp_plan(manifest, trace, params, dp_config=cfg)
        except DpBudgetError as exc:
            messages.append(str(exc))
    assert len(messages) == 3 and len(set(messages)) > 1  # the constant trace fits, the others do not
    with pytest.raises(DpBudgetError) as caught:
        expert.dp_plans(manifest, corpus, params, cfg)
    assert type(caught.value) is DpBudgetError and str(caught.value) == messages[0]
    assert len(built) == 1 and not multiprocessing.active_children()


@pytest.mark.parametrize("cpus, count", [(2, 1), (1, 3)], ids=["one-trace", "one-cpu"])
def test_dp_plans_without_a_pool(params, monkeypatch, cpus, count):
    """One trace, or one usable CPU, plans in this process: no pool is built."""
    monkeypatch.setattr(expert.os, "sched_getaffinity", lambda pid: set(range(cpus)))

    def refuse(*args, **kwargs):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(expert.futures, "ProcessPoolExecutor", refuse)
    manifest, corpus = _plan_corpus()
    assert expert.plan_processes(count) == 1
    plans = expert.dp_plans(manifest, corpus[:count], params)
    assert [p.actions for p in plans] == [dp_plan(manifest, t, params).actions for t in corpus[:count]]
    assert expert.dp_plans(manifest, [], params) == []
