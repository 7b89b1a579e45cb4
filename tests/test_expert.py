from __future__ import annotations

import numpy as np
import pytest

from abrlab import estimator as est, expert, qoe, sim, traces
from abrlab.expert import DpBudgetError, DpConfig, dp_plan, qoe_to_go_truth
from abrlab.qoe import BitrateLadder, QoeParams, VideoManifest
from abrlab.sim import SessionState

from conftest import constant_trace
from oracles import brute_force_plan, make_aligned_instance


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
        log = sim.run_policy(lambda s, o: level, manifest, trace)
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
