from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abrlab import baselines, expert, qoe, sim, traces
from abrlab.baselines import (
    BbConfig,
    MpcConfig,
    bb_decide,
    harmonic_mean,
    rb_decide,
    robust_mpc_decide,
)
from abrlab.qoe import BitrateLadder, VideoManifest
from abrlab.sim import SessionState

import oracles
from conftest import constant_trace


def test_bb_examples(ladder):
    assert bb_decide(2.0, ladder) == 0
    assert bb_decide(40.0, ladder) == 5
    assert bb_decide(10.0, ladder) == 3


@given(st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=0.0, max_value=60.0))
def test_bb_monotone(b1, b2):
    ladder = BitrateLadder(qoe.DEFAULT_LADDER_KBPS)
    lo, hi = sorted((b1, b2))
    assert bb_decide(lo, ladder) <= bb_decide(hi, ladder)


def test_bb_validation(ladder):
    with pytest.raises(ValueError):
        bb_decide(-1.0, ladder)
    with pytest.raises(ValueError):
        BbConfig(cushion_s=0.0)


def test_rb_examples(ladder):
    assert rb_decide(1.0, ladder) == 1
    assert rb_decide(0.2, ladder) == 0
    assert rb_decide(100.0, ladder) == 5
    with pytest.raises(ValueError):
        rb_decide(0.0, ladder)


# A ladder and bb config whose boundaries are exact in binary: buffers of 4
# and 12 s sit at the reservoir and at reservoir + cushion (5 and 15 s with the
# default config), buffers of 6 and 8 s give targets of exactly 200 and 300
# kbps, a 0.3 Mbps prediction is exactly 300 kbps (an entry of both ladders),
# 0.75 Mbps is exactly the default 750 kbps, and 0.05 Mbps is below both.
EDGE_LADDER = BitrateLadder((100.0, 200.0, 300.0, 500.0))
EDGE_BB = BbConfig(reservoir_s=4.0, cushion_s=8.0)
EDGE_BUFFERS = (4.0, 5.0, 6.0, 8.0, 12.0, 15.0)
EDGE_PREDICTIONS = (0.05, 0.3, 0.75)


def test_edge_values_hit_their_boundaries():
    frac = (np.array([6.0, 8.0]) - EDGE_BB.reservoir_s) / EDGE_BB.cushion_s
    assert (EDGE_LADDER[0] + frac * (EDGE_LADDER[3] - EDGE_LADDER[0])).tolist() == [200.0, 300.0]
    assert 0.3 * 1000.0 == 300.0 and 0.75 * 1000.0 in qoe.DEFAULT_LADDER_KBPS
    with pytest.raises(ValueError):
        bb_decide(np.array([3.0, -1.0]), EDGE_LADDER)
    with pytest.raises(ValueError):
        rb_decide(np.array([0.3, 0.0]), EDGE_LADDER)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(("edge", "default")),
    st.lists(st.one_of(st.sampled_from(EDGE_BUFFERS), st.floats(0.0, 80.0)), min_size=1, max_size=16),
    st.lists(st.one_of(st.sampled_from(EDGE_PREDICTIONS), st.floats(1e-3, 10.0)), min_size=1, max_size=16),
)
def test_array_rules_match_the_ladder_walk(which, buffers, predictions):
    ladder, config = (EDGE_LADDER, EDGE_BB) if which == "edge" else (BitrateLadder(qoe.DEFAULT_LADDER_KBPS), BbConfig())
    expected = [oracles.bb_level(b, ladder, config.reservoir_s, config.cushion_s) for b in buffers]
    assert bb_decide(np.array(buffers), ladder, config).tolist() == expected
    assert rb_decide(np.array(predictions), ladder).tolist() == [oracles.rb_level(p, ladder) for p in predictions]


def test_mpc_forecasts_match_the_window_loop():
    rng = np.random.default_rng(11)
    for config in (MpcConfig(), MpcConfig(error_window=7, pred_window=3)):
        for n in range(1, 13):
            histories = rng.uniform(0.05, 8.0, (8, n))
            expected = [oracles.mpc_forecast(h, config.pred_window, config.error_window) for h in histories]
            assert baselines.mpc_forecasts(histories, config).tolist() == expected


def test_harmonic_mean():
    assert harmonic_mean([1, 1, 1]) == pytest.approx(1.0)
    assert harmonic_mean([1, 3]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        harmonic_mean([])


def test_mpc_sustains_top_level_on_fast_link(small_manifest, params):
    state = SessionState(next_chunk=1, buffer_s=30.0, last_level=5, wall_clock_s=5.0)
    history = [10.0] * 5
    assert robust_mpc_decide(state, small_manifest, history, MpcConfig(), params) == 5
    state2 = SessionState(next_chunk=2, buffer_s=30.0, last_level=5, wall_clock_s=7.0)
    assert robust_mpc_decide(state2, small_manifest, history, MpcConfig(), params) == 5


def test_mpc_error_discount_matches_clean_half_prediction(small_manifest, params):
    # History whose worst recent normalized error is exactly 1 halves the
    # forecast; a clean history at half the harmonic mean must decide alike.
    state = SessionState(next_chunk=1, buffer_s=12.0, last_level=0, wall_clock_s=3.0)
    noisy = [1.0, 1.0, 1.0, 1.0, 1.0, 0.5]
    assert baselines._max_recent_error(noisy, MpcConfig()) == pytest.approx(1.0)
    effective = harmonic_mean(noisy[-5:]) / 2.0
    clean = [effective] * 5
    assert baselines._max_recent_error(clean, MpcConfig()) == 0.0
    assert robust_mpc_decide(state, small_manifest, noisy, MpcConfig(), params) == robust_mpc_decide(
        state, small_manifest, clean, MpcConfig(), params
    )


def test_mpc_horizon_one_reduces_to_argmax(small_manifest, params):
    state = SessionState(next_chunk=small_manifest.chunk_count - 1, buffer_s=40.0, last_level=1, wall_clock_s=9.0)
    history = [1.8] * 5
    chosen = robust_mpc_decide(state, small_manifest, history, MpcConfig(horizon=5), params)
    # horizon truncates to 1 chunk: exhaustive single-step argmax
    rate = harmonic_mean(history) * 1e6
    best, best_val = 0, -np.inf
    for lv in range(6):
        d = small_manifest.chunk_bits(small_manifest.chunk_count - 1, lv) / rate
        value = qoe.chunk_qoe(
            small_manifest.ladder[lv], small_manifest.ladder[1], max(0.0, d - 40.0), params
        )
        if value > best_val:
            best, best_val = lv, value
    assert chosen == best


def test_mpc_matches_planner_first_action_on_stationary_traces(params):
    # Perfect constant-throughput prediction + horizon covering the session:
    # the horizon search and the planner agree whenever the optimum is unique.
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 4:
        n_lv = 2
        T = 3
        base = np.sort(rng.uniform(4e4, 4e5, size=n_lv))
        sizes = np.tile(base, (T, 1))
        ladder = BitrateLadder((300.0, 750.0))
        manifest = VideoManifest(T, 4.0, ladder, sizes)
        bw = float(rng.uniform(0.3, 1.6))
        trace = constant_trace(bw)
        totals = {}
        for seq in itertools.product(range(n_lv), repeat=T):
            state = sim.init_session(trace)
            recs = []
            for lv in seq:
                _, rec, state = sim.step(state, lv, manifest, trace)
                recs.append(rec)
            totals[seq] = qoe.session_qoe(recs, params).total
        ordered = sorted(totals.values(), reverse=True)
        if ordered[0] - ordered[1] < 1e-6:
            continue  # skip ties: tie-breaking conventions may differ
        checked += 1
        best_seq = max(totals, key=totals.get)
        plan = expert.dp_plan(manifest, trace, params, dp_config=expert.DpConfig(0.25, 0.25))
        state0 = sim.init_session(trace)
        mpc = robust_mpc_decide(state0, manifest, [bw], MpcConfig(horizon=T), params)
        assert plan.actions[0] == best_seq[0]
        assert mpc == best_seq[0]


@pytest.mark.parametrize("horizon", [1, 3, 5])
@pytest.mark.parametrize("t0", [0, 6, 9])
def test_prefix_tree_matches_flat_rollout(horizon, t0, params):
    # 12 chunks: from t0 = 9 only 3 remain, so horizon 5 is cut short.
    rng = np.random.default_rng(10 * horizon + t0)
    manifest = qoe.make_manifest(12, 4.0, size_jitter=0.2, seed=3)
    sim_config = sim.SimConfig(buffer_cap_s=20.0)
    config = MpcConfig(horizon=horizon)
    states = [
        SessionState(
            next_chunk=t0,
            buffer_s=0.0 if t0 == 0 else float(rng.uniform(0.0, 25.0)),
            last_level=None if t0 == 0 or i % 5 == 0 else int(rng.integers(0, 6)),
        )
        for i in range(24)
    ]
    forecasts = rng.uniform(0.2, 6.0, size=len(states))
    levels = baselines.mpc_first_levels(states, manifest, forecasts, config, params, sim_config)
    expected = [
        oracles.flat_mpc_first_level(s, manifest, float(f), horizon, params, sim_config)
        for s, f in zip(states, forecasts)
    ]
    assert levels.tolist() == expected
    alone = [
        int(baselines.mpc_first_levels([s], manifest, [f], config, params, sim_config)[0])
        for s, f in zip(states, forecasts)
    ]
    assert alone == expected


def test_policies_drive_sessions(small_manifest):
    trace = traces.gen_synthetic_trace(traces.SyntheticSpec(1.5, 0.5, 120.0, seed=2))
    for policy in (
        baselines.BufferBasedPolicy(small_manifest.ladder),
        baselines.RateBasedPolicy(small_manifest.ladder),
        baselines.RobustMpcPolicy(small_manifest),
    ):
        log = sim.run_policy(policy, small_manifest, trace)
        assert len(log.records) == small_manifest.chunk_count
        again = sim.run_policy(policy, small_manifest, trace)  # no state carries over
        assert [r.chosen_level for r in log.records] == [r.chosen_level for r in again.records]


def test_rate_policies_are_stateless(small_manifest):
    trace = traces.gen_synthetic_trace(traces.SyntheticSpec(1.5, 0.8, 120.0, seed=2))
    state = sim.init_session(trace)
    obs = sim.observe(small_manifest, state)
    pairs = []
    for t in range(small_manifest.chunk_count):
        pairs.append((state, obs))
        obs, _, state = sim.step(state, (3 * t) % 6, small_manifest, trace)
    for make in (
        lambda: baselines.RateBasedPolicy(small_manifest.ladder),
        lambda: baselines.RobustMpcPolicy(small_manifest),
    ):
        policy = make()
        forward = [policy.decide_batch([s], [o])[0] for s, o in pairs]
        backward = [policy.decide_batch([s], [o])[0] for s, o in reversed(pairs)][::-1]
        fresh = [make().decide_batch([s], [o])[0] for s, o in pairs]
        assert forward == backward == fresh
        assert not hasattr(policy, "reset")
    rb = baselines.RateBasedPolicy(small_manifest.ladder)
    for s, o in pairs:
        history = s.measured_mbps if s.measured_mbps else (1.0,)
        assert rb.decide_batch([s], [o])[0] == rb_decide(harmonic_mean(history[-5:]), small_manifest.ladder)
