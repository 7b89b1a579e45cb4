from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abrlab import qoe, sim, traces
from abrlab.expert import PlanFollower
from abrlab.qoe import BitrateLadder, VideoManifest
from abrlab.sim import BandwidthProfile, SessionState, SimConfig, SimError

import oracles
from conftest import constant_trace


def one_level_manifest(chunks=2, size_bytes=150_000.0, duration=4.0):
    """Single 300 kbps level whose chunk is 1.2 Mb (150 kB)."""
    sizes = np.full((chunks, 1), size_bytes)
    return VideoManifest(chunks, duration, BitrateLadder((300.0,)), sizes)


def test_init_session(small_manifest, fast_trace):
    state = sim.init_session(fast_trace)
    assert state.buffer_s == 0.0 and state.next_chunk == 0 and state.wall_clock_s == 0.0
    obs = sim.observe(small_manifest, state)
    assert obs.remaining_frac == 1.0
    assert obs.next_chunk_sizes_bytes.shape == (6,)
    short = traces.NetworkTrace(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(SimError):
        sim.init_session(short)


def test_step_fluid_model_no_stall():
    manifest = one_level_manifest()
    trace = constant_trace(1.0)
    state = SessionState(next_chunk=1, buffer_s=4.0, last_level=0, wall_clock_s=10.0)
    obs, rec, nxt = sim.step(state, 0, manifest, trace)
    assert rec.download_s == pytest.approx(1.2, abs=1e-12)
    assert rec.rebuffer_s == 0.0
    assert nxt.buffer_s == pytest.approx(6.8, abs=1e-12)
    assert rec.throughput_mbps == pytest.approx(1.0, abs=1e-12)
    assert obs.download_s == rec.download_s


def test_step_fluid_model_stall():
    manifest = one_level_manifest()
    trace = constant_trace(1.0)
    state = SessionState(next_chunk=1, buffer_s=0.5, last_level=0, wall_clock_s=3.0)
    obs, rec, nxt = sim.step(state, 0, manifest, trace)
    assert rec.rebuffer_s == pytest.approx(0.7, abs=1e-12)
    assert nxt.buffer_s == pytest.approx(4.0, abs=1e-12)


def test_step_overflow_sleep():
    # buffer 59 s, cap 60 s, download 1 s, chunk adds 4 s -> sleep 2 s.
    manifest = one_level_manifest(size_bytes=125_000.0)  # 1 Mb -> 1 s at 1 Mbps
    trace = constant_trace(1.0)
    state = SessionState(next_chunk=1, buffer_s=59.0, last_level=0, wall_clock_s=100.0)
    obs, rec, nxt = sim.step(state, 0, manifest, trace)
    assert rec.download_s == pytest.approx(1.0, abs=1e-12)
    assert nxt.buffer_s == pytest.approx(60.0, abs=1e-12)
    assert nxt.sleep_total_s == pytest.approx(2.0, abs=1e-12)
    assert nxt.wall_clock_s == pytest.approx(103.0, abs=1e-12)


def test_first_chunk_is_startup_not_rebuffer():
    manifest = one_level_manifest()
    trace = constant_trace(0.5)
    state = sim.init_session(trace)
    obs, rec, nxt = sim.step(state, 0, manifest, trace)
    assert rec.rebuffer_s == 0.0
    assert nxt.startup_delay_s == pytest.approx(2.4, abs=1e-12)
    assert nxt.buffer_s == pytest.approx(4.0, abs=1e-12)


def test_two_segment_download_crosses_boundary():
    # 1 Mbps for 1 s, then 2 Mbps: 1.2 Mb needs 1 s + 0.1 s.
    manifest = one_level_manifest()
    trace = traces.NetworkTrace(np.array([0.0, 1.0, 100.0]), np.array([1.0, 2.0, 2.0]))
    state = sim.init_session(trace)
    _, rec, _ = sim.step(state, 0, manifest, trace)
    assert rec.download_s == pytest.approx(1.1, abs=1e-12)


def test_trace_loops():
    manifest = one_level_manifest(chunks=30)
    trace = traces.NetworkTrace(np.array([0.0, 5.0]), np.array([1.0, 1.0]))
    log = sim.run_policy(PlanFollower(([0] * 30,)), manifest, trace)
    assert len(log.records) == 30
    assert all(r.download_s == pytest.approx(1.2, abs=1e-9) for r in log.records)


def test_run_policy_counts_and_no_rebuffer(small_manifest, fast_trace):
    log = sim.run_policy(PlanFollower(([0] * small_manifest.chunk_count,)), small_manifest, fast_trace)
    assert len(log.records) == small_manifest.chunk_count
    assert log.final_state.rebuffer_total_s == 0.0
    assert all(r.rebuffer_s == 0.0 for r in log.records)


def test_run_policy_deterministic(small_manifest):
    trace = traces.gen_synthetic_trace(traces.SyntheticSpec(1.0, 0.6, 300.0, seed=3))
    policy = PlanFollower(([t % 3 for t in range(small_manifest.chunk_count)],))
    a = sim.run_policy(policy, small_manifest, trace)
    b = sim.run_policy(policy, small_manifest, trace)
    assert [r.__dict__ for r in a.records] == [r.__dict__ for r in b.records]


def test_run_policy_rejects_bad_level(small_manifest, fast_trace):
    with pytest.raises(SimError, match="chunk 0"):
        sim.run_policy(PlanFollower(([17] * small_manifest.chunk_count,)), small_manifest, fast_trace)


def test_step_after_completion(small_manifest, fast_trace):
    state = SessionState(next_chunk=small_manifest.chunk_count)
    with pytest.raises(SimError):
        sim.step(state, 0, small_manifest, fast_trace)


def test_bandwidth_doubling_halves_downloads():
    manifest = qoe.make_manifest(chunk_count=6)
    slow = constant_trace(1.0)
    fast = constant_trace(2.0)
    cfg = SimConfig(buffer_cap_s=1000.0)  # avoid sleeps
    policy = PlanFollower(([(t * 2) % 6 for t in range(6)],))
    log_slow = sim.run_policy(policy, manifest, slow, cfg)
    log_fast = sim.run_policy(policy, manifest, fast, cfg)
    for a, b in zip(log_slow.records, log_fast.records):
        assert a.download_s == pytest.approx(2.0 * b.download_s, rel=1e-9)


def test_conservation_identities():
    rng = np.random.default_rng(42)
    for _ in range(30):
        chunks = int(rng.integers(3, 20))
        manifest = qoe.make_manifest(chunks, 4.0, size_jitter=0.2, seed=int(rng.integers(1e6)))
        spec = traces.SyntheticSpec(
            float(rng.uniform(0.4, 5.0)), float(rng.uniform(0.0, 1.5)), 200.0, seed=int(rng.integers(1e6))
        )
        trace = traces.gen_synthetic_trace(spec)
        levels = rng.integers(0, 6, size=chunks)
        log = sim.run_policy(PlanFollower((levels.tolist(),)), manifest, trace)
        final = log.final_state
        total_d = sum(r.download_s for r in log.records)
        assert final.wall_clock_s == pytest.approx(total_d + final.sleep_total_s, abs=1e-6)
        played = final.wall_clock_s - final.startup_delay_s - final.rebuffer_total_s
        assert chunks * manifest.chunk_duration_s == pytest.approx(final.buffer_s + played, abs=1e-6)
        assert all(r.rebuffer_s >= 0 for r in log.records)
        assert all(r.buffer_after_s <= SimConfig().buffer_cap_s + 1e-9 for r in log.records)


def test_profile_inverse_property():
    trace = traces.gen_synthetic_trace(traces.SyntheticSpec(2.0, 0.8, 50.0, seed=8))
    profile = BandwidthProfile(trace)
    rng = np.random.default_rng(0)
    w = rng.uniform(0, 200.0, size=50)  # beyond one period: exercises looping
    bits = profile.bits_before(w)
    again = profile.time_for_bits(bits)
    assert np.allclose(again, w, atol=1e-9)


def test_observation_vector_layout(small_manifest, fast_trace):
    state = sim.init_session(fast_trace)
    obs, rec, nxt = sim.step(state, 2, small_manifest, fast_trace)
    vec = obs.vector()
    assert vec.shape == (sim.obs_dim(6),)
    assert vec[0] == obs.buffer_s
    assert vec[1] == obs.throughput_mbps
    assert vec[2] == obs.download_s
    assert np.array_equal(vec[3:9], obs.next_chunk_sizes_bytes)
    assert vec[9] == obs.remaining_frac


def test_transition_arrays_match_scalars():
    rng = np.random.default_rng(5)
    cap, dur = 12.0, 4.0
    # random pairs plus edges: empty buffer, full buffer, exact drain, cap overshoot
    buffers = np.concatenate((rng.uniform(0.0, cap, 60), [0.0, cap, 3.0, 11.5]))
    downloads = np.concatenate((rng.uniform(0.0, 8.0, 60), [2.0, 0.5, 3.0, 1e-3]))
    for first in (True, False):
        batched = [np.broadcast_to(a, buffers.shape) for a in sim.transition(buffers, downloads, first, dur, cap)]
        for i, (b, d) in enumerate(zip(buffers.tolist(), downloads.tolist())):
            scalar = sim.transition(b, d, first, dur, cap)
            assert [float(a[i]) for a in batched] == [float(v) for v in scalar]
    stall, rebuffer, after, sleep = sim.transition(buffers, downloads, False, dur, cap)
    assert np.any(sleep > 0) and np.any(stall > 0)
    assert np.all(after <= cap) and np.array_equal(rebuffer, stall)
    assert sim.transition(buffers, downloads, True, dur, cap)[1] == 0.0


def test_transition_matches_step_records():
    # 0.5 Mbps then 8 Mbps on a looping 40 s trace, 10 s cap: the session
    # starts with a stall, stalls again on each slow stretch and sleeps on
    # the fast ones.
    manifest = qoe.make_manifest(chunk_count=24)
    trace = traces.NetworkTrace(np.array([0.0, 20.0, 40.0]), np.array([0.5, 8.0, 8.0]))
    config = SimConfig(buffer_cap_s=10.0)
    log = sim.run_policy(PlanFollower(([(2 * t) % 6 for t in range(24)],)), manifest, trace, config)
    recs = log.records
    before = np.array([0.0] + [r.buffer_after_s for r in recs[:-1]])
    d = np.array([r.download_s for r in recs])
    dur, cap = manifest.chunk_duration_s, config.buffer_cap_s

    stall0, rebuffer0, after0, sleep0 = sim.transition(before[0], d[0], True, dur, cap)
    assert (rebuffer0, after0) == (recs[0].rebuffer_s, recs[0].buffer_after_s)
    assert stall0 == log.final_state.startup_delay_s > 0.0

    _, rebuffer, after, sleep = sim.transition(before[1:], d[1:], False, dur, cap)
    assert rebuffer.tolist() == [r.rebuffer_s for r in recs[1:]]
    assert after.tolist() == [r.buffer_after_s for r in recs[1:]]
    assert sum([float(sleep0)] + sleep.tolist()) == log.final_state.sleep_total_s
    assert np.any(rebuffer > 0) and np.any(sleep > 0)


def test_measured_history_and_startup_fallback():
    from abrlab import baselines, estimator as est

    assert est.throughput_stats(sim.throughput_history(())) == est.STARTUP_PRIOR
    assert baselines.harmonic_mean(sim.throughput_history(())) == sim.STARTUP_THROUGHPUT_MBPS
    manifest = qoe.make_manifest(chunk_count=5)
    log = sim.run_policy(PlanFollower(([1] * 5,)), manifest, constant_trace(2.0))
    assert log.final_state.measured_mbps == tuple(r.throughput_mbps for r in log.records)
    assert sim.throughput_history(log.final_state.measured_mbps) == log.final_state.measured_mbps


def test_wall_time_just_short_of_a_loop_boundary():
    # 40 loops of this trace end at 123.59692270875768, and floor(w / period)
    # rounds up to 40 one ulp below it, so the looped offset is a rounding step
    # below 0: the download still starts at the end of the last loop.
    trace = traces.NetworkTrace(np.array([0.0, 1.0, 3.0899230677189418]), np.array([1.0, 2.0, 2.0]))
    other = constant_trace(0.7, duration_s=9.0)
    w = np.nextafter(40 * trace.duration_s, 0.0)
    assert w - np.floor(w / trace.duration_s) * trace.duration_s < 0.0
    expected = oracles.fluid_download_s(trace, float(w), 3e6)
    assert BandwidthProfile(trace).download_time(w, 3e6) == pytest.approx(expected, rel=1e-9)
    assert BandwidthProfile([trace, other]).download_time(np.array([w, 5.0]), 3e6)[0] == pytest.approx(expected, rel=1e-9)


def _traces(draw, count: int) -> list[traces.NetworkTrace]:
    """Traces of 2-400 s with uneven sample spacing and runs of equal samples."""
    out = []
    for i in range(count):
        n = draw(st.integers(2, 25))
        gaps = np.array(draw(st.lists(st.floats(0.1, 40.0), min_size=n - 1, max_size=n - 1)))
        times = np.concatenate(([0.0], np.cumsum(gaps)))
        times *= draw(st.floats(2.0, 400.0)) / times[-1]
        rate = st.one_of(st.sampled_from((0.3, 1.1, 2.5)), st.floats(0.2, 8.0))
        out.append(traces.NetworkTrace(times, np.array(draw(st.lists(rate, min_size=n, max_size=n))), f"t{i}"))
    return out


@st.composite
def lock_step_cases(draw):
    corpus = _traces(draw, draw(st.integers(1, 6)))
    chunks = draw(st.integers(1, 60))  # up to 240 s of video, so short traces loop
    manifest = qoe.make_manifest(chunks, 4.0, size_jitter=0.3, seed=draw(st.integers(0, 99)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plans = tuple(rng.integers(0, 6, chunks).tolist() for _ in corpus)
    config = SimConfig(buffer_cap_s=draw(st.sampled_from((8.0, 60.0))), link_efficiency=draw(st.sampled_from((0.7, 1.0))))
    return corpus, manifest, plans, config


@settings(max_examples=60, deadline=None)
@given(lock_step_cases())
def test_lock_step_step_equals_one_trace_runs(case):
    corpus, manifest, plans, config = case
    logs = sim.run_sessions(PlanFollower(plans), manifest, corpus, config)
    for log, trace, plan in zip(logs, corpus, plans):
        state = sim.init_session(trace)
        obs = sim.observe(manifest, state)
        records, observations = [], []
        for level in plan:
            wall = state.wall_clock_s
            observations.append(obs)
            obs, record, state = sim.step(state, level, manifest, trace, config)
            records.append(record)
            fluid = oracles.fluid_download_s(trace, wall, manifest.chunk_bits(record.chunk_index, level), config.link_efficiency)
            assert record.download_s == pytest.approx(fluid, rel=1e-9)
        assert log.records == records
        assert log.final_state == state
        assert [o.vector().tolist() for o in log.observations] == [o.vector().tolist() for o in observations]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.sampled_from((-1, 6, 2.5, "2", None, "count")))
def test_lock_step_refusals_at_every_batch_size(count, bad_chunk, bad):
    corpus = [constant_trace(1.0 + i, tag=f"c{i}") for i in range(count)]
    manifest = qoe.make_manifest(chunk_count=6)

    class Faulty:
        def decide_batch(self, states, observations):
            levels = [1] * len(states)
            if states[0].next_chunk != bad_chunk:
                return levels
            if bad == "count":
                return levels + [1]
            levels[-1] = bad
            return levels

    if bad == "count":
        message = f"policy returned {count + 1} levels for {count} sessions at chunk {bad_chunk}"
    else:
        message = f"policy returned invalid level {bad!r} at chunk {bad_chunk}"
    with pytest.raises(SimError, match=re.escape(message)):
        sim.run_sessions(Faulty(), manifest, corpus)
