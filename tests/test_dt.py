from __future__ import annotations

import copy
import dataclasses
import threading

import numpy as np
import pytest

from abrlab import dt, estimator as est, expert, nn, qoe, sim, traces
from abrlab.dt import (
    DtConfig,
    DtError,
    DtModel,
    DtTrainConfig,
    decide,
    dt_forward,
    next_action_accuracy,
    start_window,
    tokenize_window,
    train_dt,
    update_window,
)

import oracles
from conftest import constant_trace

TINY = DtConfig(context_len=4, embed_dim=16, blocks=1, heads=1, dropout=0.0, action_count=6, obs_dim=10, max_timestep=48)


def make_window(n, K=4, obs_dim=10, seed=0):
    """A one-session window of n timesteps starting at timestep 0."""
    rng = np.random.default_rng(seed)
    window = start_window(rng.random((1, obs_dim)), [rng.random()], [0], K)
    for _ in range(n - 1):
        window = update_window(window, [int(rng.integers(0, 6))], rng.random((1, obs_dim)), [rng.random()])
    return window


def random_trajectory(T, seed, obs_dim=10, n_act=6):
    rng = np.random.default_rng(seed)
    actions = np.zeros((T, n_act))
    actions[np.arange(T), rng.integers(0, n_act, T)] = 1.0
    return expert.Trajectory(
        trace_tag=f"rand{seed}",
        timesteps=np.arange(T, dtype=np.int64),
        observations=rng.random((T, obs_dim)),
        returns=rng.random(T),
        actions=actions,
    )


def test_config_validation():
    with pytest.raises(DtError):
        DtConfig(context_len=0)


def test_window_growth_and_capacity():
    window = make_window(1)
    assert window.timesteps.shape == (1, 1) and window.actions.shape == (1, 0)  # newest action pending
    window = make_window(2)
    assert window.timesteps.shape == (1, 2)
    window = make_window(3)
    assert window.timesteps.shape == (1, 3)
    window = make_window(7, K=4)
    assert window.timesteps.shape == (1, 4) and window.actions.shape == (1, 3)  # capped at K
    assert window.timesteps.tolist() == [[3, 4, 5, 6]]  # oldest evicted


def test_update_refuses_batch_mismatch():
    window = make_window(2)
    with pytest.raises(DtError, match="batch"):
        update_window(window, [0, 1], np.zeros((2, 10)), [0.0, 0.0])


def test_token_counts():
    model = DtModel(TINY, seed=0)
    full = make_window(4)
    complete = np.eye(TINY.action_count)[np.append(full.actions, [[1]], axis=1)]
    tokens, _ = dt.embed_tokens(model, full.timesteps, full.observations, full.returns, complete)
    assert tokens.shape == (1, 12, TINY.embed_dim)
    decision = make_window(4)
    assert tokenize_window(decision, model).shape == (1, 11, TINY.embed_dim)
    single = make_window(1)
    assert tokenize_window(single, model).shape == (1, 2, TINY.embed_dim)


def test_timestep_gap_rejected():
    window = make_window(3)
    with pytest.raises(DtError, match="gap"):
        dataclasses.replace(window, timesteps=[[0, 1, 5]])
    with pytest.raises(DtError, match="do not fit"):
        dataclasses.replace(window, actions=[[1, 2, 3]])


def test_positional_encoding_distinguishes_timesteps():
    model = DtModel(TINY, seed=1)
    obs = np.ones((1, 10)) * 0.5
    window = start_window(obs, [0.3], [0], 4)
    window = update_window(window, [2], obs, [0.3])  # identical payload at t=1
    tokens = tokenize_window(window, model)[0]
    # return tokens at t=0 (index 0) and t=1 (index 3) embed the same values
    # but different timesteps
    assert not np.allclose(tokens[0], tokens[3])
    assert not np.allclose(tokens[1], tokens[4])


def test_forward_shapes_and_determinism():
    model = DtModel(TINY, seed=2)
    window = make_window(3)
    tokens = tokenize_window(window, model)
    logits = dt_forward(model, tokens)[0]
    assert logits.shape == (3, 6)
    assert np.array_equal(logits, dt_forward(model, tokens)[0])
    with pytest.raises(DtError):
        dt_forward(model, tokens[:, :4])  # 4 = 3m+1: invalid pattern
    with pytest.raises(DtError):
        dt_forward(model, tokens[0])  # no batch axis


@pytest.mark.parametrize("B", [1, 5])
def test_forward_and_decide_match_reference(B):
    """The trimmed last block reads the same logits as every token through every block."""
    cfg = DtConfig(context_len=4, embed_dim=16, blocks=3, heads=2, action_count=6, obs_dim=10, max_timestep=48)
    model = DtModel(cfg, seed=4, dtype=np.float64)
    arrays = model.named_arrays()
    rng = np.random.default_rng(B)
    for n in range(1, cfg.context_len + 1):
        t = rng.integers(0, cfg.max_timestep - n, (B, 1)) + np.arange(n)
        o = rng.random((B, n, cfg.obs_dim)) * model.obs_scale
        r = rng.normal(size=(B, n))
        levels = rng.integers(0, cfg.action_count, (B, n))
        for m in (n, n - 1):  # a complete segment, then the decision window
            tokens, _ = dt.embed_tokens(model, t, o, r, np.eye(cfg.action_count)[levels[:, :m]])
            reference = oracles.reference_dt_logits(arrays, cfg, t, o, r, levels[:, :m])
            assert reference.shape == (B, n, cfg.action_count)
            assert np.allclose(dt_forward(model, tokens), reference, rtol=0, atol=1e-10)
        window = dt.TrajectoryWindow(cfg.context_len, t, o, r, levels[:, :-1])
        assert np.array_equal(decide(model, window), np.argmax(reference[:, -1], axis=-1))


def test_causality_perturbation():
    model = DtModel(TINY, seed=3)
    rng = np.random.default_rng(0)
    for trial in range(5):
        window = make_window(4, seed=trial)
        tokens = tokenize_window(window, model)[0]
        base = dt_forward(model, tokens[None])[0]
        for t in range(4):
            o_pos = 3 * t + 1
            for j in range(o_pos + 1, tokens.shape[0]):
                perturbed = tokens.copy()
                perturbed[j] += rng.normal(size=tokens.shape[1]).astype(perturbed.dtype)
                out = dt_forward(model, perturbed[None])[0]
                assert np.max(np.abs(out[: t + 1] - base[: t + 1])) <= 1e-6


def test_decide_range_and_tiebreak():
    model = DtModel(TINY, seed=4)
    window = make_window(4)
    level = decide(model, window)[0]
    assert 0 <= level < 6
    assert decide(model, window)[0] == level
    model.head.w.value[...] = 0.0
    model.head.b.value[...] = 0.0
    assert decide(model, window)[0] == 0  # all-equal logits resolve to lowest level


def test_initial_loss_near_uniform():
    trajs = [random_trajectory(12, seed=i) for i in range(3)]
    _, history = train_dt(trajs, TINY, DtTrainConfig(steps=1, batch_size=16, seed=0))
    assert abs(history.losses[0] - np.log(6.0)) < 0.2


def test_fixed_batch_descent():
    # dropout disabled in TINY; a length-K trajectory admits exactly one
    # segment, so every minibatch is the same fixed batch.
    trajs = [random_trajectory(TINY.context_len, seed=9)]
    model, history = train_dt(trajs, TINY, DtTrainConfig(steps=50, batch_size=8, seed=1))
    assert history.losses[-1] < history.losses[0]
    assert history.losses[49] < 0.9 * history.losses[0]


def inline_loss_and_grads(model, t, o, r, a, rng):
    """``dt._loss_and_grads`` written out layer by layer, every gradient accumulated inline (defer=None)."""
    B, K = t.shape
    n_act = model.config.action_count
    caches: dict = {}
    tokens, (ct, cr, co, ca) = dt.embed_tokens(model, t, o, r, a)
    logits = dt._forward(model, tokens, True, rng, caches)
    loss, dlogits = nn.cross_entropy(logits.reshape(B * K, n_act), a.reshape(B * K, n_act).astype(np.float32))
    dx = model.ln_f.backward(caches["ln_f"], model.head.backward(caches["head"], dlogits.reshape(B, K, n_act)))
    for i in reversed(range(len(model.blocks))):
        dx = model.blocks[i].backward(caches[i], dx)
    dr_tok, do_tok, da_tok = dx[:, 0::3], dx[:, 1::3], dx[:, 2::3]
    model.embed_r.backward(cr, dr_tok)
    model.embed_o.backward(co, do_tok)
    model.embed_a.backward(ca, da_tok)
    model.embed_t.backward(ct, dr_tok + do_tok + da_tok)
    return loss


def test_lane_backward_matches_inline_bit_for_bit():
    config = dataclasses.replace(TINY, blocks=2, heads=2, dropout=0.1)
    trajs = [random_trajectory(12, seed=40 + i) for i in range(3)]
    index = dt._segment_arrays(trajs, config.context_len)
    t, o, r, a = dt._gather_batch(trajs, index, np.random.default_rng(4).integers(0, len(index), 16), config.context_len)
    lane_model = DtModel(config, seed=6)
    inline_model = copy.deepcopy(lane_model)
    with dt._grad_lane() as lane:
        lane_loss = dt._loss_and_grads(lane_model, t, o, r, a, train=True, rng=np.random.default_rng(8), lane=lane)
    assert lane_loss == inline_loss_and_grads(inline_model, t, o, r, a, np.random.default_rng(8))
    for p, q in zip(lane_model.params(), inline_model.params()):
        assert np.any(p.grad != 0.0), p.name
        assert np.array_equal(p.grad, q.grad), p.name


def test_lane_exception_propagates_and_leaves_no_thread():
    trajs = [random_trajectory(8, seed=1)]
    t, o, r, a = dt._gather_batch(trajs, dt._segment_arrays(trajs, 4), [0, 1, 2], 4)
    model = DtModel(TINY, seed=0)
    model.head.w.grad.flags.writeable = False  # the head's weight-gradient closure raises on the lane
    threads = threading.active_count()
    with dt._grad_lane() as lane, pytest.raises(ValueError, match="read-only"):
        dt._loss_and_grads(model, t, o, r, a, train=False, rng=None, lane=lane)
    assert threading.active_count() == threads


@pytest.mark.parametrize("fault", [None, "lane", "diverged"])
def test_train_dt_runs_one_lane_that_ends_with_it(monkeypatch, fault):
    """Every step of a run shares one gradient lane, whose thread ends with the run, also when a step raises."""
    lanes = []
    open_lane = dt._grad_lane
    monkeypatch.setattr(dt, "_grad_lane", lambda: lanes.append(open_lane()) or lanes[-1])
    trajs = [random_trajectory(8, seed=1)]
    hyper = DtTrainConfig(steps=4, batch_size=4, seed=0)
    if fault is None:
        _, history = train_dt(trajs, TINY, hyper)
        assert history.steps_run == 4
    elif fault == "lane":  # the head's weight-gradient closure raises on the lane at step 3
        zero_grad = nn.AdamW.zero_grad

        def zero_then_freeze(opt):
            zero_grad(opt)
            if opt.step_count == 2:
                next(p for p in opt.params if p.name == "dt.head.w").grad.flags.writeable = False

        monkeypatch.setattr(nn.AdamW, "zero_grad", zero_then_freeze)
        with pytest.raises(ValueError, match="read-only"):
            train_dt(trajs, TINY, hyper)
    else:
        nan_returns = [dataclasses.replace(trajs[0], returns=np.full(8, np.nan))]
        with pytest.raises(DtError, match="diverged at step 0"):
            train_dt(nan_returns, TINY, hyper)
    assert len(lanes) == 1
    assert not [t for t in threading.enumerate() if t.name.startswith("dt-grad-lane")]


def test_overfit_single_trajectory():
    trajs = [random_trajectory(10, seed=5)]
    hyper = DtTrainConfig(steps=400, batch_size=16, seed=2, target_accuracy=1.0, check_every=50)
    model, history = train_dt(trajs, TINY, hyper)
    assert next_action_accuracy(model, trajs) >= 0.9


@pytest.mark.parametrize("field", ["steps", "batch_size", "check_every"])
@pytest.mark.parametrize("value", [0, -3])
def test_train_config_refuses_nonpositive_counts(field, value):
    with pytest.raises(DtError, match=f"{field} must be >= 1"):
        DtTrainConfig(**{field: value})


def test_pinned_next_action_accuracy():
    # Recorded with the per-window walk that the batched slicing replaced.
    lengths = [1, 3, 4, 6, 9, 12, 2, 7]  # three shorter than K, all of them different lengths
    trajs = [random_trajectory(T, seed=30 + i) for i, T in enumerate(lengths)]
    trajs[3] = dataclasses.replace(trajs[3], timesteps=trajs[3].timesteps + 5)  # starts mid-session
    model = DtModel(TINY, seed=5)
    model.head.w.value *= 100.0
    assert next_action_accuracy(model, trajs) == 8 / 44
    hyper = DtTrainConfig(steps=120, batch_size=16, seed=3, target_accuracy=0.7, check_every=20)
    model, history = train_dt([t for t in trajs if len(t) >= TINY.context_len], TINY, hyper)
    assert history.accuracy_checks == [(20, 16 / 38), (40, 20 / 38), (60, 25 / 38), (80, 26 / 38), (100, 27 / 38)]
    assert history.steps_run == 100
    assert next_action_accuracy(model, trajs) == 28 / 44


def test_train_validates_inputs():
    with pytest.raises(DtError):
        train_dt([], TINY)
    short = [random_trajectory(2, seed=0)]
    with pytest.raises(DtError, match="shorter"):
        train_dt(short, TINY)
    wrong = [random_trajectory(8, seed=0, obs_dim=7)]
    with pytest.raises(DtError):
        train_dt(wrong, TINY)


def test_checkpoint_roundtrip(tmp_path):
    model = DtModel(TINY, seed=6)
    path = tmp_path / "dt.npz"
    dt.save_dt(model, path, ladder_kbps=qoe.DEFAULT_LADDER_KBPS)
    loaded = dt.load_dt(path)
    assert loaded.config == model.config
    for p1, p2 in zip(model.params(), loaded.params()):
        assert np.array_equal(p1.value, p2.value)
    window = make_window(4, seed=11)
    assert decide(model, window)[0] == decide(loaded, window)[0]
    arrays, meta = nn.load_checkpoint(path)
    assert meta["ladder_kbps"] == list(qoe.DEFAULT_LADDER_KBPS)


def test_checkpoint_refuses_mismatched_arrays(tmp_path):
    path = tmp_path / "dt.npz"
    dt.save_dt(DtModel(TINY, seed=6), path)
    arrays, meta = nn.load_checkpoint(path)
    wrong_shape = dict(arrays)
    wrong_shape["dt.head.w"] = arrays["dt.head.w"][:, :3]
    missing = {k: v for k, v in arrays.items() if k != "dt.ln_f.g"}
    cases = [(wrong_shape, "dt.head.w"), (missing, r"missing \['dt.ln_f.g'\]"),
             (dict(arrays, extra=np.zeros(2)), r"unexpected \['extra'\]")]
    for bad, match in cases:
        with pytest.raises(nn.NnError, match=match):
            dt.from_checkpoint(bad, meta)
        nn.save_checkpoint(path, bad, meta)
        with pytest.raises(nn.NnError, match=match):
            dt.load_dt(path)
    with pytest.raises(DtError, match="bogus"):
        dt.from_checkpoint(arrays, dict(meta, config=dict(meta["config"], bogus=3)))
    np.savez(path, **arrays)  # no __meta__ header
    with pytest.raises(nn.NnError, match="__meta__"):
        dt.load_dt(path)


def test_dt_policy_runs_session():
    manifest = qoe.make_manifest(chunk_count=6)
    model = DtModel(TINY, seed=7)
    estimator_model = est.EstimatorModel(hidden=8, seed=0)
    policy = dt.DtPolicy(model, estimator_model, stats_window=4)
    trace = constant_trace(2.0)
    log_a = sim.run_policy(policy, manifest, trace)
    log_b = sim.run_policy(dt.DtPolicy(model, estimator_model, 4), manifest, trace)
    assert len(log_a.records) == 6
    assert [r.chosen_level for r in log_a.records] == [r.chosen_level for r in log_b.records]


def test_batched_decisions_match_single_windows():
    model = DtModel(TINY, seed=4)
    model.head.w.value *= 100.0  # logits of order 1, so 1e-5 is a tight bound
    for n in range(1, TINY.context_len + 1):
        windows = [make_window(n, seed=10 * n + b) for b in range(12)]
        windows = [dataclasses.replace(w, timesteps=w.timesteps + 3 * b) for b, w in enumerate(windows)]
        batch = dt.TrajectoryWindow(
            TINY.context_len,
            *(np.concatenate([getattr(w, f) for w in windows]) for f in ("timesteps", "observations", "returns", "actions")),
        )
        batched = dt_forward(model, tokenize_window(batch, model))[:, -1]
        assert np.array_equal(decide(model, batch), np.argmax(batched, axis=-1))
        for b, window in enumerate(windows):
            single = dt_forward(model, tokenize_window(window, model))[0, -1]
            assert np.max(np.abs(batched[b] - single)) < 1e-5
            assert int(np.argmax(batched[b])) == decide(model, window)[0]


def test_dt_policy_lock_step_matches_single_sessions():
    manifest = qoe.make_manifest(chunk_count=12)
    model = DtModel(TINY, seed=8)
    model.head.w.value *= 100.0
    estimator_model = est.EstimatorModel(hidden=8, seed=1)
    corpus = [constant_trace(mbps, tag=f"c{mbps}") for mbps in (0.4, 1.1, 2.5, 6.0)]
    corpus += [traces.gen_synthetic_trace(traces.SyntheticSpec(1.5, 0.8, 120.0, seed=s)) for s in range(4)]
    policy = dt.DtPolicy(model, estimator_model, stats_window=3)
    batched = [[r.chosen_level for r in log.records] for log in sim.run_sessions(policy, manifest, corpus)]
    single = [
        [r.chosen_level for r in sim.run_policy(dt.DtPolicy(model, estimator_model, 3), manifest, trace).records]
        for trace in corpus
    ]
    assert batched == single
    assert len({level for levels in single for level in levels}) > 1
    mid = sim.SessionState(next_chunk=1, buffer_s=4.0, last_level=0, measured_mbps=(1.0,))
    with pytest.raises(DtError, match="batch"):
        policy.decide_batch([mid], [sim.observe(manifest, mid)])


def test_reused_dt_policy_matches_a_fresh_one():
    manifest = qoe.make_manifest(chunk_count=10)
    model = DtModel(TINY, seed=9)
    model.head.w.value *= 100.0
    estimator_model = est.EstimatorModel(hidden=8, seed=2)
    first = [constant_trace(mbps, tag=f"c{mbps}") for mbps in (0.5, 3.0, 1.2)]
    second = [traces.gen_synthetic_trace(traces.SyntheticSpec(1.5, 0.8, 120.0, seed=s)) for s in range(5)]
    policy = dt.DtPolicy(model, estimator_model, stats_window=3)
    sim.run_sessions(policy, manifest, first)
    reused = sim.run_sessions(policy, manifest, second)
    fresh = sim.run_sessions(dt.DtPolicy(model, estimator_model, 3), manifest, second)
    levels = [[r.chosen_level for r in log.records] for log in reused]
    assert levels == [[r.chosen_level for r in log.records] for log in fresh]
    assert len({level for row in levels for level in row}) > 1
