from __future__ import annotations

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

from conftest import constant_trace

TINY = DtConfig(context_len=4, embed_dim=16, blocks=1, heads=1, dropout=0.0, action_count=6, obs_dim=10, max_timestep=48)


def make_window(n, K=4, pending=True, obs_dim=10, seed=0):
    rng = np.random.default_rng(seed)
    window = start_window(rng.random(obs_dim), rng.random(), 0, K)
    for _ in range(n - 1):
        window = update_window(window, int(rng.integers(0, 6)), rng.random(obs_dim), rng.random())
    if not pending:
        window.actions[-1] = int(rng.integers(0, 6))
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
    assert len(window) == 1 and window.pending
    window = make_window(2)
    assert len(window) == 2
    window = make_window(3)
    assert len(window) == 3
    window = make_window(7, K=4)
    assert len(window) == 4  # capped at K
    assert window.timesteps == [3, 4, 5, 6]  # oldest evicted


def test_update_requires_pending():
    window = make_window(2, pending=False)
    with pytest.raises(DtError):
        update_window(window, 0, np.zeros(10), 0.0)


def test_token_counts():
    model = DtModel(TINY, seed=0)
    full = make_window(4, pending=False)
    assert tokenize_window(full, model).shape == (12, TINY.embed_dim)
    decision = make_window(4, pending=True)
    assert tokenize_window(decision, model).shape == (11, TINY.embed_dim)
    single = make_window(1)
    assert tokenize_window(single, model).shape == (2, TINY.embed_dim)


def test_timestep_gap_rejected():
    model = DtModel(TINY, seed=0)
    window = make_window(3)
    window.timesteps[2] = 5
    with pytest.raises(DtError, match="gap"):
        tokenize_window(window, model)


def test_positional_encoding_distinguishes_timesteps():
    model = DtModel(TINY, seed=1)
    obs = np.ones(10) * 0.5
    window = start_window(obs, 0.3, 0, 4)
    window = update_window(window, 2, obs, 0.3)  # identical payload at t=1
    tokens = tokenize_window(window, model)
    # return tokens at t=0 (index 0) and t=1 (index 3) embed the same values
    # but different timesteps
    assert not np.allclose(tokens[0], tokens[3])
    assert not np.allclose(tokens[1], tokens[4])


def test_forward_shapes_and_determinism():
    model = DtModel(TINY, seed=2)
    window = make_window(3)
    tokens = tokenize_window(window, model)
    logits = dt_forward(model, tokens)
    assert logits.shape == (3, 6)
    assert np.array_equal(logits, dt_forward(model, tokens))
    with pytest.raises(DtError):
        dt_forward(model, tokens[:4])  # 4 = 3m+1: invalid pattern


def test_causality_perturbation():
    model = DtModel(TINY, seed=3)
    rng = np.random.default_rng(0)
    for trial in range(5):
        window = make_window(4, seed=trial)
        tokens = tokenize_window(window, model)
        base = dt_forward(model, tokens)
        for t in range(4):
            o_pos = 3 * t + 1
            for j in range(o_pos + 1, tokens.shape[0]):
                perturbed = tokens.copy()
                perturbed[j] += rng.normal(size=tokens.shape[1]).astype(perturbed.dtype)
                out = dt_forward(model, perturbed)
                assert np.max(np.abs(out[: t + 1] - base[: t + 1])) <= 1e-6


def test_decide_range_and_tiebreak():
    model = DtModel(TINY, seed=4)
    window = make_window(4)
    level = decide(model, window)
    assert 0 <= level < 6
    assert decide(model, window) == level
    model.head.w.value[...] = 0.0
    model.head.b.value[...] = 0.0
    assert decide(model, window) == 0  # all-equal logits resolve to lowest level


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


def test_overfit_single_trajectory():
    trajs = [random_trajectory(10, seed=5)]
    hyper = DtTrainConfig(steps=400, batch_size=16, seed=2, target_accuracy=1.0, check_every=50)
    model, history = train_dt(trajs, TINY, hyper)
    assert next_action_accuracy(model, trajs) >= 0.9


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
    assert decide(model, window) == decide(loaded, window)
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
        for b, window in enumerate(windows):
            window.timesteps = [t + 3 * b for t in window.timesteps]
        complete = np.eye(TINY.action_count)[np.array([w.actions[:-1] for w in windows], dtype=np.int64)]
        tokens, _ = dt.embed_tokens(
            model,
            np.array([w.timesteps for w in windows]),
            np.array([w.observations for w in windows]),
            np.array([w.returns for w in windows]),
            complete,
        )
        batched = dt_forward(model, tokens)[:, -1]
        for b, window in enumerate(windows):
            single = dt_forward(model, tokenize_window(window, model))[-1]
            assert np.max(np.abs(batched[b] - single)) < 1e-5
            assert int(np.argmax(batched[b])) == decide(model, window)


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
    with pytest.raises(DtError, match="batch"):
        policy.decide_batch([sim.SessionState()], [sim.observe(manifest, sim.SessionState())])
