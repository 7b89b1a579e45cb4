"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale fixture trains the whole stack once (estimator on the reduced
stationary grid, sequence model on regime-switching expert trajectories) and
is shared by the estimator-quality, trainability, ordering, and ablation
criteria.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from abrlab import dt, estimator as est, expert, harness, nn, qoe, sim, traces
from oracles import (
    brute_force_plan,
    discretization_bound,
    make_aligned_instance,
    make_nonaligned_instance,
)

ACCEPT_SEED = 11


def desk_config() -> harness.PipelineConfig:
    """Desk-scale setup: low-bandwidth regime-switching corpus, reduced grid.

    The segment-mean range tracks the kind of sub-6 Mbps links the ladder
    targets; faster corpora let the buffer-only baseline ride the top level
    for free, while much slower ones starve every policy.
    """
    return harness.PipelineConfig(
        seed=ACCEPT_SEED,
        mu_range=(0.4, 3.0),
        sigma_rel_range=(0.15, 0.4),
        segment_s=(12.0, 35.0),
        n_train_traces=200,
        n_test_traces=50,
        dt_steps=2500,
    )


def report_criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


@dataclass
class DeskArtifacts:
    config: harness.PipelineConfig
    ctx: harness.SweepContext
    grid_dataset: est.EstimatorDataset
    heldout_features: np.ndarray
    heldout_labels: np.ndarray


@pytest.fixture(scope="session")
def desk() -> DeskArtifacts:
    return build_desk(desk_config())


def build_desk(config: harness.PipelineConfig) -> DeskArtifacts:
    manifest = qoe.make_manifest(
        config.chunk_count, config.chunk_duration_s, size_jitter=config.size_jitter, seed=config.seed
    )
    params = qoe.QoeParams()
    dp_config = expert.DpConfig(dominance_prune=True)
    grid = traces.estimator_grid(
        mu_step=config.grid_mu_step, sigma_step=config.grid_sigma_step,
        duration_s=config.grid_duration_s, seed=config.seed,
    )
    dataset = est.make_estimator_dataset(grid, manifest, params, dp_config)
    # explicit held-out split so quality is measured on rows never trained on
    order = np.random.default_rng(config.seed).permutation(len(dataset))
    n_held = len(dataset) // 5
    held, train_rows = order[:n_held], order[n_held:]
    train_set = est.EstimatorDataset(
        features=dataset.features[train_rows], labels=dataset.labels[train_rows], raw=dataset.raw[train_rows]
    )
    estimator_model, _ = est.train_estimator(
        train_set,
        est.EstimatorConfig(seed=config.seed, epochs=config.estimator_epochs, val_fraction=0.0),
    )
    train_traces = harness.make_switching_corpus(config.n_train_traces, config, config.seed * 2 + 1, "train")
    test_traces = harness.make_switching_corpus(config.n_test_traces, config, config.seed * 2 + 2, "test")
    ctx = harness.SweepContext(
        manifest=manifest,
        params=params,
        train_traces=train_traces,
        test_traces=test_traces,
        estimator_model=estimator_model,
        dt_config=dt.DtConfig(
            context_len=config.context_len,
            action_count=len(manifest.ladder),
            obs_dim=sim.obs_dim(len(manifest.ladder)),
            max_timestep=config.chunk_count,
        ),
        dt_hyper=dt.DtTrainConfig(steps=config.dt_steps, batch_size=config.dt_batch, seed=config.seed),
        stats_window=config.stats_window,
        dp_config=dp_config,
    )
    return DeskArtifacts(
        config=config,
        ctx=ctx,
        grid_dataset=dataset,
        heldout_features=dataset.features[held],
        heldout_labels=dataset.labels[held],
    )


def test_criterion_01_qoe_arithmetic():
    params = qoe.QoeParams()
    checks = [
        abs(qoe.quality(300, params) - 0.3) <= 1e-9,
        abs(qoe.quality(4300, params) - 4.3) <= 1e-9,
        qoe.quality(0, params) == 0.0,
        abs(qoe.chunk_qoe(4300, 4300, 0.0, params) - 4.3) <= 1e-9,
        abs(qoe.chunk_qoe(750, 1200, 1.0, params) - (-4.0)) <= 1e-9,
        abs(qoe.chunk_qoe(300, qoe.FIRST_CHUNK, 0.0, params) - 0.3) <= 1e-9,
    ]
    rec = lambda i, r, t: qoe.ChunkRecord(i, 0, r, t, 1.0, 1.0, 4.0, 0.0)
    two = qoe.session_qoe([rec(0, 300, 0.0), rec(1, 300, 0.0)], params)
    one = qoe.session_qoe([rec(0, 4300, 0.0)], params)
    checks += [abs(two.total - 0.6) <= 1e-9, abs(one.total - 4.3) <= 1e-9]
    mixed = qoe.session_qoe([rec(0, 750, 0.0), rec(1, 1200, 0.5), rec(2, 300, 0.0)], params)
    expected = 0.75 + (1.2 - 4.3 * 0.5 - 0.45) + (0.3 - 0.9)
    checks.append(abs(mixed.total - expected) <= 1e-9)
    checks.append(
        abs(mixed.total - (mixed.utility - mixed.rebuffer_penalty - mixed.smoothness_penalty)) <= 1e-9
    )
    report_criterion(1, "QoE arithmetic substitution suite at 1e-9", all(checks))


def test_criterion_02_dp_optimality():
    params = qoe.QoeParams()
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    worst_aligned = 0.0
    for _ in range(200):
        inst = make_aligned_instance(rng)
        cfg = expert.DpConfig(buffer_quantum_s=inst.quantum_s, time_quantum_s=inst.quantum_s)
        best_total, _ = brute_force_plan(inst.manifest, inst.trace, params)
        plan = expert.dp_plan(inst.manifest, inst.trace, params, dp_config=cfg)
        worst_aligned = max(worst_aligned, abs(plan.total_qoe - best_total))
    ok_aligned = worst_aligned <= 1e-9

    ok_bounded = True
    for _ in range(50):
        inst = make_nonaligned_instance(rng)
        cfg = expert.DpConfig(buffer_quantum_s=0.25, time_quantum_s=0.25)
        best_total, _ = brute_force_plan(inst.manifest, inst.trace, params)
        plan = expert.dp_plan(inst.manifest, inst.trace, params, dp_config=cfg)
        bound = discretization_bound(inst, params, cfg)
        ok_bounded = ok_bounded and (best_total - bound <= plan.total_qoe <= best_total + bound)
    elapsed = time.perf_counter() - t0
    report_criterion(
        2,
        "planner equals exhaustive search on aligned instances, bounded otherwise",
        ok_aligned and ok_bounded and elapsed < 60.0,
        f"max aligned gap {worst_aligned:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_gradient_correctness():
    t0 = time.perf_counter()
    worst_ops = 0.0
    worst_attn = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)

        def functional_check(layer, x, with_loss=None):
            proj = rng.normal(size=layer.forward(x)[0].shape)

            def fn():
                for p in layer.params():
                    p.grad[...] = 0.0
                out, cache = layer.forward(x)
                if with_loss == "ce":
                    loss, dout = nn.cross_entropy(out, targets)
                    layer.backward(cache, dout)
                    return loss
                if with_loss == "mse":
                    loss, dout = nn.mse(out, target_vals)
                    layer.backward(cache, dout)
                    return loss
                layer.backward(cache, proj)
                return float((out * proj).sum())

            return nn.grad_check(fn, layer.params())

        affine = nn.Affine(4, 3, rng, dtype=np.float64)
        targets = np.zeros((5, 3))
        targets[np.arange(5), rng.integers(0, 3, 5)] = 1.0
        worst_ops = max(worst_ops, functional_check(affine, rng.normal(size=(5, 4)), "ce"))
        affine2 = nn.Affine(4, 3, rng, dtype=np.float64)
        target_vals = rng.normal(size=(5, 3))
        worst_ops = max(worst_ops, functional_check(affine2, rng.normal(size=(5, 4)), "mse"))
        ln = nn.LayerNorm(6, dtype=np.float64)
        ln.g.value = rng.normal(1.0, 0.3, 6)
        worst_ops = max(worst_ops, functional_check(ln, rng.normal(size=(4, 6))))
        emb = nn.Embedding(5, 4, rng, dtype=np.float64)
        worst_ops = max(worst_ops, functional_check(emb, np.array([0, 3, 3, 1])))
        attn = nn.CausalSelfAttention(4, 1, rng, dropout=0.0, dtype=np.float64)
        worst_attn = max(worst_attn, functional_check(attn, rng.normal(size=(2, 3, 4))))
        block = nn.TransformerBlock(4, 2, rng, dropout=0.0, mlp_ratio=2, dtype=np.float64)
        worst_attn = max(worst_attn, functional_check(block, rng.normal(size=(2, 3, 4))))

        # full sequence-model loss: every parameter from embeddings to head
        config = dt.DtConfig(
            context_len=2, embed_dim=4, blocks=1, heads=1, dropout=0.0,
            action_count=3, obs_dim=4, max_timestep=4, mlp_ratio=2,
        )
        model = dt.DtModel(config, seed=seed, dtype=np.float64)
        t = np.array([[0, 1], [2, 3]])
        o = rng.normal(size=(2, 2, 4))
        r = rng.normal(size=(2, 2))
        a = np.zeros((2, 2, 3))
        a[..., 0] = 1.0

        def full_fn():
            for p in model.params():
                p.grad[...] = 0.0
            return dt._loss_and_grads(model, t, o, r, a, train=False, rng=None)

        worst_attn = max(worst_attn, nn.grad_check(full_fn, model.params()))
    elapsed = time.perf_counter() - t0
    report_criterion(
        3,
        "finite-difference checks: ops < 1e-4, attention/full model < 1e-3",
        worst_ops < 1e-4 and worst_attn < 1e-3 and elapsed < 60.0,
        f"ops {worst_ops:.1e}, attention {worst_attn:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_causality():
    config = dt.DtConfig()
    model = dt.DtModel(config, seed=ACCEPT_SEED)
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, config.context_len + 1))
        window = dt.start_window(
            rng.random((1, config.obs_dim)), [rng.random()], [int(rng.integers(0, 40))], config.context_len
        )
        for _ in range(n - 1):
            window = dt.update_window(window, [int(rng.integers(0, 6))], rng.random((1, config.obs_dim)), [rng.random()])
        tokens = dt.tokenize_window(window, model)[0]
        base = dt.dt_forward(model, tokens[None])[0]
        for t in range(n):
            o_pos = 3 * t + 1
            for j in range(o_pos + 1, tokens.shape[0]):
                perturbed = tokens.copy()
                perturbed[j] += rng.normal(scale=3.0, size=tokens.shape[1]).astype(perturbed.dtype)
                out = dt.dt_forward(model, perturbed[None])[0]
                worst = max(worst, float(np.max(np.abs(out[: t + 1] - base[: t + 1]))))
    report_criterion(
        4,
        "future tokens have zero influence on past action logits over 100 windows",
        worst <= 1e-6,
        f"max leak {worst:.2e}",
    )


def test_criterion_05_estimator_quality(desk):
    t0 = time.perf_counter()
    model = desk.ctx.estimator_model
    preds = np.array([est.estimate(model, f) for f in desk.heldout_features])
    mse_val = float(np.mean((preds - desk.heldout_labels) ** 2))
    label_var = float(np.var(desk.heldout_labels))
    corr = est.rank_correlation(preds, desk.heldout_labels)
    elapsed = time.perf_counter() - t0
    report_criterion(
        5,
        "held-out MSE <= 10% of label variance and rank correlation >= 0.95",
        mse_val <= 0.10 * label_var and corr >= 0.95,
        f"mse/var {mse_val / label_var:.3f}, spearman {corr:.3f}, eval {elapsed:.0f}s",
    )


def test_criterion_06_dt_trainability(desk):
    t0 = time.perf_counter()
    trajectories = desk.ctx.trajectories(desk.config.stats_window)[:10]
    hyper = dt.DtTrainConfig(
        steps=2000,
        batch_size=desk.config.dt_batch,
        seed=ACCEPT_SEED,
        target_accuracy=0.95,
        check_every=200,
    )
    model, history = dt.train_dt(trajectories, desk.ctx.dt_config, hyper)
    accuracy = dt.next_action_accuracy(model, trajectories)
    initial_ok = abs(history.losses[0] - np.log(6.0)) <= 0.2
    elapsed = time.perf_counter() - t0
    report_criterion(
        6,
        "overfits 10 expert trajectories to >= 95% next-action accuracy within 2000 steps",
        accuracy >= 0.95 and history.steps_run <= 2000 and initial_ok,
        f"accuracy {accuracy:.3f} after {history.steps_run} steps, "
        f"initial loss {history.losses[0]:.3f} vs ln6 {np.log(6):.3f}, {elapsed:.0f}s",
    )


def _ordering_report(desk) -> harness.EvalReport:
    ctx = desk.ctx
    model = ctx.model(desk.config.context_len, desk.config.stats_window)
    policies = ctx.policies(("bb", "rb", "dt", "dp"), model, desk.config.stats_window)
    return harness.evaluate_corpus(policies, ctx.manifest, ctx.test_traces, ctx.params, ctx.sim_config)


def test_criterion_07_end_to_end_ordering(desk):
    t0 = time.perf_counter()
    report = _ordering_report(desk)
    by_name = {a.algorithm: a.mean_qoe for a in report.aggregates}
    ok = (
        by_name["dt"] >= by_name["bb"]
        and by_name["dt"] >= by_name["rb"]
        and all(by_name["dp"] >= by_name[name] for name in ("bb", "rb", "dt"))
    )
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{name} {by_name[name]:+.4f}" for name in ("dp", "dt", "bb", "rb"))
    report_criterion(
        7,
        f"trained policy >= bb and rb; offline-optimal >= all, over {len(desk.ctx.test_traces)} held-out traces",
        ok,
        f"{detail}, {elapsed:.0f}s",
    )


def test_criterion_08_ablation_trends(desk):
    t0 = time.perf_counter()
    rows_k = harness.ablation_sweep("K", [1, 4], desk.ctx)
    rows_l = harness.ablation_sweep("L", [4, 8], desk.ctx)
    k_qoe = {r.value: r.mean_qoe for r in rows_k}
    l_qoe = {r.value: r.mean_qoe for r in rows_l}
    elapsed = time.perf_counter() - t0
    report_criterion(
        8,
        "mean QoE(K=4) > mean QoE(K=1) and mean QoE(L=4) > mean QoE(L=8)",
        k_qoe[4] > k_qoe[1] and l_qoe[4] > l_qoe[8],
        f"K4 {k_qoe[4]:+.4f} vs K1 {k_qoe[1]:+.4f}; L4 {l_qoe[4]:+.4f} vs L8 {l_qoe[8]:+.4f}, {elapsed:.0f}s",
    )


def test_criterion_09_sim_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    cap = sim.SimConfig().buffer_cap_s
    worst_time = worst_content = 0.0
    ok = True
    for i in range(1000):
        chunks = int(rng.integers(3, 30))
        manifest = qoe.make_manifest(chunks, 4.0, size_jitter=0.25, seed=int(rng.integers(1 << 30)))
        if i % 2 == 0:
            trace = traces.gen_synthetic_trace(
                traces.SyntheticSpec(
                    float(rng.uniform(0.3, 5.0)), float(rng.uniform(0.0, 1.5)), 200.0,
                    seed=int(rng.integers(1 << 30)),
                )
            )
        else:
            segs = [
                traces.SyntheticSpec(
                    float(rng.uniform(0.3, 5.0)), float(rng.uniform(0.0, 1.0)), 40.0,
                    seed=int(rng.integers(1 << 30)),
                )
                for _ in range(3)
            ]
            trace = traces.gen_switching_trace(segs)
        levels = rng.integers(0, 6, size=chunks)
        log = sim.run_policy(expert.PlanFollower((levels.tolist(),)), manifest, trace)
        final = log.final_state
        time_gap = abs(final.wall_clock_s - (sum(r.download_s for r in log.records) + final.sleep_total_s))
        played = final.wall_clock_s - final.startup_delay_s - final.rebuffer_total_s
        content_gap = abs(chunks * manifest.chunk_duration_s - (final.buffer_s + played))
        worst_time = max(worst_time, time_gap)
        worst_content = max(worst_content, content_gap)
        ok = ok and time_gap <= 1e-6 and content_gap <= 1e-6
        ok = ok and all(r.rebuffer_s >= 0.0 for r in log.records)
        ok = ok and all(r.buffer_after_s <= cap + 1e-9 for r in log.records)
    elapsed = time.perf_counter() - t0
    report_criterion(
        9,
        "time/playback accounting holds to 1e-6 s over 1000 random sessions",
        ok,
        f"worst time gap {worst_time:.1e}, worst content gap {worst_content:.1e}, {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    config = harness.PipelineConfig(
        seed=ACCEPT_SEED,
        chunk_count=10,
        grid_mu_step=2.75,
        grid_sigma_step=1.5,
        grid_duration_s=120.0,
        estimator_epochs=30,
        n_train_traces=4,
        n_test_traces=3,
        trace_duration_s=120.0,
        dt_steps=60,
        mu_range=(0.4, 3.0),
    )
    _, paths_a = harness.run_pipeline(config, tmp_path / "run_a")
    _, paths_b = harness.run_pipeline(config, tmp_path / "run_b")
    same_json = paths_a["json"].read_bytes() == paths_b["json"].read_bytes()
    same_csv = paths_a["csv"].read_bytes() == paths_b["csv"].read_bytes()
    same_cdf = paths_a["cdf"].read_bytes() == paths_b["cdf"].read_bytes()
    elapsed = time.perf_counter() - t0
    report_criterion(
        10,
        "two full pipeline runs with identical seeds emit byte-identical reports",
        same_json and same_csv and same_cdf,
        f"{elapsed:.0f}s for both runs",
    )
