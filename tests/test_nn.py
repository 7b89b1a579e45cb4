from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from abrlab import nn
from abrlab.nn import (
    AdamW,
    Affine,
    CausalSelfAttention,
    Dropout,
    Embedding,
    LayerNorm,
    NnError,
    TransformerBlock,
    cosine_lr,
    cross_entropy,
    grad_check,
    mse,
)


def test_affine_identity_and_bias():
    rng = np.random.default_rng(0)
    layer = Affine(3, 3, rng, dtype=np.float64)
    layer.w.value = np.eye(3)
    layer.b.value = np.zeros(3)
    x = rng.normal(size=(4, 3))
    assert np.allclose(layer.forward(x)[0], x)
    layer.b.value = np.array([1.0, 2.0, 3.0])
    out, _ = layer.forward(np.zeros((2, 3)))
    assert np.allclose(out, np.tile(layer.b.value, (2, 1)))
    with pytest.raises(NnError):
        layer.forward(np.zeros((2, 4)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_affine_ce_gradients(seed):
    rng = np.random.default_rng(seed)
    layer = Affine(4, 3, rng, dtype=np.float64)
    x = rng.normal(size=(5, 4))
    targets = np.zeros((5, 3))
    targets[np.arange(5), rng.integers(0, 3, 5)] = 1.0

    def fn():
        for p in layer.params():
            p.grad[...] = 0.0
        out, cache = layer.forward(x)
        loss, dlogits = cross_entropy(out, targets)
        layer.backward(cache, dlogits)
        return loss

    assert grad_check(fn, layer.params()) < 1e-4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layernorm_gradients(seed):
    rng = np.random.default_rng(seed)
    ln = LayerNorm(5, dtype=np.float64)
    ln.g.value = rng.normal(1.0, 0.2, size=5)
    ln.b.value = rng.normal(0.0, 0.2, size=5)
    x = rng.normal(size=(4, 5))
    proj = rng.normal(size=(4, 5))

    def fn():
        for p in ln.params():
            p.grad[...] = 0.0
        out, cache = ln.forward(x)
        ln.backward(cache, proj)
        return float((out * proj).sum())

    assert grad_check(fn, ln.params()) < 1e-4


def test_layernorm_normalizes():
    rng = np.random.default_rng(3)
    ln = LayerNorm(16, dtype=np.float64)
    x = rng.normal(2.0, 7.0, size=(10, 16))
    _, (xhat, _) = ln.forward(x)
    assert np.all(np.abs(xhat.mean(axis=-1)) < 1e-5)
    assert np.all(np.abs(xhat.var(axis=-1) - 1.0) < 1e-4)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("heads", [1, 2])
def test_attention_block_gradients(seed, heads):
    rng = np.random.default_rng(seed)
    attn = CausalSelfAttention(4, heads, rng, dropout=0.0, dtype=np.float64)
    x = rng.normal(size=(2, 3, 4))
    proj = rng.normal(size=(2, 3, 4))

    def fn():
        for p in attn.params():
            p.grad[...] = 0.0
        out, cache = attn.forward(x)
        attn.backward(cache, proj)
        return float((out * proj).sum())

    assert grad_check(fn, attn.params()) < 1e-3


def test_attention_single_token_is_value_projection():
    rng = np.random.default_rng(1)
    attn = CausalSelfAttention(6, 1, rng, dtype=np.float64)
    x = rng.normal(size=(1, 6))
    out = attn.forward(x[None])[0][0]
    manual = attn.wo.forward(attn.wv.forward(x[None])[0])[0][0]
    assert np.allclose(out, manual, atol=1e-12)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(2)
    attn = CausalSelfAttention(8, 2, rng, dtype=np.float64)
    x = rng.normal(size=(2, 5, 8))
    _, cache = attn.forward(x)
    att = cache[3]
    assert np.allclose(att.sum(axis=-1), 1.0, atol=1e-6)


def test_attention_causality_exact():
    rng = np.random.default_rng(4)
    attn = CausalSelfAttention(8, 1, rng, dtype=np.float64)
    x = rng.normal(size=(5, 8))
    base = attn.forward(x[None])[0][0]
    for j in range(1, 5):
        perturbed = x.copy()
        perturbed[j] += rng.normal(size=8)
        out = attn.forward(perturbed[None])[0][0]
        assert np.array_equal(out[:j], base[:j])


def test_embedding_forward_backward():
    rng = np.random.default_rng(5)
    emb = Embedding(7, 3, rng, dtype=np.float64)
    idx = np.array([1, 1, 4])
    out, cache = emb.forward(idx)
    assert out.shape == (3, 3)
    dy = np.ones((3, 3))
    emb.backward(cache, dy)
    assert np.allclose(emb.table.grad[1], 2.0)
    assert np.allclose(emb.table.grad[4], 1.0)
    assert np.allclose(emb.table.grad[0], 0.0)
    with pytest.raises(NnError):
        emb.forward(np.array([9]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_embedding_gradients(seed):
    rng = np.random.default_rng(seed)
    emb = Embedding(4, 3, rng, dtype=np.float64)
    idx = np.array([0, 2, 2, 3])
    proj = rng.normal(size=(4, 3))

    def fn():
        emb.table.grad[...] = 0.0
        out, cache = emb.forward(idx)
        emb.backward(cache, proj)
        return float((out * proj).sum())

    assert grad_check(fn, emb.params()) < 1e-4


def test_dropout_semantics():
    rng = np.random.default_rng(6)
    x = np.ones((100, 100))
    assert np.array_equal(Dropout(0.0).forward(x, True, rng)[0], x)
    drop = Dropout(0.3)
    assert np.array_equal(drop.forward(x, False, rng)[0], x)  # inference: identity
    kept, _ = drop.forward(x, True, rng)
    assert abs(kept.mean() - 1.0) < 0.02  # inverted scaling preserves expectation
    zero_frac = float((kept == 0).mean())
    assert abs(zero_frac - 0.3) < 0.02


def test_dropout_gradients_with_frozen_mask():
    drop = Dropout(0.4)
    x = np.random.default_rng(7).normal(size=(5, 5))
    param = nn.Param("x", x.copy())
    proj = np.random.default_rng(8).normal(size=(5, 5))

    def fn():
        param.grad[...] = 0.0
        out, mask = drop.forward(param.value, True, np.random.default_rng(99))
        param.grad += drop.backward(mask, proj)
        return float((out * proj).sum())

    assert grad_check(fn, [param]) < 1e-4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transformer_block_gradients(seed):
    rng = np.random.default_rng(seed)
    block = TransformerBlock(4, 1, rng, dropout=0.0, mlp_ratio=2, dtype=np.float64)
    x = rng.normal(size=(2, 3, 4))
    proj = rng.normal(size=(2, 3, 4))

    def fn():
        for p in block.params():
            p.grad[...] = 0.0
        out, cache = block.forward(x)
        block.backward(cache, proj)
        return float((out * proj).sum())

    assert grad_check(fn, block.params()) < 1e-3


@pytest.mark.parametrize("rows", [slice(1, None, 3), slice(-1, None)])
def test_trimmed_block_matches_full_block_rows(rows):
    """rows= computes the same outputs and gradients as the full block, with the same dropout draws."""
    rng = np.random.default_rng(10)
    block = TransformerBlock(6, 2, rng, dropout=0.1, mlp_ratio=2, dtype=np.float64)
    x = rng.normal(size=(3, 12, 6))
    full, full_cache = block.forward(x, True, np.random.default_rng(20))
    trimmed, cache = block.forward(x, True, np.random.default_rng(20), rows=rows)
    assert trimmed.shape == full[:, rows].shape
    assert np.allclose(trimmed, full[:, rows], rtol=0, atol=1e-12)

    dy = rng.normal(size=trimmed.shape)
    dy_full = np.zeros_like(full)
    dy_full[:, rows] = dy
    dx_full = block.backward(full_cache, dy_full)
    grads_full = [p.grad.copy() for p in block.params()]
    for p in block.params():
        p.grad[...] = 0.0
    assert np.allclose(block.backward(cache, dy), dx_full, rtol=0, atol=1e-12)
    for p, g in zip(block.params(), grads_full):
        assert np.allclose(p.grad, g, rtol=0, atol=1e-12), p.name


@pytest.mark.parametrize("rows", [slice(1, None, 3), slice(-1, None)])
def test_trimmed_block_gradients(rows):
    rng = np.random.default_rng(11)
    block = TransformerBlock(4, 2, rng, dropout=0.1, mlp_ratio=2, dtype=np.float64)
    x = nn.Param("x", rng.normal(size=(2, 6, 4)))
    proj = rng.normal(size=(2, 6, 4))[:, rows]

    def fn():
        for p in block.params():
            p.grad[...] = 0.0
        out, cache = block.forward(x.value, True, np.random.default_rng(3), rows=rows)
        x.grad = block.backward(cache, proj)
        return float((out * proj).sum())

    assert grad_check(fn, block.params() + [x]) < 1e-6


def test_block_backward_on_a_lane_matches_inline_bit_for_bit():
    """Parameter gradients deferred to a helper thread equal the inline ones exactly, as does dx."""
    rows = slice(1, None, 3)
    rng = np.random.default_rng(13)
    block = TransformerBlock(8, 2, rng, dropout=0.1, mlp_ratio=2)
    x = rng.normal(size=(3, 12, 8)).astype(np.float32)
    out, cache = block.forward(x, True, np.random.default_rng(21), rows=rows)
    dy = rng.normal(size=out.shape).astype(np.float32)
    dx_inline = block.backward(cache, dy)
    inline = [p.grad.copy() for p in block.params()]
    for p in block.params():
        p.grad[...] = 0.0
    out_again, cache = block.forward(x, True, np.random.default_rng(21), rows=rows)
    assert np.array_equal(out_again, out)
    lane_threads = set()

    with ThreadPoolExecutor(max_workers=1) as lane:
        pending = []

        def on_lane(grads):
            lane_threads.add(threading.get_ident())
            grads()

        dx_lane = block.backward(cache, dy, lambda grads: pending.append(lane.submit(on_lane, grads)))
        for done in pending:
            done.result()
    assert len(pending) == len(block.params()) // 2 and threading.get_ident() not in lane_threads
    assert np.array_equal(dx_lane, dx_inline)
    for p, g in zip(block.params(), inline):
        assert np.array_equal(p.grad, g), p.name


def test_layernorm_float32_matches_float64():
    """Float32 rows reduce in float32 yet stay within 1e-5 of float64, also when the mean dwarfs the spread."""
    rng = np.random.default_rng(12)
    dim = 128
    means, stds = np.array([0.0, 1e3, -1e3, 5.0, 0.0]), np.array([1.0, 1.0, 1.0, 0.1, 30.0])
    x = (means[:, None, None] + stds[:, None, None] * rng.normal(size=(5, 8, dim))).astype(np.float32)
    dy = rng.normal(size=x.shape).astype(np.float32)
    g, b = rng.normal(1.0, 0.2, dim).astype(np.float32), rng.normal(0.0, 0.2, dim).astype(np.float32)
    results = []
    for dtype in (np.float32, np.float64):
        ln = LayerNorm(dim, dtype=dtype)
        ln.g.value, ln.b.value = g.astype(dtype), b.astype(dtype)
        y, cache = ln.forward(x.astype(dtype))
        dx = ln.backward(cache, dy.astype(dtype))
        assert y.dtype == dx.dtype == dtype
        results.append((y, dx, ln.g.grad, ln.b.grad))
    for low, ref in zip(*results):
        # Relative to the largest reference value of each row (or of the whole parameter gradient).
        scale = np.abs(ref).max(axis=-1, keepdims=True)
        assert np.all(np.abs(low - ref) <= 1e-5 * scale)


def _state(obj) -> dict:
    """Identity of every attribute, recursing into sub-layers and params."""
    return {k: _state(v) if hasattr(v, "__dict__") else id(v) for k, v in vars(obj).items()}


@pytest.mark.parametrize("train", [False, True])
def test_forward_and_backward_leave_layers_unchanged(train):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 4))
    cases = [
        (Affine(4, 4, rng, dtype=np.float64), (x,)),
        (nn.ReLU(), (x,)),
        (LayerNorm(4, dtype=np.float64), (x,)),
        (Embedding(5, 4, rng, dtype=np.float64), (np.array([[0, 3, 1]]),)),
        (Dropout(0.5), (x, train, rng)),
        (CausalSelfAttention(4, 2, rng, dropout=0.5, dtype=np.float64), (x, train, rng)),
        (TransformerBlock(4, 2, rng, dropout=0.5, mlp_ratio=2, dtype=np.float64), (x, train, rng)),
    ]
    for layer, args in cases:
        before = _state(layer)
        y, cache = layer.forward(*args)
        assert _state(layer) == before, f"{type(layer).__name__}.forward"
        layer.backward(cache, np.ones_like(y))
        assert _state(layer) == before, f"{type(layer).__name__}.backward"


def test_cross_entropy_uniform_and_validation():
    logits = np.zeros((3, 6))
    targets = np.zeros((3, 6))
    targets[:, 2] = 1.0
    loss, dlogits = cross_entropy(logits, targets)
    assert loss == pytest.approx(np.log(6.0), abs=1e-9)
    assert dlogits.shape == logits.shape
    with pytest.raises(NnError):
        cross_entropy(logits, targets * 2.0)
    with pytest.raises(NnError):
        cross_entropy(logits, np.zeros((3, 5)))


def test_mse_zero_and_gradients():
    pred = np.array([[1.0, 2.0]])
    loss, dpred = mse(pred, pred.copy())
    assert loss == 0.0 and np.all(dpred == 0.0)
    rng = np.random.default_rng(0)
    layer = Affine(3, 2, rng, dtype=np.float64)
    x = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 2))

    def fn():
        for p in layer.params():
            p.grad[...] = 0.0
        out, cache = layer.forward(x)
        loss, dpred = mse(out, target)
        layer.backward(cache, dpred)
        return loss

    assert grad_check(fn, layer.params()) < 1e-4


def test_adamw_zero_grad_identity():
    p = nn.Param("p", np.array([1.0, -2.0], dtype=np.float32))
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    before = p.value.copy()
    opt.step()
    assert np.array_equal(p.value, before)


def test_adamw_decoupled_decay():
    p = nn.Param("p", np.array([2.0], dtype=np.float64))
    opt = AdamW([p], lr=0.1, weight_decay=0.5)
    opt.step()
    assert p.value[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), abs=1e-12)
    opt.step()
    assert p.value[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5) ** 2, abs=1e-12)


def test_adamw_quadratic_convergence():
    p = nn.Param("x", np.array([1.0], dtype=np.float64))
    opt = AdamW([p], lr=0.01)
    for _ in range(500):
        opt.zero_grad()
        p.grad[...] = 2.0 * p.value
        opt.step()
    assert abs(p.value[0]) < 0.05


def test_adamw_rejects_nonfinite():
    p = nn.Param("p", np.array([1.0]))
    opt = AdamW([p])
    p.grad[...] = np.nan
    with pytest.raises(NnError):
        opt.step()


def test_cosine_lr_schedule():
    assert cosine_lr(0, 100) == pytest.approx(0.001, abs=1e-12)
    assert cosine_lr(100, 100) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(50, 100) == pytest.approx(0.0005, abs=1e-12)
    with pytest.raises(NnError):
        cosine_lr(101, 100)
    with pytest.raises(NnError):
        cosine_lr(-1, 100)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    arrays = {
        "a.w": rng.normal(size=(3, 4)).astype(np.float32),
        "a.b": rng.normal(size=4).astype(np.float32),
    }
    path = tmp_path / "ckpt.npz"
    nn.save_checkpoint(path, arrays, {"kind": "test"})
    loaded, meta = nn.load_checkpoint(path)
    assert meta["kind"] == "test"
    for name, arr in arrays.items():
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].dtype == arr.dtype
