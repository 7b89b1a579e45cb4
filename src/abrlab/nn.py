"""Minimal differentiable kernel: layers with explicit backward passes.

Enough machinery for a two-layer MLP and a small causal transformer: affine
maps, ReLU, layer normalization, embedding tables, single/multi-head causal
self-attention, inverted dropout, softmax cross-entropy, mean squared error,
AdamW with decoupled weight decay, cosine learning-rate decay, and a central
finite-difference gradient checker.

Layers hold parameters only: ``forward(...)`` returns ``(y, cache)`` and writes
nothing to the layer, and ``backward(cache, dy, defer=None)`` accumulates into
each ``Param.grad`` and returns ``dx``, so one model can serve concurrent
forwards.  Each parameter-gradient accumulation is a no-argument closure that
runs at once, or is handed to ``defer`` when one is given: nothing downstream
reads it, so a caller can run it on a helper thread beside the ``dx`` chain.
Closures read only arrays that the backward pass no longer writes, so running
them later, in submission order, adds the same numbers in the same order.

Parameters are stored in float32 by default.  Losses and the bias and
parameter-gradient sums over the batch accumulate in float64 before casting
back; ``LayerNorm`` reduces each row in its input dtype.  Layers are
dtype-polymorphic, so gradient checks can run the same code in float64.

Attention and transformer blocks take ``rows``, a token slice: keys and
values come from every token, and everything else runs only at ``rows``, so
a last block computes only the positions its caller reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

CHECKPOINT_VERSION = 1


class NnError(ValueError):
    """Shape mismatch, invalid distribution target, or non-finite numbers."""


@dataclass
class Param:
    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.grad = np.zeros_like(self.value)


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], gain: float = 1.0, dtype=np.float32) -> np.ndarray:
    """Scaled uniform initialization over +-sqrt(6 / (fan_in + fan_out))."""
    fan_in = shape[0]
    fan_out = shape[1] if len(shape) > 1 else shape[0]
    limit = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _run_now(grads: Callable[[], None]) -> None:
    grads()


class Affine:
    """y = x W + b over the trailing axis; leading axes are batch."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str = "affine",
                 gain: float = 1.0, dtype=np.float32) -> None:
        self.w = Param(f"{name}.w", uniform_init(rng, (in_dim, out_dim), gain, dtype))
        self.b = Param(f"{name}.b", np.zeros(out_dim, dtype=dtype))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if x.shape[-1] != self.w.value.shape[0]:
            raise NnError(
                f"affine input dim {x.shape[-1]} != weight dim {self.w.value.shape[0]}"
            )
        x2d = x.reshape(-1, x.shape[-1])
        # The output width is explicit, so zero rows (a decision with no past action) keep their shape.
        return (x2d @ self.w.value + self.b.value).reshape(*x.shape[:-1], self.b.value.shape[0]), x2d

    def backward(self, x2d: np.ndarray, dy: np.ndarray, defer: Callable | None = None) -> np.ndarray:
        dy2d = dy.reshape(-1, dy.shape[-1])

        def grads() -> None:
            self.w.grad += x2d.T @ dy2d
            self.b.grad += dy2d.sum(axis=0, dtype=np.float64).astype(self.b.value.dtype)

        (defer or _run_now)(grads)
        return (dy2d @ self.w.value.T).reshape(*dy.shape[:-1], -1)

    def params(self) -> list[Param]:
        return [self.w, self.b]


class ReLU:
    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mask = x > 0
        return x * mask, mask

    def backward(self, mask: np.ndarray, dy: np.ndarray) -> np.ndarray:
        return dy * mask


class LayerNorm:
    """Normalize the trailing axis to zero mean / unit variance, then scale."""

    def __init__(self, dim: int, name: str = "ln", eps: float = 1e-5, dtype=np.float32) -> None:
        self.g = Param(f"{name}.g", np.ones(dim, dtype=dtype))
        self.b = Param(f"{name}.b", np.zeros(dim, dtype=dtype))
        self.eps = eps

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        # np.add.reduce(...) / n is ndarray.mean bit for bit, without mean's Python wrapper,
        # which took a third of a one-window decision's layer norm.
        n = x.shape[-1]
        xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
        # When the mean is large against the spread, x - mu is exact and its own mean is the
        # rounding error of mu; taking it out keeps float32 rows as accurate as float64 ones.
        xc -= np.add.reduce(xc, axis=-1, keepdims=True) / n
        inv_std = 1.0 / np.sqrt(np.add.reduce(np.square(xc), axis=-1, keepdims=True) / n + self.eps)
        xhat = xc * inv_std
        return xhat * self.g.value + self.b.value, (xhat, inv_std)

    def backward(self, cache: tuple, dy: np.ndarray, defer: Callable | None = None) -> np.ndarray:
        xhat, inv_std = cache

        def grads() -> None:
            self.g.grad += (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0, dtype=np.float64).astype(self.g.value.dtype)
            self.b.grad += dy.reshape(-1, dy.shape[-1]).sum(axis=0, dtype=np.float64).astype(self.b.value.dtype)

        (defer or _run_now)(grads)
        dxhat = dy * self.g.value
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return inv_std * (dxhat - m1 - xhat * m2)

    def params(self) -> list[Param]:
        return [self.g, self.b]


class Embedding:
    """Learned lookup table; backward scatters into the table gradient."""

    def __init__(self, count: int, dim: int, rng: np.random.Generator, name: str = "emb",
                 gain: float = 1.0, dtype=np.float32) -> None:
        self.table = Param(f"{name}.table", uniform_init(rng, (count, dim), gain, dtype))

    def forward(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(idx)
        if np.any(idx < 0) or np.any(idx >= self.table.value.shape[0]):
            raise NnError("embedding index out of range")
        return self.table.value[idx], idx

    def backward(self, idx: np.ndarray, dy: np.ndarray, defer: Callable | None = None) -> None:
        (defer or _run_now)(lambda: np.add.at(self.table.grad, idx.reshape(-1), dy.reshape(-1, dy.shape[-1])))

    def params(self) -> list[Param]:
        return [self.table]


class Dropout:
    """Inverted dropout: scales kept activations by 1/(1-rate) at train time.

    With ``rows``, ``x`` holds those rows of a ``tokens``-long axis -2: the mask is drawn over
    the whole axis and read at ``rows``, so the random stream does not depend on ``rows``.
    """

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise NnError("dropout rate must be in [0, 1)")
        self.rate = rate

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None,
                rows: slice = slice(None), tokens: int | None = None) -> tuple:
        if not train or self.rate == 0.0:
            return x, None
        if rng is None:
            raise NnError("training-mode dropout needs an rng")
        grid = x.shape if tokens is None else (*x.shape[:-2], tokens, x.shape[-1])
        mask = (rng.random(grid)[..., rows, :] >= self.rate) * x.dtype.type(1.0 / (1.0 - self.rate))
        return x * mask, mask

    def backward(self, mask: np.ndarray | None, dy: np.ndarray) -> np.ndarray:
        return dy if mask is None else dy * mask


class CausalSelfAttention:
    """Scaled dot-product attention where position i attends to positions <= i.

    Masked scores are set to -inf before the softmax, so future positions get
    exactly zero weight and cannot influence earlier outputs.  Inputs are
    (batch, tokens, dim); queries and outputs are taken at ``rows`` only
    (None: every token), each masked by its absolute position.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dropout: float = 0.0,
                 name: str = "attn", dtype=np.float32) -> None:
        if dim % heads != 0:
            raise NnError(f"embed dim {dim} not divisible by head count {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.wq = Affine(dim, dim, rng, f"{name}.q", dtype=dtype)
        self.wk = Affine(dim, dim, rng, f"{name}.k", dtype=dtype)
        self.wv = Affine(dim, dim, rng, f"{name}.v", dtype=dtype)
        self.wo = Affine(dim, dim, rng, f"{name}.o", dtype=dtype)
        self.attn_drop = Dropout(dropout)

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        b, h, t, hd = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None,
                rows: slice | None = None) -> tuple:
        rows = slice(None) if rows is None else rows
        b, t, _ = x.shape
        (q, cq), (k, ck), (v, cv) = self.wq.forward(x[:, rows]), self.wk.forward(x), self.wv.forward(x)
        q, k, v = self._split(q), self._split(k), self._split(v)
        scale = 1.0 / math.sqrt(self.head_dim)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        pos = np.arange(t)
        mask = pos > pos[rows, None]
        scores = np.where(mask, -np.inf, scores)
        # The ufunc reductions are what ndarray.max and .sum call, minus their wrappers.
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        e = np.exp(scores)
        att = e / np.add.reduce(e, axis=-1, keepdims=True)
        att = att.astype(x.dtype)
        att_kept, drop_mask = self.attn_drop.forward(att, train, rng, rows, t)
        out, co = self.wo.forward(self._merge(att_kept @ v))
        return out, (q, k, v, att, att_kept, drop_mask, cq, ck, cv, co, rows)

    def backward(self, cache: tuple, dy: np.ndarray, defer: Callable | None = None) -> np.ndarray:
        """Gradient for every token of ``x``; the query path's lands at the forward's ``rows``."""
        q, k, v, att, att_kept, drop_mask, cq, ck, cv, co, rows = cache
        scale = 1.0 / math.sqrt(self.head_dim)
        dmerged = self._split(self.wo.backward(co, dy, defer))
        datt_kept = dmerged @ v.transpose(0, 1, 3, 2)
        dv = att_kept.transpose(0, 1, 3, 2) @ dmerged
        datt = self.attn_drop.backward(drop_mask, datt_kept)
        # softmax backward per row; masked entries have att == 0, so they
        # contribute nothing and receive zero gradient.
        dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
        dq = (dscores @ k) * scale
        dk = (dscores.transpose(0, 1, 3, 2) @ q) * scale
        dxq = self.wq.backward(cq, self._merge(dq), defer)
        dx = self.wk.backward(ck, self._merge(dk), defer)
        dx[:, rows] += dxq
        return dx + self.wv.backward(cv, self._merge(dv), defer)

    def params(self) -> list[Param]:
        return self.wq.params() + self.wk.params() + self.wv.params() + self.wo.params()


class TransformerBlock:
    """Pre-norm residual block: attention then a ReLU MLP, dropout on both paths.

    ``forward(x, ..., rows)`` returns the block's output at ``rows`` only (None: every
    token); ``backward`` takes the gradient at those rows and returns it for every token.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dropout: float = 0.0,
                 mlp_ratio: int = 4, name: str = "block", dtype=np.float32) -> None:
        self.ln1 = LayerNorm(dim, f"{name}.ln1", dtype=dtype)
        self.attn = CausalSelfAttention(dim, heads, rng, dropout, f"{name}.attn", dtype=dtype)
        self.drop1 = Dropout(dropout)
        self.ln2 = LayerNorm(dim, f"{name}.ln2", dtype=dtype)
        self.fc1 = Affine(dim, mlp_ratio * dim, rng, f"{name}.fc1", dtype=dtype)
        self.act = ReLU()
        self.fc2 = Affine(mlp_ratio * dim, dim, rng, f"{name}.fc2", dtype=dtype)
        self.drop2 = Dropout(dropout)

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None,
                rows: slice | None = None) -> tuple:
        rows = slice(None) if rows is None else rows
        t = x.shape[1]
        h, c_ln1 = self.ln1.forward(x)
        h, c_attn = self.attn.forward(h, train, rng, rows)
        a, c_drop1 = self.drop1.forward(h, train, rng, rows, t)
        x = x[:, rows] + a
        h, c_ln2 = self.ln2.forward(x)
        h, c_fc1 = self.fc1.forward(h)
        h, c_act = self.act.forward(h)
        h, c_fc2 = self.fc2.forward(h)
        m, c_drop2 = self.drop2.forward(h, train, rng, rows, t)
        return x + m, (c_ln1, c_attn, c_drop1, c_ln2, c_fc1, c_act, c_fc2, c_drop2, rows)

    def backward(self, cache: tuple, dy: np.ndarray, defer: Callable | None = None) -> np.ndarray:
        c_ln1, c_attn, c_drop1, c_ln2, c_fc1, c_act, c_fc2, c_drop2, rows = cache
        dm = self.drop2.backward(c_drop2, dy)
        dh = self.fc1.backward(c_fc1, self.act.backward(c_act, self.fc2.backward(c_fc2, dm, defer)), defer)
        dx_rows = dy + self.ln2.backward(c_ln2, dh, defer)
        da = self.drop1.backward(c_drop1, dx_rows)
        dx = self.ln1.backward(c_ln1, self.attn.backward(c_attn, da, defer), defer)
        dx[:, rows] += dx_rows
        return dx

    def params(self) -> list[Param]:
        return (
            self.ln1.params() + self.attn.params() + self.ln2.params()
            + self.fc1.params() + self.fc2.params()
        )


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy against one-hot (or soft) target rows."""
    if logits.shape != targets.shape:
        raise NnError(f"logits shape {logits.shape} != targets shape {targets.shape}")
    t2d = targets.reshape(-1, targets.shape[-1])
    if np.any(t2d < 0) or not np.allclose(t2d.sum(axis=-1), 1.0, atol=1e-6):
        raise NnError("targets must be distributions (non-negative rows summing to 1)")
    l2d = logits.reshape(-1, logits.shape[-1])
    z = l2d - l2d.max(axis=-1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    n = l2d.shape[0]
    loss = float(-(t2d * log_p).sum(dtype=np.float64) / n)
    dlogits = ((np.exp(log_p) - t2d) / n).astype(logits.dtype).reshape(logits.shape)
    return loss, dlogits


def mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements."""
    if pred.shape != target.shape:
        raise NnError(f"pred shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float(np.mean(np.square(diff), dtype=np.float64))
    dpred = (2.0 * diff / diff.size).astype(pred.dtype)
    return loss, dpred


class AdamW:
    """Adam with bias correction and decoupled weight decay."""

    def __init__(self, params: Sequence[Param], lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad[...] = 0.0

    def step(self) -> None:
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise NnError(f"non-finite gradient for {p.name}")
        self.step_count += 1
        b1, b2 = self.betas
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * np.square(p.grad)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.value
            p.value -= (self.lr * update).astype(p.value.dtype)


def cosine_lr(step: int, total_steps: int, lr0: float = 0.001) -> float:
    """Cosine decay from lr0 at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise NnError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def grad_check(fn: Callable[[], float], params: Sequence[Param], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` must deterministically compute a scalar loss and leave each
    param's gradient populated (zeroed-then-filled by the caller's backward).
    The relative error uses max(1, |a|, |fd|) in the denominator, so tiny
    gradients are compared absolutely.
    """
    for p in params:
        p.grad[...] = 0.0
    fn()
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = fn()
            flat[i] = orig - eps
            lm = fn()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * eps)
            a = float(an.reshape(-1)[i])
            err = abs(fd - a) / max(1.0, abs(fd), abs(a))
            worst = max(worst, err)
    return worst


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Versioned npz container of named arrays plus a JSON meta header."""
    meta = dict(meta)
    meta["format_version"] = CHECKPOINT_VERSION
    np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def restore_params(params: Sequence[Param], arrays: dict[str, np.ndarray]) -> None:
    """Copy each param's value from ``arrays[name]``, refusing any mismatch with NnError."""
    names = [p.name for p in params]
    missing, unexpected = sorted(set(names) - arrays.keys()), sorted(arrays.keys() - set(names))
    if missing or unexpected:
        raise NnError(f"checkpoint arrays do not match the model: missing {missing}, unexpected {unexpected}")
    for p in params:
        if arrays[p.name].shape != p.value.shape:
            raise NnError(f"checkpoint array {p.name}: shape {arrays[p.name].shape}, the model expects {p.value.shape}")
        p.value = arrays[p.name].copy()
        p.grad = np.zeros_like(p.value)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    with np.load(path, allow_pickle=False) as data:
        if "__meta__" not in data.files:
            raise NnError(f"{path} has no __meta__ header; not a checkpoint")
        meta = json.loads(str(data["__meta__"][()]))
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise NnError(f"unsupported checkpoint version {meta.get('format_version')}")
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    return arrays, meta
