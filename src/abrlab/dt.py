"""Causal sequence-model policy over (return, observation, action) triples.

Each timestep contributes three tokens in the order (QoE-to-go estimate,
observation, action); every token carries a learned embedding of its
absolute timestep.  Action logits for timestep t are read from the hidden
state at the observation token, which under the causal mask has seen exactly
the 3t-1 tokens preceding the pending action.  At decision time the window
holds the last K timesteps with the newest action slot empty (3K-1 tokens
once the window is full); early in a session the window simply holds fewer
timesteps rather than padded placeholders.  ``embed_tokens`` builds this
layout once, for training segments and decision windows alike.  One model
forward, which keeps no state on the model, serves training and decisions;
``DtPolicy.decide_batch`` decides for a lock-step batch of sessions at once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from . import estimator as est
from .expert import Trajectory
from .sim import Observation, SessionState, throughput_history


class DtError(ValueError):
    """Invalid window structure or diverged training."""


@dataclass(frozen=True)
class DtConfig:
    context_len: int = 4
    embed_dim: int = 128
    blocks: int = 3
    heads: int = 1
    dropout: float = 0.1
    action_count: int = 6
    obs_dim: int = 10
    max_timestep: int = 48
    mlp_ratio: int = 4
    # Observation normalization: buffer, throughput, download time, chunk
    # sizes; the remaining fraction is already in [0, 1].
    buffer_norm_s: float = 60.0
    throughput_norm_mbps: float = 6.0
    download_norm_s: float = 10.0
    size_norm_bytes: float = 4e6

    def __post_init__(self) -> None:
        if self.context_len < 1:
            raise DtError("context_len must be >= 1")
        if min(self.embed_dim, self.blocks, self.heads, self.action_count, self.obs_dim) < 1:
            raise DtError("model dimensions must be positive")

    def obs_norm(self) -> np.ndarray:
        sizes = self.obs_dim - 4
        return np.concatenate(
            (
                [self.buffer_norm_s, self.throughput_norm_mbps, self.download_norm_s],
                np.full(sizes, self.size_norm_bytes),
                [1.0],
            )
        )


@dataclass
class TrajectoryWindow:
    """Sliding decision context: up to K timesteps, newest action pending."""

    context_len: int
    timesteps: list[int] = field(default_factory=list)
    observations: list[np.ndarray] = field(default_factory=list)
    returns: list[float] = field(default_factory=list)
    actions: list[int | None] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.timesteps)

    @property
    def pending(self) -> bool:
        return bool(self.actions) and self.actions[-1] is None

    def validate(self) -> None:
        n = len(self.timesteps)
        if not 1 <= n <= self.context_len:
            raise DtError(f"window holds {n} timesteps; expected 1..{self.context_len}")
        if not (len(self.observations) == len(self.returns) == len(self.actions) == n):
            raise DtError("window modality lengths differ")
        for a, b in zip(self.timesteps, self.timesteps[1:]):
            if b != a + 1:
                raise DtError(f"timestep gap: {a} -> {b}")
        for a in self.actions[:-1]:
            if a is None:
                raise DtError("only the newest action slot may be pending")


def start_window(obs_vec: np.ndarray, r_hat: float, timestep: int, context_len: int) -> TrajectoryWindow:
    """Session-start window: one timestep with its action pending."""
    return TrajectoryWindow(
        context_len=context_len,
        timesteps=[int(timestep)],
        observations=[np.asarray(obs_vec, dtype=np.float64)],
        returns=[float(r_hat)],
        actions=[None],
    )


def update_window(
    window: TrajectoryWindow,
    executed_action: int,
    new_obs: np.ndarray,
    new_return: float,
) -> TrajectoryWindow:
    """Complete the pending action, append the next (return, observation) pair.

    The oldest timestep is evicted once the window exceeds its capacity.
    """
    window.validate()
    if not window.pending:
        raise DtError("no pending action to complete before appending")
    actions = list(window.actions)
    actions[-1] = int(executed_action)
    timesteps = window.timesteps + [window.timesteps[-1] + 1]
    observations = window.observations + [np.asarray(new_obs, dtype=np.float64)]
    returns = window.returns + [float(new_return)]
    actions = actions + [None]
    if len(timesteps) > window.context_len:
        timesteps, observations, returns, actions = (
            timesteps[1:],
            observations[1:],
            returns[1:],
            actions[1:],
        )
    out = TrajectoryWindow(window.context_len, timesteps, observations, returns, actions)
    out.validate()
    return out


class DtModel:
    """Embeddings, causal transformer blocks, and the action head."""

    def __init__(self, config: DtConfig, seed: int = 0, dtype=np.float32) -> None:
        rng = np.random.default_rng(seed)
        self.config = config
        d = config.embed_dim
        self.embed_t = nn.Embedding(config.max_timestep, d, rng, "dt.embed_t", gain=0.3, dtype=dtype)
        self.embed_r = nn.Affine(1, d, rng, "dt.embed_r", dtype=dtype)
        self.embed_o = nn.Affine(config.obs_dim, d, rng, "dt.embed_o", dtype=dtype)
        self.embed_a = nn.Affine(config.action_count, d, rng, "dt.embed_a", dtype=dtype)
        self.blocks = [
            nn.TransformerBlock(d, config.heads, rng, config.dropout, config.mlp_ratio, f"dt.block{i}", dtype=dtype)
            for i in range(config.blocks)
        ]
        self.ln_f = nn.LayerNorm(d, "dt.ln_f", dtype=dtype)
        # Small head gain keeps initial logits near zero (uniform policy).
        self.head = nn.Affine(d, config.action_count, rng, "dt.head", gain=0.01, dtype=dtype)
        self.obs_scale = config.obs_norm()

    def params(self) -> list[nn.Param]:
        out = (
            self.embed_t.params() + self.embed_r.params() + self.embed_o.params() + self.embed_a.params()
        )
        for block in self.blocks:
            out += block.params()
        return out + self.ln_f.params() + self.head.params()

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.value for p in self.params()}


def embed_tokens(model: DtModel, t: np.ndarray, o: np.ndarray, r: np.ndarray, a: np.ndarray) -> tuple:
    """Interleaved (return, observation, action) tokens of a batch of windows, and their cache.

    ``t`` (B, n) timesteps, ``o`` (B, n, obs_dim) raw observations and ``r``
    (B, n) returns cover n timesteps; ``a`` (B, m, action_count) holds the
    one-hot actions of the first m of them.  m = n gives the 3n tokens of
    complete segments (training); m = n - 1 leaves the newest action pending
    and gives the 3n-1 tokens of a decision.  Result: (B, 2n + m, D) tokens and the embeddings' caches.
    """
    dtype = model.head.w.value.dtype
    B, n = t.shape
    m = a.shape[1]
    if m not in (n - 1, n):
        raise DtError(f"{m} actions for {n} timesteps; expected {n - 1} or {n}")
    t_emb, ct = model.embed_t.forward(t)
    r_emb, cr = model.embed_r.forward(r[..., None].astype(dtype))
    o_emb, co = model.embed_o.forward((o / model.obs_scale).astype(dtype))
    a_emb, ca = model.embed_a.forward(a.astype(dtype))
    tokens = np.empty((B, 2 * n + m, model.config.embed_dim), dtype=dtype)
    tokens[:, 0::3] = r_emb + t_emb
    tokens[:, 1::3] = o_emb + t_emb
    tokens[:, 2::3] = a_emb + t_emb[:, :m]
    return tokens, (ct, cr, co, ca)


def tokenize_window(window: TrajectoryWindow, model: DtModel) -> np.ndarray:
    """Embed one window into its (n_tokens, D) token run (see ``embed_tokens``).

    A pending newest action contributes no token, giving 3n-1 tokens for n
    timesteps at decision time and 3n for complete segments.
    """
    window.validate()
    complete = [a for a in window.actions if a is not None]
    return embed_tokens(
        model,
        np.asarray(window.timesteps, dtype=np.int64)[None],
        np.asarray(window.observations, dtype=np.float64)[None],
        np.asarray(window.returns, dtype=np.float64)[None],
        np.eye(model.config.action_count)[complete][None],
    )[0][0]


def dt_forward(
    model: DtModel,
    tokens: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Action logits per timestep, read at each observation-token position.

    ``tokens`` is (n_tokens, D) or (batch, n_tokens, D) with n_tokens of the
    form 3m or 3m-1.
    """
    squeezed = tokens.ndim == 2
    logits = _forward(model, tokens[None] if squeezed else tokens, train, rng, {})
    return logits[0] if squeezed else logits


def _forward(model: DtModel, x: np.ndarray, train: bool, rng, caches: dict) -> np.ndarray:
    """Logits at the observation tokens of a (B, n_tokens, D) batch; layer caches go into ``caches``.

    Its slots are the block index, "ln_f" and "head".  A dict reused across training steps drops
    each old cache only as its replacement is stored, so memory is reused block by block."""
    if x.shape[1] % 3 == 1:
        raise DtError(f"token count {x.shape[1]} is neither 3m nor 3m-1")
    for i, block in enumerate(model.blocks):
        x, caches[i] = block.forward(x, train, rng)
    x, caches["ln_f"] = model.ln_f.forward(x)
    logits, caches["head"] = model.head.forward(x[:, 1::3, :])
    return logits


def decide(model: DtModel, window: TrajectoryWindow) -> int:
    """Greedy action for the newest timestep; ties resolve to the lower level."""
    tokens = tokenize_window(window, model)
    logits = dt_forward(model, tokens, train=False)
    return int(np.argmax(logits[-1]))


@dataclass
class DtTrainConfig:
    steps: int = 1500
    batch_size: int = 128
    lr0: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    # Optional early stop: check teacher-forced accuracy on the training
    # trajectories every check_every steps, stop at target_accuracy.
    target_accuracy: float | None = None
    check_every: int = 200


@dataclass
class DtTrainHistory:
    losses: list[float]
    accuracy_checks: list[tuple[int, float]]
    steps_run: int


def _segment_arrays(trajectories: Sequence[Trajectory], K: int):
    index = []
    for i, traj in enumerate(trajectories):
        if len(traj) < K:
            raise DtError(f"trajectory {traj.trace_tag!r} shorter than context_len {K}")
        for s in range(len(traj) - K + 1):
            index.append((i, s))
    return index


def _gather_batch(trajectories, index, picks, K):
    t = np.empty((len(picks), K), dtype=np.int64)
    obs_dim = trajectories[0].observations.shape[1]
    n_act = trajectories[0].actions.shape[1]
    o = np.empty((len(picks), K, obs_dim))
    r = np.empty((len(picks), K))
    a = np.empty((len(picks), K, n_act))
    for row, pick in enumerate(picks):
        ti, s = index[pick]
        traj = trajectories[ti]
        sl = slice(s, s + K)
        t[row] = traj.timesteps[sl]
        o[row] = traj.observations[sl]
        r[row] = traj.returns[sl]
        a[row] = traj.actions[sl]
    return t, o, r, a


def _loss_and_grads(
    model: DtModel,
    t: np.ndarray,
    o: np.ndarray,
    r: np.ndarray,
    a: np.ndarray,
    train: bool,
    rng: np.random.Generator | None,
    caches: dict | None = None,
) -> float:
    """Cross-entropy over every timestep of the segment batch, with backward; ``caches`` as in ``_forward``."""
    caches = {} if caches is None else caches
    cfg = model.config
    dtype = model.head.w.value.dtype
    B, K = t.shape
    tokens, (ct, cr, co, ca) = embed_tokens(model, t, o, r, a)
    logits = _forward(model, tokens, train, rng, caches)
    loss, dlogits = nn.cross_entropy(
        logits.reshape(B * K, cfg.action_count), a.reshape(B * K, cfg.action_count).astype(dtype)
    )
    dx = np.zeros_like(tokens)
    dx[:, 1::3, :] = model.head.backward(caches["head"], dlogits.reshape(B, K, cfg.action_count))
    dx = model.ln_f.backward(caches["ln_f"], dx)
    for i in reversed(range(len(model.blocks))):
        dx = model.blocks[i].backward(caches[i], dx)
    dr_tok, do_tok, da_tok = dx[:, 0::3], dx[:, 1::3], dx[:, 2::3]
    model.embed_r.backward(cr, dr_tok)
    model.embed_o.backward(co, do_tok)
    model.embed_a.backward(ca, da_tok)
    model.embed_t.backward(ct, dr_tok + do_tok + da_tok)
    return loss


def train_dt(
    trajectories: Sequence[Trajectory],
    config: DtConfig = DtConfig(),
    hyper: DtTrainConfig = DtTrainConfig(),
) -> tuple[DtModel, DtTrainHistory]:
    """Train on uniformly sampled K-length segments of expert trajectories."""
    if len(trajectories) == 0:
        raise DtError("no trajectories")
    if trajectories[0].observations.shape[1] != config.obs_dim:
        raise DtError(
            f"trajectory obs dim {trajectories[0].observations.shape[1]} != config.obs_dim {config.obs_dim}"
        )
    if trajectories[0].actions.shape[1] != config.action_count:
        raise DtError("trajectory action width != config.action_count")
    index = _segment_arrays(trajectories, config.context_len)
    rng = np.random.default_rng(hyper.seed)
    model = DtModel(config, seed=hyper.seed)
    opt = nn.AdamW(model.params(), lr=hyper.lr0, weight_decay=hyper.weight_decay)
    caches: dict = {}  # one slot per layer, reused across steps
    losses: list[float] = []
    checks: list[tuple[int, float]] = []
    steps_run = 0
    for step in range(hyper.steps):
        picks = rng.integers(0, len(index), size=hyper.batch_size)
        t, o, r, a = _gather_batch(trajectories, index, picks, config.context_len)
        opt.zero_grad()
        loss = _loss_and_grads(model, t, o, r, a, train=True, rng=rng, caches=caches)
        if not np.isfinite(loss):
            raise DtError(f"training diverged at step {step}: loss={loss}")
        opt.lr = nn.cosine_lr(step, hyper.steps, hyper.lr0)
        opt.step()
        losses.append(loss)
        steps_run = step + 1
        if hyper.target_accuracy is not None and steps_run % hyper.check_every == 0:
            acc = next_action_accuracy(model, trajectories)
            checks.append((steps_run, acc))
            if acc >= hyper.target_accuracy:
                break
    return model, DtTrainHistory(losses=losses, accuracy_checks=checks, steps_run=steps_run)


def next_action_accuracy(model: DtModel, trajectories: Sequence[Trajectory]) -> float:
    """Teacher-forced argmax agreement with the expert action at every step."""
    hits = 0
    total = 0
    K = model.config.context_len
    for traj in trajectories:
        window = start_window(traj.observations[0], traj.returns[0], int(traj.timesteps[0]), K)
        for t in range(len(traj)):
            expert_action = int(np.argmax(traj.actions[t]))
            hits += int(decide(model, window) == expert_action)
            total += 1
            if t + 1 < len(traj):
                window = update_window(
                    window, expert_action, traj.observations[t + 1], traj.returns[t + 1]
                )
    return hits / total


def save_dt(model: DtModel, path: str | Path, ladder_kbps: Sequence[float] | None = None) -> None:
    meta = {"kind": "dt_policy", "config": asdict(model.config)}
    if ladder_kbps is not None:
        meta["ladder_kbps"] = list(ladder_kbps)
    nn.save_checkpoint(path, model.named_arrays(), meta)


def load_dt(path: str | Path) -> DtModel:
    return from_checkpoint(*nn.load_checkpoint(path))


def from_checkpoint(arrays: dict[str, np.ndarray], meta: dict) -> DtModel:
    """Rebuild a model from the arrays and metadata of a loaded checkpoint."""
    if meta.get("kind") != "dt_policy":
        raise DtError(f"not a sequence-policy checkpoint: {meta.get('kind')}")
    model = DtModel(DtConfig(**meta["config"]))
    nn.restore_params(model.params(), arrays)
    return model


class DtPolicy:
    """Streaming policy: maintains the windows, estimates QoE-to-go, decides.

    ``decide_batch`` serves every session of a lock-step run at once: the
    windows live in (B, K, ...) arrays, the estimator runs once on a (B, 4)
    feature matrix and the model once on a (B, 3n-1, D) token batch.  A
    plain call is the one-session case.  The session's measured-throughput
    history (``state.measured_mbps``) feeds the estimator through the same
    window statistics used when building expert trajectories.
    """

    def __init__(
        self,
        model: DtModel,
        estimator_model: "est.EstimatorModel",
        stats_window: int = 4,
    ) -> None:
        self.model = model
        self.estimator_model = estimator_model
        self.stats_window = stats_window
        self.reset()

    def reset(self) -> None:
        self._n = 0  # timesteps held in every window; the arrays are sized on the next call

    def __call__(self, state: SessionState, obs: Observation) -> int:
        return self.decide_batch([state], [obs])[0]

    def decide_batch(self, states: Sequence[SessionState], observations: Sequence[Observation]) -> list[int]:
        """Levels for sessions in lock step: one more timestep in every window."""
        K = self.model.config.context_len
        B = len(states)
        stats = est.throughput_stats([throughput_history(s.measured_mbps) for s in states], self.stats_window)
        feats = est.features(
            stats, np.array([o.buffer_s for o in observations]), np.array([o.remaining_frac for o in observations])
        )
        r_hat = est.estimate_batch(self.estimator_model, feats)
        obs = np.stack([o.vector() for o in observations])
        if self._n == 0:
            self._t = np.zeros((B, K), dtype=np.int64)
            self._o = np.zeros((B, K, obs.shape[1]))
            self._r = np.zeros((B, K))
            self._a = np.zeros((B, K), dtype=np.int64)
            self._t[:, 0] = [s.next_chunk for s in states]
        elif B != len(self._t):
            raise DtError(f"batch of {B} sessions; the windows hold {len(self._t)}")
        elif self._n == K:  # evict the oldest timestep
            for arr in (self._t, self._o, self._r, self._a):
                arr[:, :-1] = arr[:, 1:]
            self._t[:, -1] += 1
        else:
            self._t[:, self._n] = self._t[:, self._n - 1] + 1
        self._n = n = min(self._n + 1, K)
        self._o[:, n - 1] = obs
        self._r[:, n - 1] = r_hat
        onehot = np.eye(self.model.config.action_count)[self._a[:, : n - 1]]
        tokens, _ = embed_tokens(self.model, self._t[:, :n], self._o[:, :n], self._r[:, :n], onehot)
        levels = np.argmax(dt_forward(self.model, tokens)[:, -1], axis=-1)
        self._a[:, n - 1] = levels
        return [int(level) for level in levels]
