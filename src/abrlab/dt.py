"""Causal sequence-model policy over (return, observation, action) triples.

Each timestep contributes three tokens in the order (QoE-to-go estimate,
observation, action); every token carries a learned embedding of its
absolute timestep.  Action logits for timestep t are read from the hidden
state at the observation token, which under the causal mask has seen exactly
the 3t-1 tokens preceding the pending action.  At decision time a
``TrajectoryWindow`` holds the last K timesteps of B sessions as (B, n)
arrays with the newest action pending (3K-1 tokens once the window is
full); early in a session the window simply holds fewer timesteps rather
than padded placeholders.  The same window serves the lock-step policy, the
HTTP service (B = 1) and teacher-forced accuracy.  ``embed_tokens`` builds
this layout once, for training segments and decision windows alike.  One
model forward, which keeps no state on the model, serves training and
decisions; its last block computes only the tokens whose logits are read.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from . import estimator as est
from .expert import Trajectory
from .sim import Observation, SessionState


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


@dataclass(frozen=True)
class TrajectoryWindow:
    """Decision context of B sessions: each row's last n <= K timesteps, newest action pending.

    ``timesteps`` (B, n) int64, consecutive in each row; ``observations``
    (B, n, obs_dim) raw vectors; ``returns`` (B, n) QoE-to-go estimates;
    ``actions`` (B, n-1) levels executed at the first n-1 timesteps.  Dtypes
    are coerced and shapes and timesteps checked once, when a window is built.
    """

    context_len: int
    timesteps: np.ndarray
    observations: np.ndarray
    returns: np.ndarray
    actions: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.timesteps, dtype=np.int64)
        o = np.asarray(self.observations, dtype=np.float64)
        r = np.asarray(self.returns, dtype=np.float64)
        a = np.asarray(self.actions, dtype=np.int64)
        if t.ndim != 2 or not 1 <= t.shape[1] <= self.context_len:
            raise DtError(f"window timesteps of shape {t.shape}; expected (B, 1..{self.context_len})")
        B, n = t.shape
        if o.ndim != 3 or o.shape[:2] != (B, n) or r.shape != (B, n) or a.shape != (B, n - 1):
            raise DtError(f"window arrays {o.shape}, {r.shape}, {a.shape} do not fit timesteps {t.shape}")
        if np.any(np.diff(t, axis=1) != 1):
            raise DtError("timestep gap within a window")
        for name, value in (("timesteps", t), ("observations", o), ("returns", r), ("actions", a)):
            object.__setattr__(self, name, value)


def start_window(
    observations: np.ndarray, returns: np.ndarray, timesteps: Sequence[int], context_len: int
) -> TrajectoryWindow:
    """Session-start windows: one timestep per session, its action pending.

    ``observations`` (B, obs_dim), ``returns`` (B,) and ``timesteps`` (B,).
    """
    return TrajectoryWindow(
        context_len,
        np.asarray(timesteps)[:, None],
        np.asarray(observations)[:, None],
        np.asarray(returns)[:, None],
        np.empty((len(timesteps), 0)),
    )


def update_window(
    window: TrajectoryWindow,
    executed_actions: Sequence[int],
    new_observations: np.ndarray,
    new_returns: np.ndarray,
) -> TrajectoryWindow:
    """Complete each pending action and append the next (return, observation) pair.

    Every argument has one row per session of ``window``; the oldest
    timestep drops out once a row would exceed K.
    """
    B = len(window.timesteps)
    if not len(executed_actions) == len(new_observations) == len(new_returns) == B:
        raise DtError(f"batch of {len(new_observations)} sessions; the window holds {B}")
    drop = max(window.timesteps.shape[1] + 1 - window.context_len, 0)

    def slide(old: np.ndarray, new) -> np.ndarray:
        return np.concatenate((old, np.asarray(new)[:, None]), axis=1)[:, drop:]

    return TrajectoryWindow(
        window.context_len,
        slide(window.timesteps, window.timesteps[:, -1] + 1),
        slide(window.observations, new_observations),
        slide(window.returns, new_returns),
        slide(window.actions, executed_actions),
    )


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
    """The (B, 3n-1, D) decision tokens of a window (see ``embed_tokens``)."""
    onehot = np.eye(model.config.action_count)[window.actions]
    return embed_tokens(model, window.timesteps, window.observations, window.returns, onehot)[0]


def dt_forward(
    model: DtModel,
    tokens: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Action logits (B, m, action_count), read at each observation-token position.

    ``tokens`` is (B, n_tokens, D) with n_tokens of the form 3m or 3m-1.
    """
    return _forward(model, tokens, train, rng, {})


def _forward(
    model: DtModel, x: np.ndarray, train: bool, rng, caches: dict, rows: slice = slice(1, None, 3)
) -> np.ndarray:
    """Logits at the ``rows`` tokens of a (B, n_tokens, D) batch; layer caches go into ``caches``.

    ``rows`` selects observation tokens: all of them (training, ``dt_forward``) or the newest
    (``decide``).  Only the last block, ``ln_f`` and the head run at ``rows`` alone; earlier
    blocks feed every token's keys and values.  The cache slots are the block index, "ln_f" and
    "head".  A dict reused across training steps drops each old cache only as its replacement is
    stored, so memory is reused block by block."""
    if x.ndim != 3 or x.shape[1] % 3 == 1:
        raise DtError(f"tokens of shape {x.shape}; expected (B, n_tokens, D) with n_tokens 3m or 3m-1")
    last = len(model.blocks) - 1
    for i, block in enumerate(model.blocks):
        x, caches[i] = block.forward(x, train, rng, rows if i == last else None)
    x, caches["ln_f"] = model.ln_f.forward(x)
    logits, caches["head"] = model.head.forward(x)
    return logits


def decide(model: DtModel, window: TrajectoryWindow) -> np.ndarray:
    """Greedy (B,) levels for the newest timestep of each row; ties resolve to the lower level."""
    # The newest token of a window is the observation token of its pending action.
    logits = _forward(model, tokenize_window(window, model), False, None, {}, slice(-1, None))
    return np.argmax(logits[:, 0], axis=-1)


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

    def __post_init__(self) -> None:
        for name in ("steps", "batch_size", "check_every"):
            if getattr(self, name) < 1:
                raise DtError(f"{name} must be >= 1, got {getattr(self, name)}")


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


def _gather_batch(trajectories, index, picks, length):
    """Segments of ``length`` timesteps starting at ``index[pick]`` = (trajectory, start)."""
    t = np.empty((len(picks), length), dtype=np.int64)
    obs_dim = trajectories[0].observations.shape[1]
    n_act = trajectories[0].actions.shape[1]
    o = np.empty((len(picks), length, obs_dim))
    r = np.empty((len(picks), length))
    a = np.empty((len(picks), length, n_act))
    for row, pick in enumerate(picks):
        ti, s = index[pick]
        traj = trajectories[ti]
        sl = slice(s, s + length)
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
    lane: ThreadPoolExecutor | None = None,
) -> float:
    """Cross-entropy over every timestep of the segment batch, with backward; ``caches`` as in ``_forward``.

    The backward runs the ``dx`` chain on the calling thread and, given a ``lane``, every
    parameter-gradient accumulation on that one helper thread, in the order the layers hand
    them over; without one, they run inline.  ``train_dt`` passes one lane for all its steps.
    Every lane task of the step has finished before it returns or raises, so every
    ``Param.grad`` is complete and a lane exception is raised here."""
    caches = {} if caches is None else caches
    cfg = model.config
    dtype = model.head.w.value.dtype
    B, K = t.shape
    tokens, (ct, cr, co, ca) = embed_tokens(model, t, o, r, a)
    logits = _forward(model, tokens, train, rng, caches)
    loss, dlogits = nn.cross_entropy(
        logits.reshape(B * K, cfg.action_count), a.reshape(B * K, cfg.action_count).astype(dtype)
    )
    futures: list[Future] = []
    defer = None if lane is None else lambda grads: futures.append(lane.submit(grads))
    try:
        dx = model.head.backward(caches["head"], dlogits.reshape(B, K, cfg.action_count), defer)
        dx = model.ln_f.backward(caches["ln_f"], dx, defer)
        for i in reversed(range(len(model.blocks))):
            dx = model.blocks[i].backward(caches[i], dx, defer)
        dr_tok, do_tok, da_tok = dx[:, 0::3], dx[:, 1::3], dx[:, 2::3]
        model.embed_r.backward(cr, dr_tok, defer)
        model.embed_o.backward(co, do_tok, defer)
        model.embed_a.backward(ca, da_tok, defer)
        model.embed_t.backward(ct, dr_tok + do_tok + da_tok, defer)
    finally:
        wait(futures)
    for done in futures:
        done.result()
    return loss


def _grad_lane() -> ThreadPoolExecutor:
    """The one helper thread that parameter-gradient accumulations run on."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="dt-grad-lane")


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
    with _grad_lane() as lane:  # one lane for the run, shut down however it ends
        for step in range(hyper.steps):
            picks = rng.integers(0, len(index), size=hyper.batch_size)
            t, o, r, a = _gather_batch(trajectories, index, picks, config.context_len)
            opt.zero_grad()
            loss = _loss_and_grads(model, t, o, r, a, train=True, rng=rng, caches=caches, lane=lane)
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
    """Teacher-forced argmax agreement with the expert action at every step.

    The decision window at step t holds the expert's steps max(0, t-K+1)..t,
    gathered like a training segment with its last action dropped; one
    ``decide`` call covers step t of every trajectory that long.
    """
    K = model.config.context_len
    hits = 0
    for t in range(max(len(traj) for traj in trajectories)):
        n = min(t + 1, K)
        index = [(i, t + 1 - n) for i, traj in enumerate(trajectories) if len(traj) > t]
        steps, o, r, a = _gather_batch(trajectories, index, range(len(index)), n)
        levels = np.argmax(a, axis=-1)
        window = TrajectoryWindow(K, steps, o, r, levels[:, :-1])
        hits += int(np.sum(decide(model, window) == levels[:, -1]))
    return hits / sum(len(traj) for traj in trajectories)


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
    unknown = sorted(set(meta["config"]) - {f.name for f in fields(DtConfig)})
    if unknown:
        raise DtError(f"checkpoint config has fields this version does not know: {unknown}")
    model = DtModel(DtConfig(**meta["config"]))
    nn.restore_params(model.params(), arrays)
    return model


class DtPolicy:
    """Streaming policy: maintains the windows, estimates QoE-to-go, decides.

    ``decide_batch`` serves every session of a lock-step run at once: it
    keeps one ``TrajectoryWindow`` of all sessions and their last levels, runs
    ``est.qoe_to_go`` once on all sessions and ``decide`` once.  Sessions at
    chunk 0 start fresh windows, so one instance serves run after run.  The
    session's measured-throughput history (``state.measured_mbps``) feeds the
    same estimate that expert trajectories carry as their returns.
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
        self._window = start_window(np.empty((0, model.config.obs_dim)), np.empty(0), [], model.config.context_len)
        self._levels = np.empty(0, dtype=np.int64)

    def decide_batch(self, states: Sequence[SessionState], observations: Sequence[Observation]) -> list[int]:
        """Levels for sessions in lock step: one more timestep in every window."""
        r_hat = est.qoe_to_go(
            self.estimator_model,
            [s.measured_mbps for s in states],
            [o.buffer_s for o in observations],
            [o.remaining_frac for o in observations],
            self.stats_window,
        )
        obs = np.stack([o.vector() for o in observations])
        if states[0].next_chunk == 0:
            self._window = start_window(obs, r_hat, [0] * len(states), self.model.config.context_len)
        else:
            self._window = update_window(self._window, self._levels, obs, r_hat)
        self._levels = decide(self.model, self._window)
        return self._levels.tolist()
