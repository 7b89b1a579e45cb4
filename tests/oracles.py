"""Independent oracles shared by the unit and acceptance suites.

The brute-force planner enumerates every action sequence with its own scalar
fluid download (walking the looped trace segment by segment) and its own
buffer update; it shares no code with the simulator's transition or
bandwidth profile, nor with the dynamic program it checks.  The
aligned-instance generator produces manifests/traces whose download times,
buffers, and wall clocks always land exactly on the planner's quantization
grid, so planner totals must match enumeration to float round-off.  The flat
robust-MPC rollout replays every level sequence of the horizon in full, with
its own buffer update, as the reference for the prefix-tree search, and the
robust-MPC forecast takes one harmonic mean per past window, in a loop.
The buffer- and rate-based levels walk the ladder one entry at a time.  The
pairwise dominance check is the reference for the planner's grid prune.
The reference sequence-model forward rebuilds the interleaved tokens from
the raw window and runs every token through every block in float64, one
query position at a time; it reads only the model's parameter arrays and
config, never the ``nn`` or ``dt`` forward code.  The mean-based layer norm is
the reference, bit for bit, for ``nn.LayerNorm.forward``'s ufunc reductions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from abrlab import qoe, sim, traces


def fluid_download_s(trace, wall_s: float, size_bits: float, link_efficiency: float = 1.0) -> float:
    """Seconds to deliver ``size_bits`` starting at ``wall_s`` on the looped trace.

    Segment j runs from times[j] to times[j+1] at throughput[j]; the last
    sample only closes the final segment, after which the trace restarts.
    """
    times = [float(x) for x in trace.times_s]
    rates = [float(x) * 1e6 * link_efficiency for x in trace.throughput_mbps]
    tau = wall_s % times[-1]
    j = 0
    while times[j + 1] <= tau:
        j += 1
    elapsed, left = 0.0, size_bits
    while True:
        deliverable = rates[j] * (times[j + 1] - tau)
        if deliverable >= left:
            return elapsed + left / rates[j]
        left -= deliverable
        elapsed += times[j + 1] - tau
        j += 1
        if j == len(times) - 1:
            j = 0
        tau = times[j]


def brute_force_plan(manifest, trace, params=None, sim_config=None):
    """(best_total, best_actions) over all ladder^T sequences, by exhaustive replay."""
    params = params or qoe.QoeParams()
    sim_config = sim_config or sim.SimConfig()
    cap = sim_config.buffer_cap_s
    n_lv = len(manifest.ladder)
    T = manifest.chunk_count
    best = [-np.inf, None]

    def recurse(t, wall, buffer, prev_kbps, total, actions):
        if t == T:
            if total > best[0]:
                best[0] = total
                best[1] = actions
            return
        for level in range(n_lv):
            d = fluid_download_s(trace, wall, manifest.chunk_bits(t, level), sim_config.link_efficiency)
            # the first chunk's wait is startup delay, not rebuffering
            rebuffer = 0.0 if t == 0 else max(d - buffer, 0.0)
            landed = max(buffer - d, 0.0) + manifest.chunk_duration_s
            sleep = max(landed - cap, 0.0)
            kbps = manifest.ladder[level]
            recurse(
                t + 1,
                wall + d + sleep,
                landed - sleep,
                kbps,
                total + qoe.chunk_qoe(kbps, prev_kbps, rebuffer, params),
                actions + [level],
            )

    recurse(0, 0.0, 0.0, qoe.FIRST_CHUNK, 0.0, [])
    return best[0], best[1]


def flat_mpc_first_level(state, manifest, forecast_mbps, horizon, params, sim_config) -> int:
    """Robust-MPC first level by replaying all n^H level sequences of the horizon.

    Sequences enumerate in ascending lexicographic order and the first
    maximum wins, so ties resolve toward lower bitrates.
    """
    t0 = state.next_chunk
    H = min(horizon, manifest.chunk_count - t0)
    seqs = np.array(list(itertools.product(range(len(manifest.ladder)), repeat=H)), dtype=np.int64)
    q_lv = params.quality_scale * np.asarray(manifest.ladder.levels)
    rate_bits = forecast_mbps * 1e6
    buffer = np.full(len(seqs), state.buffer_s)
    value = np.zeros(len(seqs))
    q_prev = None if state.last_level is None else q_lv[state.last_level]
    for i in range(H):
        t = t0 + i
        lv = seqs[:, i]
        d = manifest.chunk_sizes_bytes[t, lv] * 8.0 / rate_bits
        # the first chunk's wait is startup delay, not rebuffering
        rebuffer = 0.0 if t == 0 else np.maximum(d - buffer, 0.0)
        buffer = np.minimum(np.maximum(buffer - d, 0.0) + manifest.chunk_duration_s, sim_config.buffer_cap_s)
        q = q_lv[lv]
        smooth = 0.0 if q_prev is None else np.abs(q - q_prev)
        value += q - params.rebuffer_penalty * rebuffer - params.smooth_penalty * smooth
        q_prev = q
    return int(seqs[int(np.argmax(value)), 0])


def bb_level(buffer_s: float, ladder, reservoir_s: float, cushion_s: float) -> int:
    """Buffer-based level of one buffer, walking the ladder."""
    if buffer_s < reservoir_s:
        return 0
    if buffer_s > reservoir_s + cushion_s:
        return len(ladder) - 1
    frac = (buffer_s - reservoir_s) / cushion_s
    target = ladder[0] + frac * (ladder[len(ladder) - 1] - ladder[0])
    level = 0
    for i in range(len(ladder)):
        if ladder[i] <= target:
            level = i
    return level


def rb_level(predicted_mbps: float, ladder) -> int:
    """Rate-based level of one prediction, walking the ladder."""
    level = 0
    for i in range(len(ladder)):
        if ladder[i] <= predicted_mbps * 1000.0:
            level = i
    return level


def mpc_forecast(history, pred_window: int, error_window: int) -> float:
    """Robust-MPC forecast of one history: one harmonic mean per past window, in a loop."""
    h = np.asarray(history, dtype=np.float64)

    def harmonic(v):
        return len(v) / np.sum(1.0 / v)

    n = len(h)
    worst = 0.0
    for k in range(max(1, n - error_window), n):
        worst = max(worst, abs(harmonic(h[max(0, k - pred_window):k]) - h[k]) / h[k])
    return harmonic(h[-pred_window:]) / (1.0 + worst)


@dataclass
class AlignedInstance:
    manifest: qoe.VideoManifest
    trace: traces.NetworkTrace
    quantum_s: float
    bw_ratio: float


def make_aligned_instance(rng: np.random.Generator, quantum_s: float = 0.25) -> AlignedInstance:
    """Instance whose dynamics stay exactly on the quantization grid.

    Bandwidths are p*u and u bits/s with u = 8e5 and chunk sizes
    u*quantum*p*k bits (integral bytes), so every download time is an exact
    multiple of the quantum in either segment and across the boundary; the
    chunk duration and segment boundary are grid multiples too, and the trace
    is long enough that no session wraps it.
    """
    unit_bps = 8e5
    p = int(rng.integers(1, 5))
    T = int(rng.integers(2, 7))
    n_lv = int(rng.integers(2, 4))
    k = np.sort(rng.integers(1, 13, size=(T, n_lv)), axis=1)
    k = np.maximum.accumulate(k, axis=1)
    sizes_bytes = unit_bps * quantum_s * p * k / 8.0
    ladder = qoe.BitrateLadder(tuple(300.0 * (i + 1) for i in range(n_lv)))
    manifest = qoe.VideoManifest(T, 4.0, ladder, sizes_bytes)

    two_segment = bool(rng.integers(0, 2)) and p > 1
    horizon = 10.0 * T * float(k.max()) * quantum_s * p + 100.0
    if two_segment:
        boundary = float(rng.integers(4, 33)) * quantum_s
        times = [0.0, boundary, horizon]
        bws = [p * unit_bps / 1e6, unit_bps / 1e6, unit_bps / 1e6]
    else:
        times = [0.0, horizon]
        bws = [p * unit_bps / 1e6, p * unit_bps / 1e6]
    trace = traces.NetworkTrace(np.asarray(times), np.asarray(bws), source_tag="aligned")
    return AlignedInstance(manifest=manifest, trace=trace, quantum_s=quantum_s, bw_ratio=float(p))


def make_nonaligned_instance(rng: np.random.Generator) -> AlignedInstance:
    """Small instance with arbitrary float sizes and a 2-segment trace."""
    T = int(rng.integers(2, 6))
    n_lv = int(rng.integers(2, 4))
    base = rng.uniform(100.0, 900.0, size=n_lv)
    ladder = qoe.BitrateLadder(tuple(np.sort(300.0 * np.arange(1, n_lv + 1) + rng.uniform(0, 50, n_lv))))
    sizes = np.sort(rng.uniform(3e4, 6e5, size=(T, n_lv)), axis=1)
    manifest = qoe.VideoManifest(T, 4.0, ladder, sizes)
    bw1 = rng.uniform(0.3, 2.0)
    ratio = rng.uniform(0.25, 4.0)
    bw2 = bw1 * ratio
    boundary = rng.uniform(2.0, 15.0)
    horizon = 4000.0
    trace = traces.NetworkTrace(
        np.asarray([0.0, boundary, horizon]),
        np.asarray([bw1, bw2, bw2]),
        source_tag="nonaligned",
    )
    return AlignedInstance(
        manifest=manifest, trace=trace, quantum_s=0.25, bw_ratio=float(max(ratio, 1.0 / ratio))
    )


def discretization_bound(instance: AlignedInstance, params: qoe.QoeParams, dp_config) -> float:
    """Worst-case planner value error from buffer/time re-quantization.

    Per chunk the representative buffer is off by at most half a buffer
    quantum and the representative start time by half a time quantum; a start
    shift of delta changes the download time by at most delta*(1 + ratio)
    where ratio bounds the bandwidth ratio across the trace.  Both feed the
    rebuffer term; the smoothness and utility terms are exact.
    """
    per_chunk = params.rebuffer_penalty * (
        dp_config.buffer_quantum_s / 2.0
        + dp_config.time_quantum_s / 2.0 * (1.0 + instance.bw_ratio)
    )
    return instance.manifest.chunk_count * per_chunk + 1e-9


def strictly_dominated(tq, bq, lv, val):
    """Pairwise check: another state of the same level has time <=, buffer >= and value >.

    The planner's dominance rule, by plain O(n^2) comparison of Python numbers.
    """
    points = list(zip(tq.tolist(), bq.tolist(), lv.tolist(), val.tolist()))
    return np.array(
        [
            any(l2 == l1 and t2 <= t1 and b2 >= b1 and v2 > v1 for t2, b2, l2, v2 in points)
            for t1, b1, l1, v1 in points
        ],
        dtype=bool,
    )


def reference_dt_logits(arrays: dict, config, timesteps, observations, returns, levels) -> np.ndarray:
    """Float64 action logits (B, n, actions) at the observation token of every timestep.

    ``arrays`` maps parameter names to values; ``timesteps`` (B, n), ``observations``
    (B, n, obs_dim) and ``returns`` (B, n) cover n timesteps, and ``levels`` (B, m) the
    actions of the first m = n - 1 or n of them.  Tokens are (return, observation,
    action) per timestep, each plus its timestep embedding.
    """
    P = {name: np.asarray(value, dtype=np.float64) for name, value in arrays.items()}
    obs_scale = np.array(
        [config.buffer_norm_s, config.throughput_norm_mbps, config.download_norm_s]
        + [config.size_norm_bytes] * (config.obs_dim - 4)
        + [1.0]
    )

    def affine(x, name):
        return x @ P[f"{name}.w"] + P[f"{name}.b"]

    def layer_norm(x, name):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * P[f"{name}.g"] + P[f"{name}.b"]

    def attention(x, name):
        B, T, D = x.shape
        hd = D // config.heads
        q, k, v = (affine(x, f"{name}.{w}") for w in "qkv")
        out = np.zeros_like(x)
        for h in range(config.heads):
            cols = slice(h * hd, (h + 1) * hd)
            for i in range(T):  # position i sees positions 0..i
                scores = np.einsum("bd,bjd->bj", q[:, i, cols], k[:, : i + 1, cols]) / np.sqrt(hd)
                weights = np.exp(scores - scores.max(axis=1, keepdims=True))
                weights /= weights.sum(axis=1, keepdims=True)
                out[:, i, cols] = np.einsum("bj,bjd->bd", weights, v[:, : i + 1, cols])
        return affine(out, f"{name}.o")

    t_emb = P["dt.embed_t.table"][np.asarray(timesteps)]
    onehot = np.eye(config.action_count)[np.asarray(levels, dtype=np.int64)]
    tokens = []
    for i in range(t_emb.shape[1]):
        tokens.append(affine(np.asarray(returns, dtype=np.float64)[:, i, None], "dt.embed_r") + t_emb[:, i])
        tokens.append(affine(np.asarray(observations)[:, i] / obs_scale, "dt.embed_o") + t_emb[:, i])
        if i < onehot.shape[1]:
            tokens.append(affine(onehot[:, i], "dt.embed_a") + t_emb[:, i])
    x = np.stack(tokens, axis=1)
    for b in range(config.blocks):
        name = f"dt.block{b}"
        x = x + attention(layer_norm(x, f"{name}.ln1"), f"{name}.attn")
        hidden = np.maximum(affine(layer_norm(x, f"{name}.ln2"), f"{name}.fc1"), 0.0)
        x = x + affine(hidden, f"{name}.fc2")
    return affine(layer_norm(x, "dt.ln_f"), "dt.head")[:, 1::3]


def mean_layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Layer norm over the trailing axis written with ``ndarray.mean``: (y, inv_std)."""
    xc = x - x.mean(axis=-1, keepdims=True)
    xc -= xc.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(np.square(xc).mean(axis=-1, keepdims=True) + eps)
    return xc * inv_std * g + b, inv_std


def parse_cooked_lines(text: str) -> traces.NetworkTrace:
    """Line-by-line cooked-trace parse, times re-based to 0; ``TraceParseError`` at the first bad line."""
    times: list[float] = []
    tputs: list[float] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise traces.TraceParseError(line_no, f"expected 2 fields, got {len(fields)}")
        try:
            t, bw = float(fields[0]), float(fields[1])
        except ValueError:
            raise traces.TraceParseError(line_no, f"non-numeric field in {line!r}") from None
        if times and t <= times[-1]:
            raise traces.TraceParseError(line_no, f"time {t} not greater than previous {times[-1]}")
        times.append(t)
        tputs.append(bw)
    if len(times) < 2:
        raise traces.TraceError("a trace needs at least 2 points")
    return traces.NetworkTrace(np.asarray(times) - times[0], np.asarray(tputs))
