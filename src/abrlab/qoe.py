"""Shared video/ladder domain types and the per-chunk QoE arithmetic.

The per-chunk score combines three terms: a linear bitrate utility, a
rebuffering penalty, and a smoothness penalty on the utility change between
consecutive chunks.  For the first chunk of a session there is no
predecessor, so its smoothness term is zero by convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# Six-level ladder used by the default test video, kbps.
DEFAULT_LADDER_KBPS = (300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0)

# Sentinel for "no previous chunk": pass as r_prev for the first chunk.
FIRST_CHUNK = None


class QoeError(ValueError):
    """Invalid input to QoE arithmetic."""


@dataclass(frozen=True)
class BitrateLadder:
    """Ascending menu of available encoding bitrates, in kbps."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.levels) == 0:
            raise QoeError("bitrate ladder must be non-empty")
        if any(r <= 0 for r in self.levels):
            raise QoeError("bitrate ladder entries must be positive")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise QoeError("bitrate ladder must be strictly ascending")

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, level: int) -> float:
        return self.levels[level]

    @property
    def top(self) -> int:
        return len(self.levels) - 1


@dataclass(frozen=True)
class QoeParams:
    """Coefficients of the per-chunk QoE score.

    quality_scale maps kbps to utility; rebuffer_penalty is charged per
    stalled second; smooth_penalty multiplies the absolute utility change
    between consecutive chunks; qoe_to_go_scale shrinks cumulative
    remaining-session QoE into the return signal consumed by the sequence
    model.
    """

    quality_scale: float = 0.001
    rebuffer_penalty: float = 4.3
    smooth_penalty: float = 1.0
    qoe_to_go_scale: float = 0.01

    def __post_init__(self) -> None:
        for name in ("quality_scale", "rebuffer_penalty", "smooth_penalty", "qoe_to_go_scale"):
            if getattr(self, name) < 0:
                raise QoeError(f"{name} must be non-negative")


@dataclass
class VideoManifest:
    """Chunked video description: ladder plus per-chunk per-level sizes."""

    chunk_count: int
    chunk_duration_s: float
    ladder: BitrateLadder
    chunk_sizes_bytes: np.ndarray  # shape (chunk_count, len(ladder))

    def __post_init__(self) -> None:
        self.chunk_sizes_bytes = np.asarray(self.chunk_sizes_bytes, dtype=np.float64)
        if self.chunk_count < 1:
            raise QoeError("chunk_count must be >= 1")
        if self.chunk_duration_s <= 0:
            raise QoeError("chunk_duration_s must be positive")
        if self.chunk_sizes_bytes.shape != (self.chunk_count, len(self.ladder)):
            raise QoeError(
                f"chunk_sizes_bytes must have shape ({self.chunk_count}, {len(self.ladder)}), "
                f"got {self.chunk_sizes_bytes.shape}"
            )
        if np.any(self.chunk_sizes_bytes <= 0):
            raise QoeError("all chunk sizes must be positive")
        if np.any(np.diff(self.chunk_sizes_bytes, axis=1) < 0):
            raise QoeError("sizes within a chunk must be non-decreasing across ladder levels")

    def chunk_bits(self, chunk: int, level: int) -> float:
        return float(self.chunk_sizes_bytes[chunk, level]) * 8.0


@dataclass
class ChunkRecord:
    """Outcome of downloading one chunk at one ladder level."""

    chunk_index: int
    chosen_level: int
    bitrate_kbps: float
    rebuffer_s: float
    download_s: float
    throughput_mbps: float
    buffer_after_s: float
    qoe_value: float

    def __post_init__(self) -> None:
        if self.rebuffer_s < 0:
            raise QoeError("rebuffer_s must be non-negative")
        if self.download_s <= 0:
            raise QoeError("download_s must be positive")


@dataclass(frozen=True)
class SessionQoe:
    """Session totals: overall score, per-chunk mean, and component sums."""

    total: float
    mean: float
    utility: float
    rebuffer_penalty: float
    smoothness_penalty: float


def quality(r: float, params: QoeParams) -> float:
    """Bitrate utility of a chunk encoded at ``r`` kbps."""
    if r < 0:
        raise QoeError("bitrate must be non-negative")
    return params.quality_scale * r


def chunk_qoe(
    r_curr: float,
    r_prev: float | None,
    rebuffer_s: float,
    params: QoeParams,
) -> float:
    """Per-chunk QoE: utility minus rebuffer and smoothness penalties.

    ``r_prev`` is the previous chunk's bitrate, or ``FIRST_CHUNK`` (None) for
    the first chunk of a session, in which case the smoothness term is zero.
    """
    if rebuffer_s < 0:
        raise QoeError("rebuffer_s must be non-negative")
    q = quality(r_curr, params)
    smooth = 0.0 if r_prev is FIRST_CHUNK else abs(q - quality(r_prev, params))
    return q - params.rebuffer_penalty * rebuffer_s - params.smooth_penalty * smooth


def level_terms(ladder: BitrateLadder, params: QoeParams) -> tuple[np.ndarray, np.ndarray]:
    """The ladder's chunk-score terms: ``utility`` (n,) and the switch table ``switch`` (n + 1, n).

    Row 0 of ``switch`` is a session's first chunk and is all zeros; row p + 1
    holds the smoothness penalty of level l after level p.  A chunk at level l
    with ``rebuffer_s`` of stall scores ``utility[l] - rebuffer_penalty *
    rebuffer_s - switch[p + 1, l]``, bit for bit ``chunk_qoe``.
    """
    utility = params.quality_scale * np.asarray(ladder.levels)
    switch = np.zeros((len(utility) + 1, len(utility)))
    switch[1:] = params.smooth_penalty * np.abs(utility - utility[:, None])
    return utility, switch


def session_qoe(records: Sequence[ChunkRecord], params: QoeParams) -> SessionQoe:
    """Recompute session QoE and its component sums from chunk records.

    Records must cover chunks 0..T-1 contiguously; the smoothness chain is
    rebuilt from the recorded bitrates, with the first chunk exempt.
    """
    if len(records) == 0:
        raise QoeError("session_qoe requires at least one record")
    for i, rec in enumerate(records):
        if rec.chunk_index != i:
            raise QoeError(f"record {i} has chunk_index {rec.chunk_index}; indices must be contiguous from 0")
    total = 0.0
    util = 0.0
    rebuf = 0.0
    smooth = 0.0
    prev: float | None = FIRST_CHUNK
    for rec in records:
        q = quality(rec.bitrate_kbps, params)
        util += q
        rebuf += params.rebuffer_penalty * rec.rebuffer_s
        if prev is not FIRST_CHUNK:
            smooth += params.smooth_penalty * abs(q - quality(prev, params))
        total += chunk_qoe(rec.bitrate_kbps, prev, rec.rebuffer_s, params)
        prev = rec.bitrate_kbps
    return SessionQoe(
        total=total,
        mean=total / len(records),
        utility=util,
        rebuffer_penalty=rebuf,
        smoothness_penalty=smooth,
    )


def make_manifest(
    chunk_count: int = 48,
    chunk_duration_s: float = 4.0,
    ladder_kbps: Sequence[float] = DEFAULT_LADDER_KBPS,
    size_jitter: float = 0.0,
    seed: int = 0,
) -> VideoManifest:
    """Build a synthetic manifest with sizes derived from bitrate x duration.

    ``size_jitter`` adds seeded per-chunk and per-cell variation (fractional),
    with monotonicity across ladder levels restored afterwards.
    """
    ladder = BitrateLadder(tuple(float(r) for r in ladder_kbps))
    base = np.array([r * 1000.0 * chunk_duration_s / 8.0 for r in ladder.levels])
    sizes = np.tile(base, (chunk_count, 1))
    if size_jitter > 0:
        rng = np.random.default_rng(seed)
        per_chunk = 1.0 + size_jitter * rng.uniform(-1.0, 1.0, size=(chunk_count, 1))
        per_cell = 1.0 + 0.25 * size_jitter * rng.uniform(-1.0, 1.0, size=sizes.shape)
        sizes = sizes * per_chunk * per_cell
        sizes = np.maximum.accumulate(sizes, axis=1)  # keep levels non-decreasing
    sizes = np.maximum(np.rint(sizes), 1.0)
    return VideoManifest(chunk_count, chunk_duration_s, ladder, sizes)


def save_manifest(manifest: VideoManifest, path: str | Path) -> None:
    doc = {
        "chunk_count": manifest.chunk_count,
        "chunk_duration_s": manifest.chunk_duration_s,
        "bitrates_kbps": list(manifest.ladder.levels),
        "chunk_sizes_bytes": manifest.chunk_sizes_bytes.tolist(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_manifest(path: str | Path) -> VideoManifest:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return VideoManifest(
        chunk_count=int(doc["chunk_count"]),
        chunk_duration_s=float(doc["chunk_duration_s"]),
        ladder=BitrateLadder(tuple(float(r) for r in doc["bitrates_kbps"])),
        chunk_sizes_bytes=np.asarray(doc["chunk_sizes_bytes"], dtype=np.float64),
    )
