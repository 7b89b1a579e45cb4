"""Network trace ingest and synthesis.

Traces are piecewise-constant bandwidth signals: each sample's throughput
holds from its timestamp until the next sample's timestamp.  The final
sample marks the end of the trace; sessions that outlive a trace wrap back
to time zero (the simulator loops the trace).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# Floor applied to synthetic throughput draws, Mbps.  A Gaussian can go
# non-positive; the fluid download model needs strictly positive bandwidth.
SYNTHETIC_FLOOR_MBPS = 0.05


class TraceError(ValueError):
    """Invalid trace content."""


class TraceParseError(TraceError):
    """Malformed cooked-trace text; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class NetworkTrace:
    times_s: np.ndarray
    throughput_mbps: np.ndarray
    source_tag: str = ""

    def __post_init__(self) -> None:
        self.times_s = np.asarray(self.times_s, dtype=np.float64)
        self.throughput_mbps = np.asarray(self.throughput_mbps, dtype=np.float64)
        if self.times_s.ndim != 1 or self.times_s.shape != self.throughput_mbps.shape:
            raise TraceError("times and throughputs must be 1-d arrays of equal length")
        if len(self.times_s) < 2:
            raise TraceError("a trace needs at least 2 points")
        if not (np.all(np.isfinite(self.times_s)) and np.all(np.isfinite(self.throughput_mbps))):
            raise TraceError("trace times and throughputs must be finite")
        if self.times_s[0] != 0.0:
            raise TraceError("trace times must start at 0 (re-base before constructing)")
        if np.any(np.diff(self.times_s) <= 0):
            raise TraceError("trace times must be strictly increasing")
        if np.any(self.throughput_mbps <= 0):
            raise TraceError("all throughputs must be positive")

    @property
    def duration_s(self) -> float:
        return float(self.times_s[-1])


@dataclass(frozen=True)
class SyntheticSpec:
    """Stationary Gaussian trace recipe: throughput ~ N(mean, stddev^2)."""

    mean_mbps: float
    stddev_mbps: float
    duration_s: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mean_mbps <= 0:
            raise TraceError("mean_mbps must be positive")
        if self.stddev_mbps < 0:
            raise TraceError("stddev_mbps must be non-negative")
        if self.duration_s <= 0:
            raise TraceError("duration_s must be positive")


@dataclass
class TraceCorpus:
    train: list[NetworkTrace]
    test: list[NetworkTrace]


def parse_cooked_trace(text: str, source_tag: str = "") -> NetworkTrace:
    """Parse "time_s throughput_mbps" lines; times are re-based to start at 0.

    Blank lines are skipped.  The first malformed line raises
    ``TraceParseError``: a field count other than 2, a non-numeric or
    non-finite field, or a time not greater than the previous line's.
    """
    times: list[float] = []
    tputs: list[float] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise TraceParseError(line_no, f"expected 2 fields, got {len(fields)}")
        try:
            t, bw = float(fields[0]), float(fields[1])
        except ValueError:
            raise TraceParseError(line_no, f"non-numeric field in {line!r}") from None
        if not (math.isfinite(t) and math.isfinite(bw)):
            raise TraceParseError(line_no, f"non-finite field in {line!r}")
        if times and t <= times[-1]:
            raise TraceParseError(line_no, f"time {t} not greater than previous {times[-1]}")
        times.append(t)
        tputs.append(bw)
    if len(times) < 2:
        raise TraceError("a trace needs at least 2 points")
    return NetworkTrace(np.asarray(times) - times[0], np.asarray(tputs), source_tag=source_tag)


def serialize_cooked_trace(trace: NetworkTrace) -> str:
    lines = [
        f"{float(t)!r} {float(bw)!r}"
        for t, bw in zip(trace.times_s, trace.throughput_mbps)
    ]
    return "\n".join(lines) + "\n"


def load_trace_file(path: str | Path) -> NetworkTrace:
    p = Path(path)
    return parse_cooked_trace(p.read_text(encoding="utf-8"), source_tag=p.name)


def save_trace_file(trace: NetworkTrace, path: str | Path) -> None:
    Path(path).write_text(serialize_cooked_trace(trace), encoding="utf-8")


def gen_synthetic_trace(spec: SyntheticSpec) -> NetworkTrace:
    """Draw one stationary Gaussian trace; deterministic under spec.seed.

    One sample per second, clamped below at SYNTHETIC_FLOOR_MBPS.  The
    closing sample at t = duration_s marks the end of the trace.
    """
    rng = np.random.default_rng(spec.seed)
    n_points = int(round(spec.duration_s)) + 1
    times = np.arange(n_points, dtype=np.float64)
    draws = rng.normal(spec.mean_mbps, spec.stddev_mbps, size=n_points)
    tputs = np.maximum(draws, SYNTHETIC_FLOOR_MBPS)
    tag = f"syn_mu{spec.mean_mbps:g}_sd{spec.stddev_mbps:g}_seed{spec.seed}"
    return NetworkTrace(times, tputs, source_tag=tag)


def gen_switching_trace(
    segment_specs: Sequence[SyntheticSpec],
    source_tag: str = "",
) -> NetworkTrace:
    """Concatenate stationary Gaussian segments into one time-varying trace.

    Each segment is generated independently from its own spec; segment
    boundaries produce bandwidth regime shifts, which stationary single-spec
    traces cannot express.
    """
    if len(segment_specs) == 0:
        raise TraceError("need at least one segment spec")
    times: list[np.ndarray] = []
    tputs: list[np.ndarray] = []
    offset = 0.0
    for i, spec in enumerate(segment_specs):
        seg = gen_synthetic_trace(spec)
        # Drop each segment's closing sample except the last one, so interior
        # boundaries hand off directly to the next segment's first sample.
        keep = slice(None) if i == len(segment_specs) - 1 else slice(0, -1)
        times.append(seg.times_s[keep] + offset)
        tputs.append(seg.throughput_mbps[keep])
        offset += seg.duration_s
    tag = source_tag or f"switch_{len(segment_specs)}seg_seed{segment_specs[0].seed}"
    return NetworkTrace(np.concatenate(times), np.concatenate(tputs), source_tag=tag)


def split_corpus(
    traces: Sequence[NetworkTrace],
    train_fraction: float = 0.7,
    seed: int = 0,
) -> TraceCorpus:
    """Deterministic shuffled split; train size is floor(n * fraction)."""
    if len(traces) < 2:
        raise TraceError("need at least 2 traces to split")
    if not 0.0 < train_fraction < 1.0:
        raise TraceError("train_fraction must be in (0, 1)")
    order = np.random.default_rng(seed).permutation(len(traces))
    n_train = int(len(traces) * train_fraction)
    train = [traces[i] for i in order[:n_train]]
    test = [traces[i] for i in order[n_train:]]
    return TraceCorpus(train=train, test=test)


def estimator_grid(
    mu_start: float = 0.5,
    mu_stop: float = 6.0,
    mu_step: float = 0.1,
    sigma_start: float = 0.0,
    sigma_stop: float = 3.0,
    sigma_step: float = 0.1,
    duration_s: float = 320.0,
    seed: int = 0,
) -> list[SyntheticSpec]:
    """Stationary-trace grid for estimator training: one spec per (mu, sigma).

    The default ranges sweep 0.5..6.0 Mbps and 0..3 in 0.1 increments.
    sigma == 0 cells use the floor-adjusted mean as-is.
    """
    if not (mu_step > 0 and sigma_step > 0):  # refuses nan too
        raise TraceError(f"grid steps must be positive, got mu_step {mu_step} and sigma_step {sigma_step}")
    if not (mu_stop >= mu_start and sigma_stop >= sigma_start):
        raise TraceError("grid stops must not lie below their starts")
    n_mu = int(round((mu_stop - mu_start) / mu_step)) + 1
    n_sigma = int(round((sigma_stop - sigma_start) / sigma_step)) + 1
    specs = []
    for i in range(n_mu):
        mu = round(mu_start + i * mu_step, 10)
        for j in range(n_sigma):
            sigma = round(sigma_start + j * sigma_step, 10)
            cell_seed = seed * 1_000_003 + i * 1009 + j
            specs.append(SyntheticSpec(mu, sigma, duration_s, seed=cell_seed))
    return specs


def save_corpus_index(corpus_paths: dict[str, list[str]], path: str | Path) -> None:
    """Write {"train": [paths], "test": [paths]} as a JSON corpus index."""
    Path(path).write_text(json.dumps(corpus_paths, indent=2, sort_keys=True), encoding="utf-8")


def load_corpus_index(path: str | Path) -> dict[str, list[str]]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or set(doc) - {"train", "test"}:
        raise TraceError("corpus index must be a JSON object with 'train'/'test' lists")
    return {k: list(v) for k, v in doc.items()}
