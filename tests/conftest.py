from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread per test process, set before numpy loads OpenBLAS.  Sequence-model training
# already runs its parameter gradients on a helper thread beside the main one; OpenBLAS worker
# threads on top of those two spin for work, and on shared cores (a second process, another test
# run) a training step then slows about fivefold, against a few percent with one BLAS thread.
# Trained weights are the same bit for bit either way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from abrlab import qoe, traces


@pytest.fixture
def params() -> qoe.QoeParams:
    return qoe.QoeParams()


@pytest.fixture
def ladder() -> qoe.BitrateLadder:
    return qoe.BitrateLadder(qoe.DEFAULT_LADDER_KBPS)


@pytest.fixture
def small_manifest() -> qoe.VideoManifest:
    """4 chunks, default 6-level ladder, exact bitrate-proportional sizes."""
    return qoe.make_manifest(chunk_count=4, chunk_duration_s=4.0)


def constant_trace(mbps: float, duration_s: float = 600.0, tag: str = "const") -> traces.NetworkTrace:
    return traces.NetworkTrace(
        np.asarray([0.0, duration_s]), np.asarray([mbps, mbps]), source_tag=tag
    )


@pytest.fixture
def fast_trace() -> traces.NetworkTrace:
    return constant_trace(10.0)
