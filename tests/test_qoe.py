from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abrlab import qoe
from abrlab.qoe import FIRST_CHUNK, BitrateLadder, ChunkRecord, QoeError, QoeParams


def record(i, level, bitrate, rebuffer=0.0, download=1.0):
    return ChunkRecord(
        chunk_index=i,
        chosen_level=level,
        bitrate_kbps=bitrate,
        rebuffer_s=rebuffer,
        download_s=download,
        throughput_mbps=1.0,
        buffer_after_s=4.0,
        qoe_value=0.0,
    )


def test_quality_substitution(params):
    assert qoe.quality(300, params) == pytest.approx(0.3, abs=1e-9)
    assert qoe.quality(4300, params) == pytest.approx(4.3, abs=1e-9)
    assert qoe.quality(0, params) == 0.0
    with pytest.raises(QoeError):
        qoe.quality(-1, params)


def test_chunk_qoe_substitution(params):
    assert qoe.chunk_qoe(4300, 4300, 0.0, params) == pytest.approx(4.3, abs=1e-9)
    assert qoe.chunk_qoe(750, 1200, 1.0, params) == pytest.approx(-4.0, abs=1e-9)
    assert qoe.chunk_qoe(300, FIRST_CHUNK, 0.0, params) == pytest.approx(0.3, abs=1e-9)
    with pytest.raises(QoeError):
        qoe.chunk_qoe(300, 300, -0.5, params)


@pytest.mark.parametrize("levels", [qoe.DEFAULT_LADDER_KBPS, (100.0, 333.3, 1000.0, 1007.5, 7777.7)])
def test_level_terms_score_every_chunk_as_chunk_qoe(params, levels):
    ladder = BitrateLadder(levels)
    utility, switch = qoe.level_terms(ladder, params)
    assert utility.shape == (len(ladder),) and switch.shape == (len(ladder) + 1, len(ladder))
    assert np.all(switch[0] == 0.0)
    for row, prev in enumerate([FIRST_CHUNK, *ladder.levels]):
        for level, kbps in enumerate(ladder.levels):
            for rebuffer in (0.0, 0.37, 5.0):
                table = utility[level] - params.rebuffer_penalty * rebuffer - switch[row, level]
                assert table == qoe.chunk_qoe(kbps, prev, rebuffer, params)


def test_chunk_qoe_monotone_in_bitrate(params, ladder):
    values = [qoe.chunk_qoe(r, r, 0.5, params) for r in ladder.levels]
    assert values == sorted(values)


@given(
    rebuffer=st.floats(min_value=0.0, max_value=50.0),
    extra=st.floats(min_value=0.0, max_value=50.0),
)
def test_chunk_qoe_linear_in_rebuffer(rebuffer, extra):
    params = QoeParams()
    base = qoe.chunk_qoe(1200, 750, rebuffer, params)
    bumped = qoe.chunk_qoe(1200, 750, rebuffer + extra, params)
    assert bumped == pytest.approx(base - params.rebuffer_penalty * extra, abs=1e-9)


def test_session_qoe_examples(params):
    two = [record(0, 0, 300), record(1, 0, 300)]
    assert qoe.session_qoe(two, params).total == pytest.approx(0.6, abs=1e-9)
    single = [record(0, 5, 4300)]
    assert qoe.session_qoe(single, params).total == pytest.approx(4.3, abs=1e-9)
    with pytest.raises(QoeError):
        qoe.session_qoe([], params)
    with pytest.raises(QoeError):
        qoe.session_qoe([record(0, 0, 300), record(2, 0, 300)], params)


@given(st.lists(st.tuples(st.sampled_from(qoe.DEFAULT_LADDER_KBPS), st.floats(0, 5)), min_size=1, max_size=12))
def test_session_total_matches_chunk_sum(choices):
    params = QoeParams()
    records = [record(i, 0, r, rebuffer) for i, (r, rebuffer) in enumerate(choices)]
    result = qoe.session_qoe(records, params)
    prev = FIRST_CHUNK
    total = 0.0
    for rec in records:
        total += qoe.chunk_qoe(rec.bitrate_kbps, prev, rec.rebuffer_s, params)
        prev = rec.bitrate_kbps
    assert result.total == pytest.approx(total, abs=1e-9)
    assert result.total == pytest.approx(
        result.utility - result.rebuffer_penalty - result.smoothness_penalty, abs=1e-9
    )
    assert result.mean == pytest.approx(result.total / len(records), abs=1e-12)


def test_ladder_validation():
    with pytest.raises(QoeError):
        BitrateLadder(())
    with pytest.raises(QoeError):
        BitrateLadder((300.0, 300.0))
    with pytest.raises(QoeError):
        BitrateLadder((300.0, -1.0))
    for levels in ((300.0, float("inf")), (float("nan"), 750.0), (300.0, float("nan"))):
        with pytest.raises(QoeError, match="positive and finite"):
            BitrateLadder(levels)
    ladder = BitrateLadder((300.0, 750.0))
    assert len(ladder) == 2 and ladder[1] == 750.0


def test_params_validation():
    with pytest.raises(QoeError):
        QoeParams(rebuffer_penalty=-1.0)


def test_manifest_validation(ladder):
    good = np.tile(np.array([1.0, 2, 3, 4, 5, 6]) * 1e5, (3, 1))
    qoe.VideoManifest(3, 4.0, ladder, good)
    with pytest.raises(QoeError):
        qoe.VideoManifest(2, 4.0, ladder, good)  # row count mismatch
    with pytest.raises(QoeError):
        qoe.VideoManifest(3, 4.0, ladder, good[:, ::-1])  # decreasing sizes
    with pytest.raises(QoeError):
        qoe.VideoManifest(3, -4.0, ladder, good)
    bad = good.copy()
    bad[0, 0] = 0.0
    with pytest.raises(QoeError):
        qoe.VideoManifest(3, 4.0, ladder, bad)
    for duration in (float("nan"), float("inf")):
        with pytest.raises(QoeError, match="chunk_duration_s must be positive and finite"):
            qoe.VideoManifest(3, duration, ladder, good)
    for value in (float("nan"), float("inf")):
        bad[:] = good
        bad[2, 5] = value
        with pytest.raises(QoeError, match="chunk sizes must be positive and finite"):
            qoe.VideoManifest(3, 4.0, ladder, bad)


def test_record_validation():
    with pytest.raises(QoeError):
        record(0, 0, 300, rebuffer=-0.1)
    with pytest.raises(QoeError):
        record(0, 0, 300, download=0.0)


def test_manifest_roundtrip(tmp_path):
    manifest = qoe.make_manifest(chunk_count=5, size_jitter=0.2, seed=3)
    path = tmp_path / "manifest.json"
    qoe.save_manifest(manifest, path)
    loaded = qoe.load_manifest(path)
    assert loaded.chunk_count == manifest.chunk_count
    assert loaded.chunk_duration_s == manifest.chunk_duration_s
    assert loaded.ladder.levels == manifest.ladder.levels
    assert np.array_equal(loaded.chunk_sizes_bytes, manifest.chunk_sizes_bytes)


def test_make_manifest_invariants():
    manifest = qoe.make_manifest(chunk_count=20, size_jitter=0.3, seed=9)
    assert np.all(np.diff(manifest.chunk_sizes_bytes, axis=1) >= 0)
    assert np.all(manifest.chunk_sizes_bytes > 0)
