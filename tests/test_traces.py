from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from abrlab import traces
from abrlab.traces import (
    SyntheticSpec,
    TraceError,
    TraceParseError,
    gen_switching_trace,
    gen_synthetic_trace,
    parse_cooked_trace,
    serialize_cooked_trace,
    split_corpus,
)

from conftest import constant_trace
from oracles import parse_cooked_lines


def test_parse_basic():
    trace = parse_cooked_trace("0.0 1.5\n1.0 2.0")
    assert len(trace.times_s) == 2
    assert trace.times_s.tolist() == [0.0, 1.0]
    assert trace.throughput_mbps.tolist() == [1.5, 2.0]


def test_parse_error_line_number():
    with pytest.raises(TraceParseError, match="line 2"):
        parse_cooked_trace("0.0 1.5\nabc")
    with pytest.raises(TraceParseError, match="line 3"):
        parse_cooked_trace("0.0 1.5\n1.0 1.5\n2.0")
    with pytest.raises(TraceParseError, match="line 2"):
        parse_cooked_trace("1.0 1.5\n0.5 1.5")


def _parse_outcome(parse, text) -> str:
    try:
        trace = parse(text)
    except TraceError as exc:
        return repr((type(exc).__name__, str(exc), getattr(exc, "line_no", None)))
    return repr((trace.times_s.tolist(), trace.throughput_mbps.tolist()))  # repr: nan equals nan


# The examples put two faults in one text, or a fault next to blank lines or infinities: the first bad line wins.
@given(st.lists(
    st.lists(st.sampled_from(["0", "1", "2.5", "-1", "abc", "nan", "inf", "1e3", "3"]), max_size=3)
    .map(" ".join),
    max_size=8,
))
@example(["0 1", "", "  ", "2 3", "1 2", "abc 1"])  # a time going back, then a non-numeric line
@example(["0 1", "abc 1", "1 2 3"])  # non-numeric, then three fields
@example(["0 1", "1 2 3", "abc 1"])  # three fields, then non-numeric
@example(["0 1", "0 2", "1 2 3"])  # a repeated time, then three fields
@example(["0 1", "inf 2", "inf 3"])  # inf <= inf, though inf - inf is nan
@example(["0 1", "\t", "5 2\r", "7 1_000"])
def test_parse_matches_line_by_line_reference(lines):
    """The bulk parse returns the trace, or refuses the line with the message, that a line-by-line parse does."""
    text = "\n".join(lines)
    assert _parse_outcome(parse_cooked_trace, text) == _parse_outcome(parse_cooked_lines, text)


def test_parse_rebases_times():
    trace = parse_cooked_trace("5.0 1.0\n6.0 1.0")
    assert trace.times_s.tolist() == [0.0, 1.0]


def test_trace_validation():
    with pytest.raises(TraceError):
        traces.NetworkTrace(np.array([0.0]), np.array([1.0]))
    with pytest.raises(TraceError):
        traces.NetworkTrace(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(TraceError):
        traces.NetworkTrace(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


@given(
    st.lists(st.integers(min_value=1, max_value=10_000), min_size=2, max_size=30),
    st.lists(st.floats(min_value=0.01, max_value=500.0, allow_nan=False), min_size=30, max_size=30),
)
def test_parse_serialize_roundtrip(steps, bws):
    times = np.cumsum(np.asarray(steps, dtype=np.float64) / 100.0)
    times -= times[0]
    trace = traces.NetworkTrace(times, np.asarray(bws[: len(times)]))
    again = parse_cooked_trace(serialize_cooked_trace(trace))
    assert np.array_equal(again.times_s, trace.times_s)
    assert np.array_equal(again.throughput_mbps, trace.throughput_mbps)


def test_gen_zero_variance_constant():
    trace = gen_synthetic_trace(SyntheticSpec(2.0, 0.0, 60.0, seed=4))
    assert np.all(trace.throughput_mbps == 2.0)
    assert trace.duration_s == 60.0


def test_gen_statistics():
    trace = gen_synthetic_trace(SyntheticSpec(1.0, 0.5, 10_000.0, seed=123))
    assert abs(float(trace.throughput_mbps.mean()) - 1.0) < 0.05


def test_gen_clamped_at_floor():
    trace = gen_synthetic_trace(SyntheticSpec(0.1, 1.0, 500.0, seed=5))
    assert float(trace.throughput_mbps.min()) >= traces.SYNTHETIC_FLOOR_MBPS


def test_gen_deterministic():
    a = gen_synthetic_trace(SyntheticSpec(1.5, 0.7, 100.0, seed=9))
    b = gen_synthetic_trace(SyntheticSpec(1.5, 0.7, 100.0, seed=9))
    assert np.array_equal(a.throughput_mbps, b.throughput_mbps)


def test_split_corpus():
    pool = [constant_trace(1.0 + 0.1 * i, tag=f"t{i}") for i in range(10)]
    corpus = split_corpus(pool, 0.7, seed=1)
    assert len(corpus.train) == 7 and len(corpus.test) == 3
    again = split_corpus(pool, 0.7, seed=1)
    assert [t.source_tag for t in corpus.train] == [t.source_tag for t in again.train]
    small = split_corpus(pool[:3], 0.7, seed=1)
    assert len(small.train) == 2 and len(small.test) == 1
    tags = {t.source_tag for t in corpus.train} & {t.source_tag for t in corpus.test}
    assert not tags
    with pytest.raises(TraceError):
        split_corpus(pool[:1])


def test_estimator_grid_shape():
    specs = traces.estimator_grid()
    mus = sorted({s.mean_mbps for s in specs})
    sigmas = sorted({s.stddev_mbps for s in specs})
    assert len(mus) == 56 and len(sigmas) == 31
    assert len(specs) == 56 * 31
    assert mus[0] == 0.5 and mus[-1] == 6.0
    assert sigmas[0] == 0.0 and sigmas[-1] == 3.0


def test_switching_trace_structure():
    segs = [SyntheticSpec(1.0, 0.2, 30.0, seed=1), SyntheticSpec(3.0, 0.3, 20.0, seed=2)]
    trace = gen_switching_trace(segs)
    assert trace.times_s[0] == 0.0
    assert np.all(np.diff(trace.times_s) > 0)
    assert trace.duration_s == pytest.approx(50.0)


def test_trace_file_roundtrip(tmp_path):
    trace = gen_synthetic_trace(SyntheticSpec(2.0, 0.4, 30.0, seed=2))
    path = tmp_path / "trace.log"
    traces.save_trace_file(trace, path)
    again = traces.load_trace_file(path)
    assert np.array_equal(again.times_s, trace.times_s)
    assert np.array_equal(again.throughput_mbps, trace.throughput_mbps)


def test_corpus_index_roundtrip(tmp_path):
    index = {"train": ["a.log", "b.log"], "test": ["c.log"]}
    path = tmp_path / "corpus.json"
    traces.save_corpus_index(index, path)
    assert traces.load_corpus_index(path) == index
