"""Tests of the benchmark's own code: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import loadgen  # noqa: E402
from spans import Recorder, Span, Target, covered, self_times  # noqa: E402


# -- spans ---------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(-5.0, -1.0), (11.0, 12.0)]) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(1, 0, 1, "root", 0.0, 10.0),
        Span(2, 1, 1, "child", 1.0, 4.0),
        Span(3, 2, 1, "grandchild", 2.0, 3.0),
        Span(4, 1, 1, "child", 6.0, 7.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.a defines f; pkg.b holds its own binding of f (``from .a import f``)."""
    pkg = types.ModuleType("pkg")
    a = types.ModuleType("pkg.a")
    b = types.ModuleType("pkg.b")

    def f(x):
        time.sleep(0.001)
        return x + 1

    a.f = f
    b.f = f
    b.g = lambda x: b.f(x) * 2
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b, f


def test_install_wraps_every_binding_and_uninstall_restores(fake_package):
    a, b, f = fake_package
    rec = Recorder()
    rec.install("pkg", [Target("pkg.a", "f", lambda args, kwargs, result: {"result": result})])
    assert rec.operation("op", b.g, 1) == 4
    rec.uninstall()
    assert a.f is f and b.f is f
    op, inner = sorted(rec.spans, key=lambda s: s.id)
    assert (op.name, inner.name) == ("op", "a.f")
    assert inner.parent == op.id and inner.op == op.id and op.op == op.id
    assert inner.attrs == {"result": 2}
    assert op.start <= inner.start <= inner.end <= op.end


# -- open loop -------------------------------------------------------------------


def outcome(due, sent, done, problem=None):
    return loadgen.Outcome(None, due, sent, done, 200, None, problem)


def test_latency_counts_from_due_time_and_failures_miss_every_limit():
    o = outcome(due=1.0, sent=1.05, done=1.06)
    assert loadgen.latency_ms(o) == pytest.approx(60.0)
    assert loadgen.lateness_ms(o) == pytest.approx(50.0)
    assert loadgen.latency_ms(outcome(1.0, 1.0, 1.001, problem="wrong answer")) == math.inf


def test_percentile_interpolates_and_sorts_infinities_last():
    assert loadgen.percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
    assert loadgen.percentile([1.0, 2.0, math.inf], 50) == 2.0
    assert loadgen.percentile([1.0, 2.0, math.inf], 99) == math.inf


def test_stalled_server_makes_later_requests_late():
    """One sender, 20 ms service time, requests due every 5 ms: the backlog shows as lateness."""

    def slow(_request):
        time.sleep(0.02)
        return 200, {}

    outcomes = loadgen.run_open_loop(slow, ["r"], rate=200.0, duration_s=0.1, senders=1)
    assert len(outcomes) == 20
    late = [loadgen.lateness_ms(o) for o in outcomes]
    assert late[-1] > late[0] + 50.0
    for o in outcomes:
        assert loadgen.latency_ms(o) == pytest.approx(loadgen.lateness_ms(o) + (o.done - o.sent) * 1e3)
    assert not loadgen.meets_limit(outcomes, limit_ms=25.0)


def test_capacity_interpolates_between_bracketing_rates():
    assert loadgen.capacity_estimate((100.0, 5.0), (200.0, 45.0), 25.0) == pytest.approx(150.0)
    assert loadgen.capacity_estimate((100.0, 5.0), None, 25.0) == 100.0
    assert loadgen.capacity_estimate(None, (100.0, 50.0), 25.0) == pytest.approx(50.0)


# -- output checks -----------------------------------------------------------------


def aggregate(name, mean=1.0):
    return {"algorithm": name, "mean_qoe": mean, "std_qoe": 0.1, "utility": mean + 0.5,
            "rebuffer_penalty": 0.25, "smoothness_penalty": 0.25, "session_count": 4}


def write_report(out: Path, aggregates):
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps({"aggregates": aggregates}))
    (out / "summary.csv").write_text("")
    (out / "cdf.csv").write_text("")


def test_eval_report_accepts_consistent_report_and_golden(tmp_path):
    rows = [aggregate("bb", 0.9)]
    write_report(tmp_path, rows)
    assert checks.eval_report(tmp_path, {"bb": aggregate("bb", 0.9)}) == []


def test_eval_report_rejects_corrupted_report(tmp_path):
    row = aggregate("bb", 0.9)
    row["mean_qoe"] += 1e-6
    write_report(tmp_path, [row])
    assert checks.eval_report(tmp_path, None)
    write_report(tmp_path, [aggregate("bb", 0.9)])
    assert checks.eval_report(tmp_path, {"bb": aggregate("bb", 0.8)})
    (tmp_path / "cdf.csv").unlink()
    assert checks.eval_report(tmp_path, None) == ["missing cdf.csv"]


def test_pipeline_report_needs_dp_on_top_and_finite_dt(tmp_path):
    algs = ("bb", "dt", "dp")
    write_report(tmp_path, [aggregate("bb", 0.9), aggregate("dt", 0.5), aggregate("dp", 1.2)])
    assert checks.pipeline_report(tmp_path, algs) == []
    assert checks.dp_on_top(tmp_path) == []
    write_report(tmp_path, [aggregate("bb", 1.3), aggregate("dt", 0.5), aggregate("dp", 1.2)])
    assert checks.dp_on_top(tmp_path) == ["dp 1.2 < bb 1.3"]
    write_report(tmp_path, [aggregate("bb", 0.9), aggregate("dt", math.nan), aggregate("dp", 1.2)])
    assert checks.pipeline_report(tmp_path, algs)


def test_decide_answer_flags_wrong_answers():
    ref = {"level": 3, "r_hat": 0.4412}
    assert checks.decide_answer(200, ref, 200, {"level": 3, "r_hat": 0.4412}) is None
    assert checks.decide_answer(200, ref, 200, {"level": 2, "r_hat": 0.4412})
    assert checks.decide_answer(200, ref, 200, {"level": 3, "r_hat": 0.4413})
    assert checks.decide_answer(200, ref, 500, {"error": "x"})
    assert checks.decide_answer(200, ref, None, None) == "no response"
    assert checks.decide_answer(400, None, 400, {"error": "bad"}) is None
    assert checks.decide_answer(400, None, 200, {"level": 1, "r_hat": 0.1})


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    import layers
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


# -- server CPU by request class -------------------------------------------------------


def test_malformed_cpu_share_counts_every_non_valid_class():
    sys.path.insert(0, str(HERE.parent / "src"))
    import decide

    tally = {"valid": [8, 0.016], "bad_json": [1, 0.0005], "nan_return": [1, 0.0035]}
    out = decide.cpu_by_kind(tally)
    assert out["service.request_cpu_us.valid"] == pytest.approx(2000.0)
    assert out["service.request_cpu_us.malformed"] == pytest.approx(2000.0)
    assert out["service.malformed_cpu_pct"] == pytest.approx(20.0)


def test_known_defects_are_counted_apart_from_failed_requests():
    sys.path.insert(0, str(HERE.parent / "src"))
    import decide

    def wrong(kind):
        return loadgen.Outcome(decide.Request(kind, b"", 400, None, 0), 0.0, 0.0, 0.0, 200, None, "wrong")

    raced, again, hole, documented = wrong("valid"), wrong("valid"), wrong("nan_return"), wrong("bad_json")
    holes, failed = decide.split_wrong([raced, again, hole, documented], {id(raced)})
    assert holes == [hole]
    assert failed == [again, documented]
