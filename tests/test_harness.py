from __future__ import annotations

import copy
import dataclasses
import http.client
import json
import math
import os
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abrlab import cli, dt, estimator as est, expert, harness, nn, qoe, service, sim, traces
from abrlab.harness import AlgorithmSpec, HarnessError, RunConfig, evaluate_corpus, emit_report

from conftest import constant_trace


@pytest.fixture(scope="module")
def eval_setup():
    manifest = qoe.make_manifest(chunk_count=6)
    test_traces = [
        constant_trace(1.2, tag="t0"),
        traces.gen_synthetic_trace(traces.SyntheticSpec(2.0, 0.5, 200.0, seed=4)),
    ]
    return manifest, test_traces


def evaluate(names, manifest, test_traces):
    """``evaluate_corpus`` of the named algorithms as ``make_policy_factory`` builds them, at default settings."""
    params, sim_config = qoe.QoeParams(), sim.SimConfig()
    policies = [
        (name, harness.make_policy_factory(AlgorithmSpec(name), manifest, params, sim_config, expert.DpConfig()))
        for name in names
    ]
    return evaluate_corpus(policies, manifest, test_traces, params, sim_config)


def test_single_algorithm_single_trace(eval_setup):
    manifest, test_traces = eval_setup
    report = evaluate(["bb"], manifest, test_traces[:1])
    assert len(report.sessions) == 1
    assert report.sessions[0].algorithm == "bb"
    assert report.aggregates[0].session_count == 1


def test_empty_algorithms_rejected(eval_setup):
    manifest, test_traces = eval_setup
    with pytest.raises(HarnessError):
        evaluate([], manifest, test_traces)


def test_missing_checkpoint_names_algorithm(eval_setup):
    manifest, test_traces = eval_setup
    spec = AlgorithmSpec("dt", {"checkpoint": "/nope/dt.npz", "estimator": "/nope/est.npz"})
    with pytest.raises(HarnessError, match="dt"):
        harness.make_policy_factory(spec, manifest, qoe.QoeParams(), sim.SimConfig(), expert.DpConfig())


def test_dp_row_dominates(eval_setup):
    manifest, test_traces = eval_setup
    report = evaluate(["dp", "bb", "rb"], manifest, test_traces)
    by_name = {a.algorithm: a for a in report.aggregates}
    tolerance = 0.25  # planner discretization slack per session mean
    assert by_name["dp"].mean_qoe >= by_name["bb"].mean_qoe - tolerance
    assert by_name["dp"].mean_qoe >= by_name["rb"].mean_qoe - tolerance


def test_report_identity_and_roundtrip(tmp_path, eval_setup):
    manifest, test_traces = eval_setup
    report = evaluate(["bb", "rb", "mpc"], manifest, test_traces)
    for agg in report.aggregates:
        assert agg.mean_qoe == pytest.approx(
            agg.utility - agg.rebuffer_penalty - agg.smoothness_penalty, abs=1e-9
        )
    for row in report.sessions:
        assert row.mean_qoe == pytest.approx(
            row.utility - row.rebuffer_penalty - row.smoothness_penalty, abs=1e-9
        )
    paths = emit_report(report, tmp_path)
    again = harness.load_report(paths["json"])
    assert again == report
    csv_lines = paths["csv"].read_text().strip().splitlines()
    assert len(csv_lines) == len(report.aggregates) + 1
    cdf_lines = paths["cdf"].read_text().strip().splitlines()
    assert len(cdf_lines) == 1 + sum(len(v["qoe"]) for v in report.cdf.values())


# Exact aggregate rows (mean, std, utility, rebuffer, smoothness, sessions)
# of a small seeded switching corpus on which the 12 s buffer cap binds and
# every rule-based policy stalls: any drift in the simulator, planner or MPC
# dynamics changes them.  The dt row is a seeded 10-step model's.
PINNED_ROWS = {
    "bb": (0.6109425239175221, 0.5744425924905614, 1.6556250000000003, 0.5640574760824781, 0.480625, 4),
    "rb": (-0.9301120117357655, 1.0898486358271797, 2.3362500000000006, 2.875112011735766, 0.39125, 4),
    "mpc": (0.09312244986785267, 1.4037587322786762, 1.7906249999999995, 1.105627550132147, 0.5918749999999999, 4),
    "dp": (1.9589607779297464, 0.4097697815073101, 2.498125, 0.1829142220702534, 0.35624999999999996, 4),
    "dt": (-1.485513657702689, 2.3840473723687876, 2.9950000000000006, 4.3355136577026885, 0.14499999999999996, 4),
}
PIN_SIM = sim.SimConfig(buffer_cap_s=12.0)
PIN_DP = expert.DpConfig(dominance_prune=True)


@pytest.fixture(scope="module")
def pinned_setup():
    corpus = harness.PipelineConfig(trace_duration_s=150.0, mu_range=(0.4, 6.0))
    test_traces = harness.make_switching_corpus(4, corpus, 5, "pin")
    manifest = qoe.make_manifest(20, 4.0, size_jitter=0.1, seed=5)
    train_traces = harness.make_switching_corpus(4, corpus, 6, "pintrain")
    estimator_model = est.EstimatorModel(hidden=16, seed=5)
    trajectories = expert.build_expert_trajectories(
        train_traces, manifest, qoe.QoeParams(), estimator_model, 4, PIN_DP, PIN_SIM
    )
    config = dt.DtConfig(context_len=4, embed_dim=32, blocks=2, obs_dim=sim.obs_dim(6), max_timestep=20)
    model, _ = dt.train_dt(trajectories, config, dt.DtTrainConfig(steps=10, batch_size=16, seed=5))
    return manifest, test_traces, model, estimator_model


def test_pinned_aggregate_rows(pinned_setup):
    manifest, test_traces, model, estimator_model = pinned_setup
    params = qoe.QoeParams()
    policies = [
        (name, harness.make_policy_factory(AlgorithmSpec(name), manifest, params, PIN_SIM, PIN_DP))
        for name in ("bb", "rb", "mpc", "dp")
    ]
    policies.append(("dt", lambda corpus: dt.DtPolicy(model, estimator_model, 4)))
    report = evaluate_corpus(policies, manifest, test_traces, params, PIN_SIM)
    rows = {
        a.algorithm: (a.mean_qoe, a.std_qoe, a.utility, a.rebuffer_penalty, a.smoothness_penalty, a.session_count)
        for a in report.aggregates
    }
    assert rows == PINNED_ROWS


def _run_alone(policy, manifest, trace, config):
    """Reference session loop: one trace, deciding one session at a time."""
    state = sim.init_session(trace)
    obs = sim.observe(manifest, state)
    records, observations = [], []
    for _ in range(manifest.chunk_count):
        observations.append(obs)
        obs, record, state = sim.step(state, policy.decide_batch([state], [obs])[0], manifest, trace, config)
        records.append(record)
    return records, observations, state


@pytest.mark.parametrize("name", ["bb", "rb", "mpc", "dp"])
def test_lock_step_sessions_match_single_runs(pinned_setup, name):
    manifest, test_traces, _, _ = pinned_setup
    params = qoe.QoeParams()
    factory = harness.make_policy_factory(AlgorithmSpec(name), manifest, params, PIN_SIM, PIN_DP)
    logs = sim.run_sessions(factory(test_traces), manifest, test_traces, PIN_SIM, params)
    assert [log.trace_tag for log in logs] == [t.source_tag for t in test_traces]
    for log, trace in zip(logs, test_traces):
        if name == "dp":
            actions = expert.dp_plan(manifest, trace, params, None, PIN_DP, PIN_SIM).actions
            policy = expert.PlanFollower((actions,))
        else:
            policy = factory([trace])
        records, observations, final_state = _run_alone(policy, manifest, trace, PIN_SIM)
        assert log.records == records
        assert log.final_state == final_state
        assert [o.vector().tolist() for o in log.observations] == [o.vector().tolist() for o in observations]
    assert any(r.rebuffer_s > 0 for log in logs for r in log.records)
    if name != "dp":  # the plan avoids the cap's idle sleeps
        assert any(log.final_state.sleep_total_s > 0 for log in logs)


def test_run_config_validation(tmp_path):
    config = RunConfig(
        manifest_path=str(tmp_path / "missing.json"),
        test_trace_paths=[],
        algorithms=[AlgorithmSpec("bb")],
    )
    with pytest.raises(HarnessError, match="missing"):
        harness.load_inputs(config)


def test_load_run_config(tmp_path):
    manifest = qoe.make_manifest(chunk_count=4)
    manifest_path = tmp_path / "manifest.json"
    qoe.save_manifest(manifest, manifest_path)
    trace_path = tmp_path / "trace.log"
    traces.save_trace_file(constant_trace(1.0), trace_path)
    doc = {
        "manifest": str(manifest_path),
        "traces": {"test": [str(trace_path)]},
        "algorithms": [{"name": "bb", "reservoir_s": 6.0}],
        "qoe": {"rebuffer_penalty": 3.0},
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    config = harness.load_run_config(cfg_path)
    assert config.algorithms[0].settings == {"reservoir_s": 6.0}
    assert config.qoe_params.rebuffer_penalty == 3.0
    inputs = harness.load_inputs(config)
    policies = harness.run_policies(config, inputs.manifest)
    report = evaluate_corpus(policies, inputs.manifest, inputs.test_traces, config.qoe_params, config.sim_config)
    assert len(report.sessions) == 1


@pytest.fixture(scope="module")
def tiny_ctx():
    manifest = qoe.make_manifest(chunk_count=8)
    params = qoe.QoeParams()
    train = [
        traces.gen_synthetic_trace(traces.SyntheticSpec(1.0 + 0.5 * i, 0.3, 150.0, seed=i))
        for i in range(3)
    ]
    test = [traces.gen_synthetic_trace(traces.SyntheticSpec(1.5, 0.4, 150.0, seed=9))]
    estimator_model = est.EstimatorModel(hidden=8, seed=0)
    return harness.SweepContext(
        manifest=manifest,
        params=params,
        train_traces=train,
        test_traces=test,
        estimator_model=estimator_model,
        dt_config=dt.DtConfig(
            context_len=2, embed_dim=16, blocks=1, dropout=0.0, obs_dim=sim.obs_dim(6), max_timestep=8
        ),
        dt_hyper=dt.DtTrainConfig(steps=10, batch_size=8, seed=0),
        dp_config=expert.DpConfig(dominance_prune=True),
    )


def test_sweep_context_caches(tiny_ctx):
    plans_a = tiny_ctx.plans()
    plans_b = tiny_ctx.plans()
    assert plans_a is plans_b
    trajs = tiny_ctx.trajectories(4)
    assert tiny_ctx.trajectories(4) is trajs
    model = tiny_ctx.model(2, 4)
    assert tiny_ctx.model(2, 4) is model


def test_ablation_sweep_rows(tiny_ctx):
    rows = harness.ablation_sweep("K", [1, 2], tiny_ctx)
    assert [r.value for r in rows] == [1, 2]
    assert all(np.isfinite(r.mean_qoe) for r in rows)
    rows_l = harness.ablation_sweep("L", [2, 4], tiny_ctx)
    assert [r.value for r in rows_l] == [2, 4]
    with pytest.raises(HarnessError):
        harness.ablation_sweep("M", [1], tiny_ctx)


@pytest.fixture(scope="module")
def service_bundle():
    config = dt.DtConfig(
        context_len=4, embed_dim=16, blocks=1, heads=1, dropout=0.0, action_count=6, obs_dim=10, max_timestep=48
    )
    return service.DecisionBundle(
        model=dt.DtModel(config, seed=0),
        estimator_model=est.EstimatorModel(hidden=8, seed=0),
        ladder_kbps=tuple(qoe.DEFAULT_LADDER_KBPS),
    )


def well_formed_request():
    obs = {
        "buffer_s": 8.0,
        "throughput_mbps": 1.4,
        "download_s": 2.0,
        "next_chunk_sizes_bytes": [1e5, 2e5, 3e5, 4e5, 5e5, 6e5],
        "remaining_frac": 0.5,
    }
    first = dict(obs, throughput_mbps=1.0, download_s=0.0, remaining_frac=1.0, buffer_s=0.0)
    return {
        "ladder_kbps": list(qoe.DEFAULT_LADDER_KBPS),
        "manifest_ref": "default",
        "window": {
            "timesteps": [0, 1, 2],
            "observations": [first, obs, dict(obs, buffer_s=10.0)],
            "returns": [0.5, 0.45],
            "actions": [2, 3],
        },
    }


def test_handle_decide_contract(service_bundle):
    status, body = service.handle_decide(service_bundle, well_formed_request())
    assert status == 200
    assert 0 <= body["level"] <= 5
    assert body["r_hat"] >= 0.0
    again = service.handle_decide(service_bundle, well_formed_request())
    assert (status, body) == again


# Answers recorded before the QoE-to-go estimate moved into est.qoe_to_go:
# (window length, first timestep) -> (status, level, r_hat).  The first
# window starts at timestep 0, whose placeholder throughput is no measurement.
PINNED_DECISIONS = [
    ((1, 0), (200, 3, 0.0875329002737999)),
    ((2, 9), (200, 3, 0.0)),
    ((3, 5), (200, 1, 0.2388133406639099)),
    ((4, 0), (200, 1, 0.1671411544084549)),
    ((4, 17), (200, 1, 0.18222923576831818)),
]


def test_pinned_handle_decide_answers(service_bundle):
    rng = np.random.default_rng(11)
    answers = []
    for (n, t0), _ in PINNED_DECISIONS:
        observations = [
            {
                "buffer_s": float(rng.uniform(0, 30)),
                "throughput_mbps": float(rng.uniform(0.3, 5)),
                "download_s": float(rng.uniform(0, 6)),
                "next_chunk_sizes_bytes": [float(x) for x in rng.uniform(1e5, 3e6, 6)],
                "remaining_frac": float(rng.uniform(0.1, 1)),
            }
            for _ in range(n)
        ]
        window = {
            "timesteps": list(range(t0, t0 + n)),
            "observations": observations,
            "returns": [float(x) for x in rng.uniform(0, 2, n - 1)],
            "actions": [int(x) for x in rng.integers(0, 6, n - 1)],
        }
        status, body = service.handle_decide(service_bundle, {"window": window})
        answers.append(((n, t0), (status, body["level"], body["r_hat"])))
    assert answers == PINNED_DECISIONS


def test_handle_decide_validation(service_bundle):
    request = well_formed_request()
    del request["window"]["observations"][0]["buffer_s"]
    status, body = service.handle_decide(service_bundle, request)
    assert status == 400 and "buffer_s" in body["error"]

    request = well_formed_request()
    request["ladder_kbps"][0] = 999.0
    status, body = service.handle_decide(service_bundle, request)
    assert status == 400 and "ladder" in body["error"]

    request = well_formed_request()
    request["window"]["timesteps"] = [0, 2, 3]
    status, _ = service.handle_decide(service_bundle, request)
    assert status == 400

    request = well_formed_request()
    request["window"]["actions"] = [2]
    status, _ = service.handle_decide(service_bundle, request)
    assert status == 400


@pytest.mark.parametrize(
    "timesteps",
    [["a", "b", "c"], [0.5, 1.5, 2.5], [0, 1.0, 2], [True, 2, 3], [-1, 0, 1], [46, 47, 48], [5.5]],
)
def test_handle_decide_rejects_bad_timesteps(service_bundle, timesteps):
    request = well_formed_request()
    window = request["window"]
    n = len(timesteps)
    window["timesteps"] = timesteps
    window["observations"] = window["observations"][-n:]
    window["returns"], window["actions"] = window["returns"][: n - 1], window["actions"][: n - 1]
    status, body = service.handle_decide(service_bundle, request)
    assert status == 400 and "timesteps" in body["error"]


@pytest.mark.parametrize("ladder", [4300, "300,750", None, {"0": 300.0}, ["300"] * 6, [True] * 6, [10**400]])
def test_handle_decide_rejects_malformed_ladder(service_bundle, ladder):
    request = well_formed_request()
    request["ladder_kbps"] = ladder
    status, body = service.handle_decide(service_bundle, request)
    assert status == 400 and "ladder_kbps" in body["error"]


@pytest.mark.parametrize(
    "key, value",
    [
        ("buffer_s", "8.0"),
        ("remaining_frac", True),
        ("throughput_mbps", "nan"),
        ("throughput_mbps", float("nan")),
        ("throughput_mbps", float("inf")),
        ("download_s", -float("inf")),
        ("buffer_s", -5),
        ("download_s", -0.5),
        ("buffer_s", 10**400),
        ("next_chunk_sizes_bytes", ["1e5"] * 6),
        ("next_chunk_sizes_bytes", [1e5, 2e5, 3e5, 4e5, 5e5, float("nan")]),
        ("returns", float("nan")),
        ("returns", "high"),
        ("returns", None),
        ("actions", True),
        ("actions", 2.0),
        ("buffer_s", 1e300),  # finite, but past what the float32 models can represent
        ("throughput_mbps", 2e39),
    ],
)
def test_handle_decide_rejects_bad_numbers(service_bundle, key, value):
    request = well_formed_request()
    window = request["window"]
    if key in ("returns", "actions"):
        window[key][0] = value
    else:
        window["observations"][-1][key] = value
    status, body = service.handle_decide(service_bundle, request)
    assert status == 400 and "error" in body


def test_bundle_refuses_stats_window_beyond_context(service_bundle, tmp_path, capsys, monkeypatch):
    K = service_bundle.model.config.context_len
    for window in (K + 1, 0):
        with pytest.raises(ValueError, match="stats_window"):
            service.DecisionBundle(service_bundle.model, service_bundle.estimator_model,
                                   service_bundle.ladder_kbps, stats_window=window)
    service.DecisionBundle(service_bundle.model, service_bundle.estimator_model,
                           service_bundle.ladder_kbps, stats_window=K)

    monkeypatch.setattr(service, "serve_decisions", lambda *args: pytest.fail("serve started"))
    dt.save_dt(service_bundle.model, tmp_path / "dt.npz", service_bundle.ladder_kbps)
    est.save_estimator(service_bundle.estimator_model, tmp_path / "est.npz")
    argv = ["serve", "--dt", str(tmp_path / "dt.npz"), "--estimator", str(tmp_path / "est.npz"),
            "--port", "0", "--stats-window", str(K + 1)]
    assert cli.main(argv) == 2
    assert "stats_window" in capsys.readouterr().err


def test_serve_refuses_mismatched_checkpoint(service_bundle, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(service, "serve_decisions", lambda *args: pytest.fail("serve started"))
    model = copy.deepcopy(service_bundle.model)
    model.head.w.value = model.head.w.value[:, :3]
    dt.save_dt(model, tmp_path / "dt.npz", service_bundle.ladder_kbps)
    est.save_estimator(service_bundle.estimator_model, tmp_path / "est.npz")
    argv = ["serve", "--dt", str(tmp_path / "dt.npz"), "--estimator", str(tmp_path / "est.npz"), "--port", "0"]
    assert cli.main(argv) == 2
    assert "dt.head.w" in capsys.readouterr().err

    dt.save_dt(service_bundle.model, tmp_path / "dt.npz", service_bundle.ladder_kbps)
    arrays, meta = nn.load_checkpoint(tmp_path / "dt.npz")
    nn.save_checkpoint(tmp_path / "dt.npz", arrays, dict(meta, config=dict(meta["config"], bogus=3)))
    assert cli.main(argv) == 2
    assert "bogus" in capsys.readouterr().err
    np.savez(tmp_path / "dt.npz", **arrays)  # no __meta__ header
    assert cli.main(argv) == 2
    assert "__meta__" in capsys.readouterr().err

    # A 4-level model saved without a ladder (as train-dt saves it) would get the default 6-level one.
    four = dt.DtModel(dataclasses.replace(service_bundle.model.config, action_count=4, obs_dim=8), seed=0)
    dt.save_dt(four, tmp_path / "dt.npz")
    assert cli.main(argv) == 2
    assert "ladder of 6 levels does not fit the model: 4 actions, 4 chunk sizes" in capsys.readouterr().err
    with pytest.raises(ValueError, match="does not fit the model: 6 actions, 4 chunk sizes"):
        odd = dataclasses.replace(service_bundle.model.config, obs_dim=8)
        service.DecisionBundle(dt.DtModel(odd, seed=0), service_bundle.estimator_model, service_bundle.ladder_kbps)


def random_request(rng, max_timestep=48, K=4):
    n = int(rng.integers(1, K + 1))
    t0 = int(rng.integers(0, max_timestep - n + 1))
    observations = [
        {
            "buffer_s": float(rng.uniform(0.0, 30.0)),
            "throughput_mbps": float(rng.uniform(0.2, 6.0)),
            "download_s": float(rng.uniform(0.0, 8.0)),
            "next_chunk_sizes_bytes": [float(x) for x in rng.uniform(1e5, 3e6, 6)],
            "remaining_frac": float(rng.uniform(0.0, 1.0)),
        }
        for _ in range(n)
    ]
    return {
        "window": {
            "timesteps": list(range(t0, t0 + n)),
            "observations": observations,
            "returns": [float(x) for x in rng.uniform(0.0, 2.0, n - 1)],
            "actions": [int(x) for x in rng.integers(0, 6, n - 1)],
        }
    }


def test_handle_decide_threads_match_sequential():
    model = dt.DtModel(dt.DtConfig(), seed=0)
    model.head.w.value *= 100.0  # spread the levels, so a corrupted forward changes answers
    bundle = service.DecisionBundle(model, est.EstimatorModel(seed=0), tuple(qoe.DEFAULT_LADDER_KBPS))
    rng = np.random.default_rng(12)
    requests = [random_request(rng) for _ in range(2000)]
    expected = [service.handle_decide(bundle, r) for r in requests]
    assert all(status == 200 for status, _ in expected)
    assert len({body["level"] for _, body in expected}) > 1
    answers = [None] * len(requests)

    def worker(first: int) -> None:
        for i in range(first, len(requests), 4):
            answers[i] = service.handle_decide(bundle, requests[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible, mid-forward included
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    mismatches = [i for i, (got, want) in enumerate(zip(answers, expected)) if got != want]
    assert mismatches == []


def test_handle_decide_model_failure_is_5xx(service_bundle):
    broken = copy.deepcopy(service_bundle)
    broken.estimator_model.fc2.w.value[...] = np.nan
    status, body = service.handle_decide(broken, well_formed_request())
    assert status == 500 and "error" in body


def _json_paths(doc, prefix=()):
    """Every position of a JSON document, the root () included."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


# What json.loads can produce; ints past 4300 digits are refused by the parser itself.
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.builds(lambda e, sign: sign * 10**e, st.integers(309, 400), st.sampled_from((1, -1)))  # past float range
    | st.floats()  # NaN and the infinities included
    | st.text(max_size=8)
)
JSON_VALUES = JSON_LEAVES | st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)


@settings(max_examples=400, deadline=1000, derandomize=True)
@given(path=st.sampled_from(list(_json_paths(well_formed_request()))), value=JSON_VALUES)
def test_handle_decide_answers_any_json_with_200_or_400(service_bundle, path, value):
    request = well_formed_request()
    if path:
        parent = request
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        request = value
    status, body = service.handle_decide(service_bundle, request)
    assert status in (200, 400), body
    if status == 200:
        assert 0 <= body["level"] < service_bundle.model.config.action_count
        assert math.isfinite(body["r_hat"]) and body["r_hat"] >= 0.0


def test_http_server_rejects_negative_content_length(service_bundle):
    server = service.make_server(service_bundle, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=5)
        conn.putrequest("POST", "/decide")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", "-1")
        conn.endheaders(json.dumps(well_formed_request()).encode())
        resp = conn.getresponse()  # the connection stays open: a read to EOF would time out
        assert resp.status == 400
        assert "Content-Length" in json.loads(resp.read())["error"]
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("length", [service.MAX_BODY_BYTES + 1, 100_000_000_000])
def test_http_server_refuses_oversized_body_unread(service_bundle, length):
    server = service.make_server(service_bundle, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        conn.putrequest("POST", "/decide")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(length))
        conn.endheaders()  # no body follows: the answer must not wait for one
        resp = conn.getresponse()
        assert resp.status == 413
        assert str(service.MAX_BODY_BYTES) in json.loads(resp.read())["error"]
        conn.close()
        # the server keeps answering
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/decide",
            data=json.dumps(well_formed_request()).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=5) as ok:
            assert ok.status == 200
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_server_times_out_short_body(service_bundle, monkeypatch):
    monkeypatch.setattr(service, "READ_TIMEOUT_S", 0.3)
    server = service.make_server(service_bundle, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=5)
        conn.putrequest("POST", "/decide")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", "100")
        start = time.perf_counter()
        conn.endheaders(b'{"window":')  # 10 of the 100 declared bytes
        resp = conn.getresponse()
        assert resp.status == 408
        assert time.perf_counter() - start < 3.0
        assert "100 bytes" in json.loads(resp.read())["error"]
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_server_answers_deep_nesting_with_400(service_bundle):
    server = service.make_server(service_bundle, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        for body in (b"[" * 100_000, b'{"a":' * 100_000):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("POST", "/decide", body=body, headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
            assert "bad request body" in json.loads(resp.read())["error"]
            conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_server_roundtrip(service_bundle):
    server = service.make_server(service_bundle, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        url = f"http://127.0.0.1:{port}/decide"
        payload = json.dumps(well_formed_request()).encode()
        responses = []
        for _ in range(2):
            req = urllib.request.Request(url, data=payload, headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req) as resp:
                assert resp.status == 200
                responses.append(json.loads(resp.read()))
        assert responses[0] == responses[1]
        assert 0 <= responses[0]["level"] <= 5

        bad = json.dumps({"window": {}}).encode()
        req = urllib.request.Request(url, data=bad, headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req)
        assert excinfo.value.code == 400
        excinfo.value.close()  # the error carries the open response
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@contextmanager
def serving(server):
    """Run ``server`` on a background thread; shut it down and close it on exit."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def record_handler_threads(server) -> list[threading.Thread]:
    """Wrap the server's ``handle``; returns the list of threads that served each request, in order."""
    served = []
    handle = server.RequestHandlerClass.handle

    def recorded(self) -> None:
        served.append(threading.current_thread())
        handle(self)

    server.RequestHandlerClass.handle = recorded
    return served


def post_decide(port: int, payload) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("POST", "/decide", body=json.dumps(payload).encode(), headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def test_http_server_reuses_handler_threads(service_bundle):
    server = service.make_server(service_bundle, port=0)
    served = record_handler_threads(server)
    with serving(server) as port:
        for _ in range(20):
            assert post_decide(port, well_formed_request())[0] == 200
    assert len(served) == 20
    # A client may send its next request before the thread that answered it is idle again.
    # Thread objects, not idents: the ident of an ended thread may be given to the next one.
    assert len(set(served)) <= 2


def test_http_server_stalled_bodies_do_not_delay_others(service_bundle, monkeypatch):
    """More stalled connections than idle threads may wait: a request behind them is still answered at once."""
    monkeypatch.setattr(service, "READ_TIMEOUT_S", 2.0)
    server = service.make_server(service_bundle, port=0)
    with serving(server) as port:
        stalled = []
        try:
            for _ in range((os.cpu_count() or 1) + 1):
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                conn.putrequest("POST", "/decide")
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length", "100")
                conn.endheaders(b'{"window":')  # 10 of the 100 declared bytes
                stalled.append(conn)
            time.sleep(0.2)  # every stalled connection is accepted and its handler waits for the body
            start = time.perf_counter()
            assert post_decide(port, well_formed_request())[0] == 200
            assert time.perf_counter() - start < 1.0
            for conn in stalled:
                assert conn.getresponse().status == 408
        finally:
            for conn in stalled:
                conn.close()


def test_http_server_concurrent_clients_match_sequential(service_bundle):
    bundle = copy.deepcopy(service_bundle)
    bundle.model.head.w.value *= 100.0  # spread the levels, so a corrupted forward changes answers
    rng = np.random.default_rng(5)
    requests = [{"window": {}} if i % 10 == 9 else random_request(rng) for i in range(400)]
    expected = [service.handle_decide(bundle, r) for r in requests]
    assert len({body["level"] for status, body in expected if status == 200}) > 1
    server = service.make_server(bundle, port=0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the handoff of connections to idle handler threads
    try:
        with serving(server) as port:

            def client(first: int) -> list[tuple[int, dict]]:
                return [post_decide(port, requests[i]) for i in range(first, len(requests), 4)]

            with ThreadPoolExecutor(4) as pool:
                answers = list(pool.map(client, range(4)))
    finally:
        sys.setswitchinterval(interval)
    for first, got in enumerate(answers):
        assert got == expected[first::4]  # status, level and r_hat compared with ==


def test_http_server_close_ends_handler_threads(service_bundle):
    server = service.make_server(service_bundle, port=0)
    served = record_handler_threads(server)
    with serving(server) as port:
        with ThreadPoolExecutor(4) as pool:
            statuses = list(pool.map(lambda _: post_decide(port, well_formed_request())[0], range(16)))
        assert statuses == [200] * 16
    deadline = time.perf_counter() + 2.0
    while any(thread.is_alive() for thread in served) and time.perf_counter() < deadline:
        time.sleep(0.01)
    assert not any(thread.is_alive() for thread in served)
