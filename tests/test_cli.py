from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import abrlab
from abrlab import cli, dt, estimator as est, expert, harness, qoe, service, traces

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(argv) -> int:
    return cli.main(argv)


@pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": "2"}])
def test_cli_pins_one_blas_thread_unless_set(preset):
    """Importing the CLI sets each unset BLAS thread count to 1 and keeps an explicit one."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(abrlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env["PYTHONPATH"]]) if env.get("PYTHONPATH") else src
    code = "import os, sys, abrlab.cli; print(*(os.environ[v] for v in sys.argv[1:]))"
    out = subprocess.run(
        [sys.executable, "-c", code, *BLAS_THREAD_VARS], env={**env, **preset},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == [preset.get(v, "1") for v in BLAS_THREAD_VARS]


def test_cli_full_workflow(tmp_path, capsys):
    """gen-traces -> train-estimator -> make-expert -> train-dt -> eval -> report."""
    out = tmp_path / "lab"
    manifest = qoe.make_manifest(chunk_count=6)
    manifest_path = tmp_path / "manifest.json"
    qoe.save_manifest(manifest, manifest_path)

    assert run(["gen-traces", "--out", str(out / "traces"), "--count", "6",
                "--duration", "120", "--seed", "3"]) == 0
    index = traces.load_corpus_index(out / "traces" / "corpus.json")
    assert len(index["train"]) + len(index["test"]) == 6
    assert len(index["train"]) == 4  # floor(6 * 0.7)

    est_path = out / "estimator.npz"
    assert run([
        "train-estimator", "--manifest", str(manifest_path), "--out", str(est_path),
        "--mu-step", "2.75", "--sigma-step", "3.0", "--duration", "60",
        "--epochs", "5", "--seed", "3",
        "--dataset-out", str(out / "grid.jsonl"),
    ]) == 0
    assert est_path.exists() and (out / "grid.jsonl").exists()

    traj_path = out / "expert.jsonl"
    capsys.readouterr()
    assert run([
        "make-expert", "--manifest", str(manifest_path), "--estimator", str(est_path),
        "--traces", str(out / "traces" / "corpus.json"), "--split", "train",
        "--out", str(traj_path), "--prune",
    ]) == 0
    assert len(traj_path.read_text().strip().splitlines()) == 4
    # Planner throughput, worker processes and the peak frontier go to stdout, not into the trajectories.
    last = capsys.readouterr().out.splitlines()[-1]
    match = re.fullmatch(
        r"planned 4 sessions in [0-9.]+ s \([0-9.]+ sessions/s\) on (\d+) processes; "
        r"peak frontier (\d+) of max_states 3000000 candidate states",
        last,
    )
    assert match and int(match.group(1)) == expert.plan_processes(4) and 6 <= int(match.group(2)) <= 3_000_000
    assert "frontier" not in traj_path.read_text() and "processes" not in traj_path.read_text()

    dt_path = out / "dt.npz"
    capsys.readouterr()
    assert run([
        "train-dt", "--trajectories", str(traj_path), "--out", str(dt_path),
        "--context-len", "2", "--steps", "5", "--batch", "16", "--seed", "3",
    ]) == 0
    # Training throughput goes to stdout; a step is 16 x 3K = 96 tokens.
    match = re.fullmatch(
        r"trained 5 steps in ([0-9.]+) s \(([0-9.]+) steps/s, ([0-9]+) tokens/s\); final loss [0-9.]+",
        capsys.readouterr().out.splitlines()[-1],
    )
    assert match
    # Each printed figure is rounded to its last digit: the wall time to 1 ms, steps/s to 0.1, tokens/s to 1.
    seconds, steps_per_s, tokens_per_s = (float(g) for g in match.groups())
    for printed, work, half_unit in ((steps_per_s, 5, 0.05), (tokens_per_s, 5 * 96, 0.5)):
        assert work / (seconds + 0.0005) - half_unit - 1e-9 <= printed <= work / (seconds - 0.0005) + half_unit + 1e-9

    run_cfg = {
        "manifest": str(manifest_path),
        "corpus_index": str(out / "traces" / "corpus.json"),
        "algorithms": [
            {"name": "bb"},
            {"name": "rb"},
            {"name": "dt", "checkpoint": str(dt_path), "estimator": str(est_path)},
            {"name": "dp", "dominance_prune": True},
        ],
        "seed": 3,
        "output_dir": str(out / "report"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(run_cfg))
    capsys.readouterr()
    assert run(["eval", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # Evaluation throughput follows the per-algorithm lines, on stdout only.
    assert [line.split(":")[0].strip() for line in lines[:4]] == ["bb", "rb", "dt", "dp"]
    assert re.fullmatch(r"evaluated 8 sessions in [0-9.]+ s \([0-9.]+ sessions/s\)", lines[4])
    report_path = out / "report" / "report.json"
    assert report_path.exists()
    doc = json.loads(report_path.read_text())
    assert {a["algorithm"] for a in doc["aggregates"]} == {"bb", "rb", "dt", "dp"}
    for name in ("report.json", "summary.csv", "cdf.csv"):
        assert "sessions/s" not in (out / "report" / name).read_text()

    assert run(["report", "--report", str(report_path), "--out", str(out / "again")]) == 0
    assert (out / "again" / "summary.csv").read_bytes() == (out / "report" / "summary.csv").read_bytes()

    capsys.readouterr()  # drain CLI prints


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "lab"
    manifest_path = tmp_path / "manifest.json"
    qoe.save_manifest(qoe.make_manifest(chunk_count=6), manifest_path)
    assert run(["gen-traces", "--out", str(out / "traces"), "--count", "5",
                "--duration", "100", "--seed", "4"]) == 0
    est_path = out / "estimator.npz"
    assert run(["train-estimator", "--manifest", str(manifest_path), "--out", str(est_path),
                "--mu-step", "2.75", "--sigma-step", "3.0", "--duration", "60",
                "--epochs", "3", "--seed", "4"]) == 0
    cfg = {
        "manifest": str(manifest_path),
        "corpus_index": str(out / "traces" / "corpus.json"),
        "algorithms": [{"name": "dt", "estimator": str(est_path), "checkpoint": str(est_path)}],
        "seed": 4,
        "output_dir": str(out / "sweep"),
        "dp": {"dominance_prune": True},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["sweep", "--config", str(cfg_path), "--parameter", "K",
                "--values", "1,2", "--steps", "4", "--seed", "4"]) == 0
    table = json.loads((out / "sweep" / "sweep_K.json").read_text())
    assert [row["value"] for row in table] == [1, 2]
    capsys.readouterr()


@pytest.mark.parametrize("args, reason", [
    (["--steps", "0"], "steps must be >= 1"),
    (["--steps", "-3"], "steps must be >= 1"),
    (["--batch", "0"], "batch_size must be >= 1"),
    (["--context-len", "0"], "context_len must be >= 1"),
    (["--context-len", "7"], "shorter than context_len 7"),
    ("empty", "no trajectories in"),
    ("blank", "no trajectories in"),
    ("no-ladder", "a trajectory records no ladder_kbps"),
    ("two-ladders", "trajectories disagree on ladder_kbps"),
    ("short-ladder", "ladder_kbps of 5 levels for 6 actions"),
    ("no-observations", "line 2: not a trajectory (KeyError: 'o')"),
    ("ladder-number", "line 1: not a trajectory (TypeError"),
])
def test_train_dt_refuses_bad_settings(tmp_path, capsys, args, reason):
    """A refused setting or file exits with status 2 and its reason, and writes no checkpoint."""
    rng = np.random.default_rng(0)
    traj = expert.Trajectory(
        "t", np.arange(6), rng.random((6, 10)), rng.random(6), np.eye(6)[rng.integers(0, 6, 6)],
        qoe.DEFAULT_LADDER_KBPS,
    )
    traj_path, dt_path = tmp_path / "expert.jsonl", tmp_path / "dt.npz"
    expert.save_trajectories([traj], traj_path)
    if isinstance(args, str):  # a trajectory file with no trajectory, or no single ladder, in it
        other = {"no-ladder": None, "two-ladders": (300.0, 750.0, 1200.0, 1850.0, 2850.0, 5000.0)}
        if args in other:
            expert.save_trajectories([traj, dataclasses.replace(traj, ladder_kbps=other[args])], traj_path)
        elif args == "short-ladder":
            expert.save_trajectories([dataclasses.replace(traj, ladder_kbps=qoe.DEFAULT_LADDER_KBPS[:5])], traj_path)
        elif args == "no-observations":
            line = json.loads(traj_path.read_text())
            del line["o"]
            traj_path.write_text(traj_path.read_text() + json.dumps(line) + "\n")
        elif args == "ladder-number":
            traj_path.write_text(json.dumps(dict(json.loads(traj_path.read_text()), ladder_kbps=4300)) + "\n")
        else:
            traj_path.write_text({"empty": "", "blank": "\n  \n\n"}[args], encoding="utf-8")
        args = []
    assert run(["train-dt", "--trajectories", str(traj_path), "--out", str(dt_path), "--steps", "1"] + args) == 2
    assert reason in capsys.readouterr().err
    assert not dt_path.exists()


def test_sweep_refuses_nonpositive_steps(tmp_path, capsys):
    argv = ["sweep", "--config", str(tmp_path / "run.json"), "--parameter", "K", "--values", "1", "--steps", "0"]
    assert run(argv) == 2
    assert "steps must be >= 1" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sweep_lab(tmp_path_factory):
    """Six-chunk manifest, five short traces and an untrained estimator checkpoint."""
    out = tmp_path_factory.mktemp("sweep_lab")
    qoe.save_manifest(qoe.make_manifest(chunk_count=6), out / "manifest.json")
    assert run(["gen-traces", "--out", str(out / "traces"), "--count", "5", "--duration", "100", "--seed", "4"]) == 0
    est.save_estimator(est.EstimatorModel(hidden=8, seed=0), out / "estimator.npz")
    return out


@pytest.mark.parametrize("algorithms, parameter, values, reason", [
    ([{"name": "dt", "estimator": "estimator.npz"}], "K", "0", "context_len must be >= 1"),
    ([{"name": "dt", "estimator": "estimator.npz"}], "L", "0", "window must be >= 1"),
    ([{"name": "dt", "estimator": "estimator.npz"}], "K", "7", "shorter than context_len 7"),
    ([{"name": "dt", "estimator": "estimator.npz"}], "K", "1,x", "invalid literal for int()"),
    ([{"name": "dt"}], "K", "1", "needs a 'dt' algorithm entry with an estimator checkpoint"),
    ([{"name": "bb"}], "K", "1", "needs a 'dt' algorithm entry with an estimator checkpoint"),
])
def test_sweep_refuses_bad_input(sweep_lab, tmp_path, capsys, algorithms, parameter, values, reason):
    """A refused sweep exits with status 2, its reason on stderr, and writes no table."""
    cfg = {
        "manifest": str(sweep_lab / "manifest.json"),
        "corpus_index": str(sweep_lab / "traces" / "corpus.json"),
        "algorithms": [dict(a, estimator=str(sweep_lab / a["estimator"])) if "estimator" in a else a for a in algorithms],
        "seed": 4,
        "output_dir": str(tmp_path / "sweep"),
    }
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    argv = ["sweep", "--config", str(tmp_path / "run.json"), "--parameter", parameter, "--values", values,
            "--steps", "2", "--seed", "4"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert reason in captured.err and reason not in captured.out
    assert not (tmp_path / "sweep").exists()


def test_sweep_takes_stats_window_from_dt_entry(sweep_lab, tmp_path, monkeypatch, capsys):
    """A K sweep trains and decides with the dt entry's stats_window, as eval does, not with L=4."""
    windows = []
    sweep = harness.ablation_sweep

    def spy(parameter, values, ctx):
        windows.append(ctx.stats_window)
        return sweep(parameter, values, ctx)

    monkeypatch.setattr(harness, "ablation_sweep", spy)
    cfg = {"manifest": str(sweep_lab / "manifest.json"), "corpus_index": str(sweep_lab / "traces" / "corpus.json"),
           "algorithms": [{"name": "dt", "estimator": str(sweep_lab / "estimator.npz"), "stats_window": 2}],
           "dp": {"dominance_prune": True}}
    assert run(["sweep", "--config", _run_config(tmp_path, cfg), "--parameter", "K", "--values", "1,2",
                "--steps", "2", "--seed", "4"]) == 0
    assert windows == [2]
    assert [row["value"] for row in json.loads((tmp_path / "out" / "sweep_K.json").read_text())] == [1, 2]
    capsys.readouterr()


def _run_config(tmp_path, doc) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(doc, output_dir=str(tmp_path / "out"))))
    return str(path)


# Each case: the argv of a refused command given the lab and a scratch directory,
# and the path its refusal must name.  Outputs would go to tmp_path / "out".
REFUSALS = {
    "train-estimator": lambda lab, tmp: (
        ["train-estimator", "--manifest", str(tmp / "none.json"), "--out", str(tmp / "out")], tmp / "none.json"),
    "make-expert": lambda lab, tmp: (
        ["make-expert", "--manifest", str(lab / "manifest.json"), "--estimator", str(tmp / "none.npz"),
         "--traces", str(lab / "traces" / "corpus.json"), "--out", str(tmp / "out")], tmp / "none.npz"),
    "train-dt": lambda lab, tmp: (
        ["train-dt", "--trajectories", str(tmp / "none.jsonl"), "--out", str(tmp / "out")], tmp / "none.jsonl"),
    "eval-config": lambda lab, tmp: (["eval", "--config", str(tmp / "none.json")], tmp / "none.json"),
    "eval-manifest": lambda lab, tmp: (
        ["eval", "--config", _run_config(tmp, {"manifest": str(tmp / "none.json"), "algorithms": [{"name": "bb"}],
                                               "corpus_index": str(lab / "traces" / "corpus.json")})],
        tmp / "none.json"),
    "eval-no-manifest-key": lambda lab, tmp: (
        ["eval", "--config", _run_config(tmp, {"algorithms": [{"name": "bb"}]})], tmp / "run.json"),
    "eval-no-name-key": lambda lab, tmp: (
        ["eval", "--config", _run_config(tmp, {"manifest": str(lab / "manifest.json"), "algorithms": [{}]})],
        tmp / "run.json"),
    "sweep": lambda lab, tmp: (
        ["sweep", "--config", _run_config(tmp, {"manifest": str(lab / "manifest.json"),
                                                "corpus_index": str(lab / "traces" / "corpus.json"),
                                                "algorithms": [{"name": "dt", "estimator": str(tmp / "none.npz")}]}),
         "--parameter", "K", "--values", "1", "--steps", "2"], tmp / "none.npz"),
    "serve": lambda lab, tmp: (
        ["serve", "--dt", str(tmp / "none.npz"), "--estimator", str(lab / "estimator.npz"), "--port", "0"],
        tmp / "none.npz"),
    "report": lambda lab, tmp: (
        ["report", "--report", str(tmp / "none.json"), "--out", str(tmp / "out")], tmp / "none.json"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_cli_refuses_missing_input(sweep_lab, tmp_path, capsys, case):
    """A missing input file or run-config key exits with status 2, names the file on stderr, and writes nothing."""
    argv, named = REFUSALS[case](sweep_lab, tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"abrlab {argv[0]}: ") and str(named) in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, value, named", [
    ("qoe", {"bogus_key": 1}, "bogus_key"),
    ("sim", {"bogus_key": 1}, "bogus_key"),
    ("dp", {"bogus_key": 1}, "bogus_key"),
    ("qoe", 5, "'qoe' must be an object"),
    ("algorithms", [{"name": "bb", "reservoir": 6}], "'reservoir'"),
    ("algorithms", [{"name": "dt", "model": "dt.npz", "estimator_model": "est.npz"}], "'estimator_model', 'model'"),
    ("algorithms", [{"name": "bogus"}], "'bogus'"),
])
def test_eval_refuses_unknown_config_key(sweep_lab, tmp_path, capsys, section, value, named):
    """A qoe, sim or dp key the lab does not know, an algorithm setting the algorithm does not read, or a
    section that is no object, exits with status 2, names it, and writes nothing."""
    config = _run_config(tmp_path, {"manifest": str(sweep_lab / "manifest.json"), "algorithms": [{"name": "bb"}],
                                    "corpus_index": str(sweep_lab / "traces" / "corpus.json"), section: value})
    assert run(["eval", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("abrlab eval: ") and named in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, value, named", [
    ("sim", {"buffer_cap_s": "60"}, "'sim': 'buffer_cap_s' must be a float, got '60'"),
    ("sim", {"buffer_cap_s": None}, "'sim': 'buffer_cap_s' must be a float, got None"),
    ("qoe", {"rebuffer_penalty": "4.3"}, "'qoe': 'rebuffer_penalty' must be a float, got '4.3'"),
    ("dp", {"buffer_quantum_s": "0.5"}, "'dp': 'buffer_quantum_s' must be a float, got '0.5'"),
    ("dp", {"max_states": True}, "'dp': 'max_states' must be an int, got True"),
    ("algorithms", [{"name": "mpc", "horizon": "5"}], "algorithm 'mpc': 'horizon' must be an int, got '5'"),
    ("algorithms", [{"name": "mpc", "horizon": 5.5}], "algorithm 'mpc': 'horizon' must be an int, got 5.5"),
    ("algorithms", [{"name": "bb", "reservoir_s": "5"}], "algorithm 'bb': 'reservoir_s' must be a float, got '5'"),
    ("algorithms", [{"name": "dp", "dominance_prune": "yes"}],
     "algorithm 'dp': 'dominance_prune' must be a bool, got 'yes'"),
    ("algorithms", [{"name": "rb", "pred_window": True}], "algorithm 'rb': 'pred_window' must be an int, got True"),
    ("algorithms", [{"name": "dt", "checkpoint": "dt.npz", "estimator": "est.npz", "stats_window": 2.5}],
     "algorithm 'dt': 'stats_window' must be an int, got 2.5"),
])
def test_eval_refuses_wrongly_typed_config_values(sweep_lab, tmp_path, capsys, section, value, named):
    """A qoe, sim or dp value or an algorithm setting that does not fit its field's type exits with status 2,
    names the key, and writes nothing: bool fields take JSON bools, int fields ints, float fields ints or floats."""
    config = _run_config(tmp_path, {"manifest": str(sweep_lab / "manifest.json"), "algorithms": [{"name": "bb"}],
                                    "corpus_index": str(sweep_lab / "traces" / "corpus.json"), section: value})
    assert run(["eval", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("abrlab eval: run config ") and named in captured.err
    assert not (tmp_path / "out").exists()


def test_eval_takes_ints_for_float_fields(sweep_lab, tmp_path, capsys):
    """An int fits a float field: it runs as the equal float would."""
    reports = []
    for cap, reservoir in ((60, 5), (60.0, 5.0)):
        config = _run_config(tmp_path, {"manifest": str(sweep_lab / "manifest.json"),
                                        "corpus_index": str(sweep_lab / "traces" / "corpus.json"),
                                        "sim": {"buffer_cap_s": cap},
                                        "algorithms": [{"name": "bb", "reservoir_s": reservoir}]})
        assert run(["eval", "--config", config]) == 0
        reports.append((tmp_path / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]
    capsys.readouterr()


# Each case: the checkpoint's ladder (None: not recorded), its action count and
# timestep span, the manifest's chunk count and ladder, and the reason given.
MISFIT_CHECKPOINTS = {
    "other-ladder": ((300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0), 6, 48,
                     6, (100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0), "and ladder [300.0, 750.0,"),
    "action-count": (None, 4, 48, 6, qoe.DEFAULT_LADDER_KBPS, "4 actions and ladder (not recorded) does not fit"),
    "max-timestep": (qoe.DEFAULT_LADDER_KBPS, 6, 8, 12, qoe.DEFAULT_LADDER_KBPS, "covers 8 of 12 chunks"),
}


@pytest.mark.parametrize("case", sorted(MISFIT_CHECKPOINTS))
def test_eval_refuses_a_dt_checkpoint_that_does_not_fit_the_manifest(sweep_lab, tmp_path, capsys, case):
    """The refusal comes before any algorithm runs: status 2, the reason on stderr, no report."""
    recorded, actions, max_t, chunks, ladder, reason = MISFIT_CHECKPOINTS[case]
    config = dt.DtConfig(embed_dim=8, blocks=1, action_count=actions, obs_dim=4 + actions, max_timestep=max_t)
    dt.save_dt(dt.DtModel(config, seed=0), tmp_path / "dt.npz", recorded)
    qoe.save_manifest(qoe.make_manifest(chunk_count=chunks, ladder_kbps=ladder), tmp_path / "manifest.json")
    algorithms = [{"name": "bb"}, {"name": "dt", "checkpoint": str(tmp_path / "dt.npz"),
                                   "estimator": str(sweep_lab / "estimator.npz")}]
    cfg = _run_config(tmp_path, {"manifest": str(tmp_path / "manifest.json"), "algorithms": algorithms,
                                 "corpus_index": str(sweep_lab / "traces" / "corpus.json")})
    assert run(["eval", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("abrlab eval: algorithm 'dt': ") and reason in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_non_default_ladder_goes_from_make_expert_to_the_served_bundle(sweep_lab, tmp_path, monkeypatch, capsys):
    """make-expert records the manifest's ladder, train-dt saves it, and serve answers on it."""
    ladder = (200.0, 600.0, 1500.0, 3000.0)
    manifest_path = tmp_path / "manifest.json"
    qoe.save_manifest(qoe.make_manifest(chunk_count=6, ladder_kbps=ladder), manifest_path)
    traj_path, dt_path = tmp_path / "expert.jsonl", tmp_path / "dt.npz"
    assert run(["make-expert", "--manifest", str(manifest_path), "--estimator", str(sweep_lab / "estimator.npz"),
                "--traces", str(sweep_lab / "traces" / "corpus.json"), "--out", str(traj_path), "--prune"]) == 0
    assert {tuple(json.loads(line)["ladder_kbps"]) for line in traj_path.read_text().splitlines()} == {ladder}
    assert run(["train-dt", "--trajectories", str(traj_path), "--out", str(dt_path),
                "--context-len", "2", "--steps", "2", "--batch", "4"]) == 0
    served = []
    monkeypatch.setattr(service, "serve_decisions", lambda bundle, host, port: served.append(bundle))
    assert run(["serve", "--dt", str(dt_path), "--estimator", str(sweep_lab / "estimator.npz"),
                "--stats-window", "2"]) == 0
    (bundle,) = served
    assert bundle.ladder_kbps == ladder
    obs = {"buffer_s": 0.0, "throughput_mbps": 1.0, "download_s": 0.0,
           "next_chunk_sizes_bytes": [25e3, 75e3, 187.5e3, 375e3], "remaining_frac": 1.0}
    window = {"timesteps": [0], "observations": [obs], "returns": [], "actions": []}
    status, body = service.handle_decide(bundle, {"ladder_kbps": list(ladder), "window": window})
    assert status == 200 and 0 <= body["level"] < len(ladder)
    status, _ = service.handle_decide(bundle, {"ladder_kbps": [300.0, 750.0, 1200.0, 1850.0], "window": window})
    assert status == 400
    capsys.readouterr()


def test_eval_prints_throughput_per_algorithm(sweep_lab, tmp_path, capsys):
    """One stdout line per algorithm carries its session count and sessions/s; the report files do not change."""
    config = _run_config(tmp_path, {"manifest": str(sweep_lab / "manifest.json"),
                                    "corpus_index": str(sweep_lab / "traces" / "corpus.json"),
                                    "algorithms": [{"name": "bb"}, {"name": "rb"}]})
    reports = []
    for _ in range(2):
        capsys.readouterr()
        assert run(["eval", "--config", config]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name, line in zip(("bb", "rb"), lines):
            assert re.fullmatch(
                rf"\s*{name}: mean QoE [+-][0-9.]+ \+- [0-9.]+; 2 sessions in [0-9.]+ s \([0-9.]+ sessions/s\)", line
            ), line
        assert re.fullmatch(r"evaluated 4 sessions in [0-9.]+ s \([0-9.]+ sessions/s\)", lines[2])
        reports.append({name: (tmp_path / "out" / name).read_bytes() for name in ("report.json", "summary.csv", "cdf.csv")})
    assert reports[0] == reports[1]
    assert not any(b"sessions/s" in data for data in reports[0].values())
