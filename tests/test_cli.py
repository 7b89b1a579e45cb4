from __future__ import annotations

import json
import re

import numpy as np
import pytest

from abrlab import cli, estimator as est, expert, qoe, traces


def run(argv) -> int:
    return cli.main(argv)


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
    # Planner throughput and the peak frontier go to stdout, not into the trajectories.
    last = capsys.readouterr().out.splitlines()[-1]
    match = re.fullmatch(
        r"planned 4 sessions in [0-9.]+ s \([0-9.]+ sessions/s\); "
        r"peak frontier (\d+) of max_states 3000000 candidate states",
        last,
    )
    assert match and 6 <= int(match.group(1)) <= 3_000_000
    assert "frontier" not in traj_path.read_text()

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
    assert abs(float(match.group(3)) / float(match.group(2)) - 96) <= 0.01 * 96

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
])
def test_train_dt_refuses_bad_settings(tmp_path, capsys, args, reason):
    """A refused setting or file exits with status 2 and its reason, and writes no checkpoint."""
    rng = np.random.default_rng(0)
    traj = expert.Trajectory("t", np.arange(6), rng.random((6, 10)), rng.random(6), np.eye(6)[rng.integers(0, 6, 6)])
    traj_path, dt_path = tmp_path / "expert.jsonl", tmp_path / "dt.npz"
    expert.save_trajectories([traj], traj_path)
    if isinstance(args, str):  # a trajectory file with no trajectory in it
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
