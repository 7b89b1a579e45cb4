"""abrlab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds nothing: the program is imported
from ``src/`` of the same checkout, and the run stops with an error if it is
not there.  Workloads: desk-pipeline, eval-corpus, decide-http, or ``all``
(each in its own process).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A full record, with the environment, is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("desk-pipeline", "eval-corpus", "decide-http")
DEFAULT_SEED = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
]


def import_program():
    """Import abrlab from this checkout's ``src/``; None when it is missing."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import abrlab
    except ImportError:
        return None
    origin = Path(abrlab.__file__).resolve()
    return abrlab if (ROOT / "src") in origin.parents else None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(result) -> dict[str, float]:
    return {
        "setup_s": statistics.median(result.setup_s),
        "op_p50_ms": result.op_p50_ms,
        "throughput_per_s": result.throughput_per_s,
    }


def run_one(args) -> int:
    if import_program() is None:
        print(f"abrlab not found under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    import common
    import decide
    import desk
    import evalcorpus

    runner = {"desk-pipeline": desk.run, "eval-corpus": evalcorpus.run, "decide-http": decide.run}[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = runner(common.Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), work=work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        from layers import PER_LAYER

        metrics = {name: {"value": result.layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": v, "unit": unit} for (name, unit), v in zip(END_TO_END, end_to_end(result).values())}
    line = {
        "correct": not result.unexpected,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        "setup_runs_s": result.setup_s,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in result.figures.items()},
        "unexpected_failures": result.unexpected[:50],
        "known_defects": result.known,
        "details": result.details,
        **line,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    if result.spans:
        from spans import dump_spans

        dump_spans(result.spans, results / f"{args.workload}-seed{args.seed}.spans.json")

    print(f"# env {json.dumps(record['env'])}")
    for name, (value, unit) in result.figures.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {args.workload} attempted {result.attempted}, failed {result.failed}, "
          f"unexpected {len(result.unexpected)}; record in {out.relative_to(ROOT)}")
    for defect, count in result.known.items():
        print(f"# {args.workload} known defect {defect}: {count} of {result.attempted} operations")
    for problem in result.unexpected[:10]:
        print(f"# unexpected failure: {problem}")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line sums attempts and prefixes metric names."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        total["metrics"].update({f"{workload}/{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread on every side of every comparison, in this process and
    # the ones it starts; set before anything imports numpy.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
