"""Summarise the run records in .perfbench/results/ into one file per workload.

    python3 perfbench/collect.py --out perfbench/baseline

For each workload: the environment, every untraced run (seed, metrics,
named figures, attempted, failed, known defects), the median, quartiles and
quartile spread of each metric, the failed share, the operations showing each
known defect, and the per-layer metrics of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "n": len(values)}


def collect(records: list[dict]) -> dict:
    untraced = sorted((r for r in records if not r["trace"]), key=lambda r: r["env"]["seed"])
    traced = sorted((r for r in records if r["trace"]), key=lambda r: r["env"]["seed"])
    metrics = {name for r in untraced for name in r["metrics"]}
    figures = {name for r in untraced for name in r["figures"]}
    attempted = sum(r["attempted"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    known: dict[str, int] = {}
    for r in untraced:
        for defect, count in r["known_defects"].items():
            known[defect] = known.get(defect, 0) + count
    return {
        "env": {k: v for k, v in (untraced or traced)[0]["env"].items() if k != "seed"},
        "seconds": (untraced or traced)[0]["seconds"],
        "runs": [
            {
                "seed": r["env"]["seed"],
                "correct": r["correct"],
                "attempted": r["attempted"],
                "failed": r["failed"],
                "known_defects": r["known_defects"],
                "metrics": {k: m["value"] for k, m in r["metrics"].items()},
                "figures": {k: f["value"] for k, f in r["figures"].items()},
            }
            for r in untraced
        ],
        "metrics": {m: summary([r["metrics"][m]["value"] for r in untraced]) for m in sorted(metrics)},
        "figures": {
            f: summary([r["figures"][f]["value"] for r in untraced if f in r["figures"]]) for f in sorted(figures)
        },
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else None,
        "known_defects": known,
        "all_correct": all(r["correct"] for r in untraced + traced),
        "traced": [
            {"seed": r["env"]["seed"], "metrics": {k: m["value"] for k, m in r["metrics"].items()},
             "details": r["details"]}
            for r in traced
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--results", default=str(ROOT / ".perfbench" / "results"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(Path(args.results).glob("*-trace[01]-seed*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        by_workload.setdefault(record["workload"], []).append(record)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for workload, records in sorted(by_workload.items()):
        doc = collect(records)
        (out / f"{workload}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        spreads = {m: round(s["spread"], 3) for m, s in doc["metrics"].items() if s["spread"] is not None}
        print(f"{workload}: {len(doc['runs'])} runs, failed share {doc['failed_share']}, spreads {spreads}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
