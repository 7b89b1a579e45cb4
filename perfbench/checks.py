"""Output checks.  Each returns a list of problems; an empty list means the output is correct."""

from __future__ import annotations

import json
import math
from pathlib import Path

REPORT_FILES = ("report.json", "summary.csv", "cdf.csv")
IDENTITY_TOL = 1e-9


def aggregate_identity(aggregates: list[dict]) -> list[str]:
    """``mean_qoe == utility - rebuffer_penalty - smoothness_penalty`` for every row."""
    problems = []
    for row in aggregates:
        parts = row["utility"] - row["rebuffer_penalty"] - row["smoothness_penalty"]
        if not abs(row["mean_qoe"] - parts) <= IDENTITY_TOL:
            problems.append(f"{row['algorithm']}: mean_qoe {row['mean_qoe']!r} != components {parts!r}")
    return problems


def report_files(output_dir: str | Path) -> list[str]:
    out = Path(output_dir)
    return [f"missing {name}" for name in REPORT_FILES if not (out / name).is_file()]


def load_aggregates(output_dir: str | Path) -> list[dict]:
    doc = json.loads((Path(output_dir) / "report.json").read_text(encoding="utf-8"))
    return doc["aggregates"]


def golden_rows(aggregates: list[dict], golden: dict[str, dict]) -> list[str]:
    """Rows named in ``golden`` must equal it field for field, bit for bit."""
    problems = []
    rows = {row["algorithm"]: row for row in aggregates}
    for name, expected in golden.items():
        if name not in rows:
            problems.append(f"{name}: aggregate row missing")
        elif rows[name] != expected:
            problems.append(f"{name}: aggregate row differs from the golden row")
    return problems


def eval_report(output_dir: str | Path, golden: dict[str, dict] | None) -> list[str]:
    """One ``abrlab eval`` output: files written, identity holds, golden rows match."""
    problems = report_files(output_dir)
    if problems:
        return problems
    aggregates = load_aggregates(output_dir)
    problems = aggregate_identity(aggregates)
    if golden is not None:
        problems += golden_rows(aggregates, golden)
    return problems


def pipeline_report(output_dir: str | Path, algorithms: tuple[str, ...]) -> list[str]:
    """Desk pipeline output: files written, identity, every algorithm present, dt finite."""
    problems = report_files(output_dir)
    if problems:
        return problems
    aggregates = load_aggregates(output_dir)
    problems = aggregate_identity(aggregates)
    rows = {row["algorithm"]: row["mean_qoe"] for row in aggregates}
    if sorted(rows) != sorted(algorithms):
        return problems + [f"report rows {sorted(rows)} != {sorted(algorithms)}"]
    if not math.isfinite(rows["dt"]):
        problems.append(f"dt mean QoE is not finite: {rows['dt']!r}")
    return problems


def dp_on_top(output_dir: str | Path) -> list[str]:
    """The offline-optimal dp row must be at least every other row."""
    rows = {row["algorithm"]: row["mean_qoe"] for row in load_aggregates(output_dir)}
    return [f"dp {rows['dp']!r} < {name} {v!r}" for name, v in rows.items() if v > rows["dp"]]


def decide_answer(expected_status: int, expected_body: dict | None, status: int | None, body: dict | None) -> str | None:
    """Compare one /decide answer with its reference; None when it matches.

    A valid request must repeat the sequential reference exactly (status,
    level and r_hat); a malformed one only needs its 400.
    """
    if status is None:
        return "no response"
    if status != expected_status:
        return f"status {status}, expected {expected_status}"
    if expected_status != 200:
        return None
    if not isinstance(body, dict) or body.get("level") != expected_body["level"] or body.get("r_hat") != expected_body["r_hat"]:
        return f"answer {body!r}, expected {expected_body!r}"
    return None
