"""Output checks: the written CSV against the per-task reference.

A task is one (strategy, alpha, weight_u2, realization) key; its K CSV rows
give the per-user totals.  WASR is normalized by the sum of the weights
(unit weights in esr-alpha mode, (1, weight_u2) in region mode), so one
tolerance serves every workload.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

# 10x the AO convergence_eps, in normalized WASR (bit/s/Hz per unit weight).
TOL = 1e-3
NESTED_PAIRS = (("dpcrs1", "dpc"), ("rs1", "mulp"))  # (superset, subset)


def task_key(row: dict) -> str:
    return "|".join((row["strategy"], row["alpha"], row["weight_u2"], row["realization"]))


def read_tasks(path: Path, columns: list[str], num_users: int) -> tuple[dict, list[str]]:
    """Per-task {"status", "wasr_norm"} from one CSV, plus its format problems.

    ``wasr_norm`` is None for an infeasible task and NaN when a feasible task
    reports a non-finite rate.
    """
    problems: list[str] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != columns:
            return {}, [f"{path}: columns {reader.fieldnames} != {columns}"]
        rows = list(reader)
    grouped: dict[str, list[dict]] = {}
    for row in rows:
        grouped.setdefault(task_key(row), []).append(row)
    tasks = {}
    for key, group in grouped.items():
        if sorted(int(r["user"]) for r in group) != list(range(num_users)):
            problems.append(f"{path}: task {key} has users {[r['user'] for r in group]}")
            continue
        status = group[0]["status"]
        if status == "infeasible":
            tasks[key] = {"status": status, "wasr_norm": None}
            continue
        w2 = float(group[0]["weight_u2"])
        weights = [1.0, w2] if math.isfinite(w2) else [1.0] * num_users
        rates = [float(r["rate_total"]) for r in sorted(group, key=lambda r: int(r["user"]))]
        tasks[key] = {
            "status": status,
            "wasr_norm": sum(w * r for w, r in zip(weights, rates)) / sum(weights),
        }
    return tasks, problems


def failures(tasks: dict, reference: dict) -> list[str]:
    """Reference tasks that are missing, non-finite, newly infeasible or worse by > TOL."""
    out = [f"unexpected task {key}" for key in tasks if key not in reference]
    for key, ref in reference.items():
        got = tasks.get(key)
        if got is None:
            out.append(f"missing task {key}")
        elif got["wasr_norm"] is None:
            if ref["wasr_norm"] is not None:
                out.append(f"{key}: infeasible, reference {ref['wasr_norm']:.6f}")
        elif not math.isfinite(got["wasr_norm"]):
            out.append(f"{key}: non-finite WASR")
        elif ref["wasr_norm"] is not None and got["wasr_norm"] < ref["wasr_norm"] - TOL:
            out.append(f"{key}: WASR {got['wasr_norm']:.6f} < reference {ref['wasr_norm']:.6f}")
    return out


def nesting_violations(tasks: dict) -> int:
    """(grid point, realization) pairs where a superset strategy loses by > TOL."""
    by_point: dict[str, dict[str, float]] = {}
    for key, task in tasks.items():
        strategy, point = key.split("|", 1)
        if task["wasr_norm"] is not None and math.isfinite(task["wasr_norm"]):
            by_point.setdefault(point, {})[strategy] = task["wasr_norm"]
    return sum(
        any(
            sup in values and sub in values and values[sub] - values[sup] > TOL
            for sup, sub in NESTED_PAIRS
        )
        for values in by_point.values()
    )


def wasr_mean(tasks: dict) -> float:
    values = [t["wasr_norm"] for t in tasks.values()
              if t["wasr_norm"] is not None and math.isfinite(t["wasr_norm"])]
    return sum(values) / len(values) if values else math.nan
