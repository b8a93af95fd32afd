"""Record the per-task reference that run.py checks every sweep against.

    python3 benchmark/record_reference.py

Run from the repository root, only when a change is meant to move the
answers; say which tasks moved and why next to the change.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import outputs
import run
import workloads

CSV_COLUMNS = [
    "experiment_id", "strategy", "alpha", "weight_u2", "realization", "user",
    "rate_total", "common_c0", "esr", "se", "iters", "status", "seed",
]


def main() -> int:
    root = Path.cwd()
    out = run.HERE / "out"
    out.mkdir(exist_ok=True)
    recorded = {}
    for workload in workloads.WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=0, seconds=0.0, trace=0)
        result = run.run_child(root, out, args, time.monotonic() + 600.0)
        tasks, problems = outputs.read_tasks(
            Path(result["reps"][0]["csv"]), CSV_COLUMNS, workloads.num_users(workload))
        if problems or len(tasks) != workloads.tasks_per_sweep(workload):
            print("\n".join(problems) or "wrong task count", file=sys.stderr)
            return 1
        recorded[workload] = {
            "nesting_violations": outputs.nesting_violations(tasks),
            "tasks": dict(sorted(tasks.items())),
        }
        print(f"{workload}: {len(tasks)} tasks, "
              f"{recorded[workload]['nesting_violations']} nesting violations")
    run.REFERENCE.write_text(json.dumps(
        {"csv_columns": CSV_COLUMNS, "tolerance": outputs.TOL, "workloads": recorded},
        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
