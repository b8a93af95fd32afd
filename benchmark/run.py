"""noumopt benchmark: run one study workload and print its metrics.

    python3 benchmark/run.py --workload esr-k2-lowcsit --seed 0 --seconds 40 --trace 0

Run from the repository root.  The workload runs in a fresh child
interpreter (benchmark/sweep.py) with ``threads=1`` and BLAS pinned to one
thread, importing noumopt from ``src/``.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outputs
import spans
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DECLARED = HERE.parent / "BENCHMARK.json"
SETUP_PROBES = 2  # set-up-only interpreters; the measuring child adds one more sample
RUN_LIMIT_S = 170.0
THREAD_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root: Path, out: Path, args: argparse.Namespace, deadline: float,
              setup_only: bool = False) -> dict:
    """Start sweep.py in a fresh interpreter and return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload child exceeded the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"workload child failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("workload child printed no result")
    return json.loads(lines[-1])


def check_outputs(result: dict, workload: str) -> dict:
    """Compare every sweep's CSV with the reference; return the counts."""
    ref = json.loads(REFERENCE.read_text())
    reference = ref["workloads"][workload]["tasks"]
    k = workloads.num_users(workload)
    attempted = failed = 0
    problems: list[str] = []
    for rep in result["reps"]:
        tasks, format_problems = outputs.read_tasks(Path(rep["csv"]), ref["csv_columns"], k)
        task_failures = outputs.failures(tasks, reference)
        attempted += len(reference)
        failed += len(reference) if format_problems else len(task_failures)
        problems += format_problems + task_failures
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "tasks": len(reference),
        "nesting_violations": outputs.nesting_violations(tasks),
        "wasr_mean": outputs.wasr_mean(tasks),
    }


def end_to_end(result: dict, setup_samples: list[float], checked: dict) -> dict:
    reps = [r for r in result["reps"] if not r["traced"]]
    per_task = [statistics.median(times) for times in zip(*(r["task_s"] for r in reps))]
    return {
        "setup_s": statistics.median(setup_samples),
        "sweep_s": statistics.median(r["sweep_s"] for r in reps),
        "task_p50_s": statistics.median(per_task),
        "task_max_s": max(per_task),
        "wasr_mean": checked["wasr_mean"],
        "peak_rss_mib": result["peak_rss_mib"],
    }


def per_layer(result: dict) -> dict:
    """Layers of the traced sweep with the median time, and the tracing overhead."""
    untraced = statistics.median(r["sweep_s"] for r in result["reps"] if not r["traced"])
    traced = sorted((r for r in result["reps"] if r["traced"]), key=lambda r: r["sweep_s"])
    layers = dict(traced[(len(traced) - 1) // 2]["layers"])
    layers["trace.overhead_share"] = layers["trace.sweep_s"] / untraced - 1.0
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "noumopt" / "__init__.py").is_file():
        print(f"benchmark: no src/noumopt under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    try:
        setup = [run_child(root, out, args, deadline, setup_only=True)["setup_s"]
                 for _ in range(SETUP_PROBES)]
        result = run_child(root, out, args, deadline)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if not Path(result["noumopt_file"]).resolve().is_relative_to(root / "src"):
        print(f"benchmark: imported {result['noumopt_file']}, not {root / 'src'}", file=sys.stderr)
        return 1
    setup.append(result["setup_s"])
    checked = check_outputs(result, args.workload)
    values = per_layer(result) if args.trace else end_to_end(result, setup, checked)
    declared = json.loads(DECLARED.read_text())["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print(f"benchmark: metrics {sorted(values)} differ from {DECLARED.name}", file=sys.stderr)
        return 1
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}

    env = result["env"]
    pins = ",".join(f"{k}={v}" for k, v in THREAD_PINS.items())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sweeps {len(result['reps'])}  tasks/sweep {checked['tasks']}")
    print(f"env python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  pins {pins}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:30s} {shown} {unit}")
    print(f"  {'nesting_violations':30s} {checked['nesting_violations']:14d} count")
    print(f"  {'failed_share':30s} {checked['failed'] / checked['attempted']:14.6f} ratio "
          f"({checked['failed']}/{checked['attempted']} tasks)")
    if args.trace:
        parts = sum(metrics[name][0] for name in spans.SELF_TIME_METRICS)
        print(f"  layer self times sum to {parts:.6f} s of trace.sweep_s "
              f"{metrics['trace.sweep_s'][0]:.6f} s; spans in {result['span_file']}")
    for problem in checked["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
