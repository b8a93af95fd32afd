"""Child process of the benchmark: set up one workload and run its sweeps.

    python3 benchmark/sweep.py --workload NAME --seed N --seconds S --trace 0|1
                               --t0 MONOTONIC --out DIR [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
interpreter (CLOCK_MONOTONIC is system-wide), so ``setup_s`` covers the
interpreter start, ``import noumopt`` and building the spec.  The last line
of stdout is one JSON object; run.py turns it into the benchmark's metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import noumopt
from noumopt import experiments

import spans
import workloads


def _run_sweep(spec, mode: str, csv_path: Path, tracer: spans.Tracer, bindings) -> float:
    study = experiments.run_region if mode == "region" else experiments.run_esr_alpha
    modules = [(importlib.import_module(f"noumopt.{m}"), attr, name) for m, attr, name in bindings]
    start = time.perf_counter()
    with spans.installed(tracer, modules), tracer.span(spans.ROOT):
        records = study(spec, threads=1)
        experiments.write_csv(records, csv_path)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    mode = workloads.WORKLOADS[args.workload]["mode"]
    spec = experiments.spec_from_dict(workloads.seeded_config(args.workload, args.seed))
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Closed loop, one process, tasks back to back.  Another sweep starts only
    # while one more of average length still fits in --seconds; a traced run
    # alternates untraced and traced sweeps and makes at least one of each.
    prefix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    span_path = args.out / f"{prefix}-spans.jsonl"
    reps = []
    traced_tracers = []
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        csv_path = args.out / f"{prefix}-rep{len(reps)}.csv"
        tracer = spans.Tracer()
        bindings = spans.LAYER_BINDINGS if traced else spans.TASK_BINDINGS
        sweep_s = _run_sweep(spec, mode, csv_path, tracer, bindings)
        rep = {
            "traced": traced,
            "sweep_s": sweep_s,
            "task_s": [s.end - s.start for s in tracer.spans if s.name == "ao.task"],
            "csv": str(csv_path),
        }
        if traced:
            rep["layers"] = spans.layer_metrics(tracer.spans)
            rep["layers"]["experiments.csv_bytes"] = csv_path.stat().st_size
            traced_tracers.append((len(reps), tracer))
        reps.append(rep)
        elapsed = time.perf_counter() - loop_start
        if args.trace and len(reps) < 2:
            continue
        if elapsed + elapsed / len(reps) > args.seconds:
            break

    span_path.unlink(missing_ok=True)
    for index, tracer in traced_tracers:
        tracer.write(span_path, index)
    print(json.dumps({
        "setup_s": setup_s,
        "reps": reps,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "noumopt_file": noumopt.__file__,
        "env": {
            "python": platform.python_version(),
            "numpy": importlib.import_module("numpy").__version__,
            "scipy": importlib.import_module("scipy").__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
        "span_file": str(span_path) if args.trace else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
