"""In-memory spans around noumopt's layer functions, installed by rebinding.

The library modules import their collaborators by name (``from .ipm import
solve_primal_dual``), so a layer is wrapped at the module attribute its
caller looks up, not where it is defined.  Spans stay in memory and are
written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = "experiments.sweep"
TASK_START = "channel.estimate"

# (module under noumopt, attribute the caller looks up, span name)
LAYER_BINDINGS = (
    ("experiments", "draw_estimate", "channel.estimate"),
    ("experiments", "draw_sample_set", "channel.sample_set"),
    ("experiments", "optimize_strategy", "ao.task"),
    ("ao", "optimize", "ao.run"),
    ("ao", "sampled_average_rates", "strategies.rate_eval"),
    ("ao", "update_equalizers_weights", "wmmse.update"),
    ("ao", "assemble_coefficients", "wmmse.assemble"),
    ("ao", "build_subproblem", "subproblem.build"),
    ("ao", "solve", "subproblem.solve"),
    # Fallbacks only: phase-1's own barrier call goes through ipm's binding.
    ("subproblem", "solve_primal_dual", "ipm.pd"),
    ("subproblem", "solve_barrier", "ipm.barrier"),
    ("subproblem", "find_strictly_feasible", "ipm.phase1"),
)
# The untraced run times tasks only: one wrapper per task.
TASK_BINDINGS = (("experiments", "optimize_strategy", "ao.task"),)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span
    task: int | None        # counts TASK_START spans; None before the first
    iterations: int | None = None
    status: str | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._task: int | None = None

    def _open(self, name: str) -> int:
        if name == TASK_START:
            self._task = 0 if self._task is None else self._task + 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self._task))
        self._stack.append(index)
        return index

    def _close(self, index: int, result: object = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        iterations = getattr(result, "iterations", None)
        span.iterations = int(iterations) if iterations is not None else None
        status = getattr(result, "status", None)
        span.status = str(status) if status is not None else None

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, result)
        return traced

    def write(self, path: Path, rep: int) -> None:
        with open(path, "a") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"rep": rep, "id": index, **asdict(span)}) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer, bindings):
    """Rebind each (module, attribute, span name) to a traced wrapper.

    Every original binding is restored on exit, also when the body raises, so
    tracing cannot leak into a later untraced sweep.
    """
    originals = []
    try:
        for module, attr, name in bindings:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((span.end - span.start) - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one traced sweep (root span included)."""
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[Span, float]]] = defaultdict(list)
    for span, own in zip(spans, selfs):
        by_name[span.name].append((span, own))

    def count(name, status=None):
        return sum(1 for s, _ in by_name[name] if status is None or s.status == status)

    def seconds(name, status=None):
        return sum(own for s, own in by_name[name] if status is None or s.status == status)

    def iterations(name):
        return [s.iterations or 0 for s, _ in by_name[name]]

    (root, root_self), = by_name[ROOT]
    rate_evals = count("strategies.rate_eval")
    ao_iters = iterations("ao.run")
    pd_calls = count("ipm.pd")
    return {
        "channel.draws": count("channel.sample_set"),
        "channel.draw_s": seconds("channel.estimate") + seconds("channel.sample_set"),
        "strategies.rate_evals": rate_evals,
        "strategies.rate_eval_s": seconds("strategies.rate_eval"),
        "strategies.rate_eval_ms": 1e3 * seconds("strategies.rate_eval") / max(rate_evals, 1),
        "strategies.evals_per_ao_iter": rate_evals / max(sum(ao_iters), 1),
        "wmmse.updates": count("wmmse.update"),
        "wmmse.update_s": seconds("wmmse.update"),
        "wmmse.assemble_s": seconds("wmmse.assemble"),
        "subproblem.solves": count("subproblem.solve"),
        "subproblem.build_s": seconds("subproblem.build"),
        "subproblem.solve_self_s": seconds("subproblem.solve"),
        "subproblem.infeasible": count("subproblem.solve", "infeasible"),
        "subproblem.max_iter": count("subproblem.solve", "max_iter"),
        "ipm.pd_calls": pd_calls,
        "ipm.pd_iters": sum(iterations("ipm.pd")),
        "ipm.pd_s": seconds("ipm.pd"),
        "ipm.pd_max_iter_exits": count("ipm.pd", "max_iter"),
        "ipm.pd_max_iter_s": seconds("ipm.pd", "max_iter"),
        "ipm.pd_stalls": count("ipm.pd", "stalled"),
        "ipm.pd_optimal_ratio": count("ipm.pd", "optimal") / max(pd_calls, 1),
        "ipm.barrier_calls": count("ipm.barrier"),
        "ipm.barrier_iters": sum(iterations("ipm.barrier")),
        "ipm.barrier_s": seconds("ipm.barrier"),
        "ipm.phase1_calls": count("ipm.phase1"),
        "ipm.phase1_s": seconds("ipm.phase1"),
        "ao.runs": len(ao_iters),
        "ao.iters": sum(ao_iters),
        "ao.iters_max": max(ao_iters, default=0),
        "ao.max_iter_exits": count("ao.run", "max_iter"),
        "ao.self_s": seconds("ao.task") + seconds("ao.run"),
        "experiments.self_s": root_self,
        "trace.sweep_s": root.end - root.start,
    }


# Layer self times that, with experiments.self_s, partition trace.sweep_s.
SELF_TIME_METRICS = (
    "channel.draw_s", "strategies.rate_eval_s", "wmmse.update_s", "wmmse.assemble_s",
    "subproblem.build_s", "subproblem.solve_self_s", "ipm.pd_s", "ipm.barrier_s",
    "ipm.phase1_s", "ao.self_s", "experiments.self_s",
)
