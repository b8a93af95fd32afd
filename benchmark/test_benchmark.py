"""Self-tests of the benchmark's own arithmetic, checks and rebinding."""
from __future__ import annotations

import importlib
import math
import types

import pytest

import outputs
import spans
import workloads
from spans import Span


def _span(name, start, end, parent=None):
    return Span(name, float(start), float(end), parent, None)


def test_self_time_subtracts_children_union():
    tree = [
        _span("root", 0, 10),
        _span("a", 1, 4, parent=0),
        _span("a.inner", 2, 3, parent=1),
        _span("b", 5, 9, parent=0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(tree)) == 10.0


def test_self_time_merges_overlapping_and_clips_children():
    tree = [
        _span("root", 0, 10),
        _span("x", 1, 4, parent=0),
        _span("y", 3, 6, parent=0),    # overlaps x: union 1..6 covers 5
        _span("z", 8, 12, parent=0),   # runs past the parent: only 8..10 counts
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10 - 5 - 2)


def test_layer_self_times_partition_the_sweep():
    tree = [
        _span(spans.ROOT, 0.0, 20.0),
        _span("channel.estimate", 0.5, 1.0, parent=0),
        _span("channel.sample_set", 1.0, 2.0, parent=0),
        _span("ao.task", 2.0, 19.0, parent=0),
        _span("ao.run", 2.5, 18.0, parent=3),
        _span("strategies.rate_eval", 3.0, 4.0, parent=4),
        _span("wmmse.update", 4.0, 5.0, parent=4),
        _span("wmmse.assemble", 5.0, 6.5, parent=4),
        _span("subproblem.build", 6.5, 7.0, parent=4),
        _span("subproblem.solve", 7.0, 16.0, parent=4),
        _span("ipm.phase1", 7.5, 8.0, parent=9),
        _span("ipm.pd", 8.0, 14.0, parent=9),
        _span("ipm.barrier", 14.0, 15.0, parent=9),
    ]
    tree[11].status, tree[11].iterations = "max_iter", 200
    tree[4].iterations = 3
    metrics = spans.layer_metrics(tree)
    assert sum(metrics[name] for name in spans.SELF_TIME_METRICS) == pytest.approx(20.0)
    assert metrics["trace.sweep_s"] == 20.0
    assert metrics["ipm.pd_max_iter_exits"] == 1 and metrics["ipm.pd_max_iter_s"] == 6.0
    assert metrics["ao.self_s"] == pytest.approx((19 - 2 - 15.5) + (15.5 - 13))
    assert metrics["subproblem.solve_self_s"] == pytest.approx(9.0 - 7.5)
    assert metrics["strategies.evals_per_ao_iter"] == pytest.approx(1 / 3)


def test_bindings_restored_after_exit_and_error():
    module = types.ModuleType("fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return module.leaf(x) * 2

    module.leaf, module.outer = leaf, outer
    tracer = spans.Tracer()
    bindings = [(module, "leaf", "leaf"), (module, "outer", "outer")]
    with spans.installed(tracer, bindings):
        assert module.leaf is not leaf
        assert module.outer(1) == 4
    assert module.leaf is leaf and module.outer is outer
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("leaf", 0)]

    with pytest.raises(ZeroDivisionError):
        with spans.installed(tracer, bindings):
            module.leaf = lambda x: 1 / 0   # raises inside a traced call path
            module.outer(1)
    assert module.leaf is leaf and module.outer is outer


def test_wrapper_closes_span_when_the_layer_raises():
    module = types.ModuleType("fake")

    def broken():
        raise ValueError("layer failed")

    module.broken = broken
    tracer = spans.Tracer()
    with spans.installed(tracer, [(module, "broken", "broken")]), tracer.span("root"):
        with pytest.raises(ValueError):
            module.broken()
    assert all(math.isfinite(s.end) for s in tracer.spans)
    assert tracer.spans[1].parent == 0


def test_layer_bindings_name_existing_functions():
    for module, attr, _ in spans.LAYER_BINDINGS:
        assert callable(getattr(importlib.import_module(f"noumopt.{module}"), attr))


def _task(wasr, status="converged"):
    return {"status": status, "wasr_norm": wasr}


def test_nesting_violations_count_points_not_pairs():
    tasks = {
        # both pairs lose at alpha=0.5: one violating point
        "dpcrs1|0.5|nan|0": _task(4.0), "dpc|0.5|nan|0": _task(4.01),
        "rs1|0.5|nan|0": _task(3.0), "mulp|0.5|nan|0": _task(3.5),
        # within tolerance at alpha=0.9
        "dpcrs1|0.9|nan|0": _task(5.0), "dpc|0.9|nan|0": _task(5.0 + 0.5 * outputs.TOL),
        # an infeasible superset is not a violation
        "rs1|0.9|nan|0": _task(None, "infeasible"), "mulp|0.9|nan|0": _task(6.0),
    }
    assert outputs.nesting_violations(tasks) == 1


def test_reference_comparison_counts_each_failure_kind():
    reference = {
        "a|0.1|nan|0": _task(1.0), "b|0.1|nan|0": _task(1.0), "c|0.1|nan|0": _task(1.0),
        "d|0.1|nan|0": _task(1.0), "e|0.1|nan|0": _task(1.0), "f|0.1|nan|0": _task(1.0),
        "g|0.1|nan|0": _task(None, "infeasible"),
    }
    tasks = {
        "a|0.1|nan|0": _task(1.0 - 0.5 * outputs.TOL),   # within tolerance
        "b|0.1|nan|0": _task(2.0),                       # better is fine
        "c|0.1|nan|0": _task(1.0 - 2 * outputs.TOL),     # worse: fails
        "d|0.1|nan|0": _task(None, "infeasible"),        # newly infeasible: fails
        "e|0.1|nan|0": _task(math.nan),                  # non-finite: fails
        # f missing: fails
        "g|0.1|nan|0": _task(0.5),                       # newly feasible is fine
        "h|0.1|nan|0": _task(1.0),                       # unexpected: fails
    }
    found = outputs.failures(tasks, reference)
    assert len(found) == 5
    assert {f.split(":")[0].split()[-1] for f in found} == {
        "c|0.1|nan|0", "d|0.1|nan|0", "e|0.1|nan|0", "f|0.1|nan|0", "h|0.1|nan|0"}


COLUMNS = ["strategy", "alpha", "weight_u2", "realization", "user", "rate_total", "status"]


def _write(path, rows, columns=COLUMNS):
    path.write_text("\n".join([",".join(columns)] + [",".join(r) for r in rows]) + "\n")


def test_read_tasks_normalizes_wasr_by_the_weights(tmp_path):
    path = tmp_path / "region.csv"
    _write(path, [
        ("rs1", "0.6", "10.0", "0", "0", "2.0", "converged"),
        ("rs1", "0.6", "10.0", "0", "1", "1.0", "converged"),
        ("mulp", "0.6", "10.0", "0", "0", "nan", "infeasible"),
        ("mulp", "0.6", "10.0", "0", "1", "nan", "infeasible"),
    ])
    tasks, problems = outputs.read_tasks(path, COLUMNS, 2)
    assert problems == []
    assert tasks["rs1|0.6|10.0|0"]["wasr_norm"] == pytest.approx((2.0 + 10.0) / 11.0)
    assert tasks["mulp|0.6|10.0|0"]["wasr_norm"] is None

    path = tmp_path / "esr.csv"
    _write(path, [("dpc", "0.5", "nan", "0", str(k), str(k + 1.0), "converged") for k in range(3)])
    tasks, _ = outputs.read_tasks(path, COLUMNS, 3)
    assert tasks["dpc|0.5|nan|0"]["wasr_norm"] == pytest.approx(2.0)


def test_read_tasks_reports_format_problems(tmp_path):
    path = tmp_path / "bad.csv"
    _write(path, [("dpc", "0.5", "nan", "0", "0", "1.0", "converged")])
    assert outputs.read_tasks(path, COLUMNS, 2)[1]           # a user row is missing
    _write(path, [], columns=COLUMNS[:-1])
    assert outputs.read_tasks(path, COLUMNS, 2)[1]           # a column is missing


def test_seed_permutes_order_but_not_tasks():
    experiments = importlib.import_module("noumopt.experiments")
    for name in workloads.WORKLOADS:
        base = workloads.WORKLOADS[name]["config"]
        configs = [workloads.seeded_config(name, seed) for seed in range(6)]
        assert workloads.seeded_config(name, 3) == configs[3]
        assert sorted(configs[0]["strategies"]) == sorted(base["strategies"])
        if "threshold_schedule" in base:
            pairs = set(zip(base["alpha_grid"], base["threshold_schedule"]))
            assert all(set(zip(c["alpha_grid"], c["threshold_schedule"])) == pairs
                       for c in configs)
        assert len({tuple(c["strategies"]) for c in configs}) > 1
        for config in configs:
            experiments.spec_from_dict(config)


def test_reported_metrics_match_benchmark_json():
    import json

    import run

    declared = json.loads(run.DECLARED.read_text())
    tree = [_span(spans.ROOT, 0.0, 2.0), _span("ao.task", 0.5, 1.5, parent=0)]
    layers = spans.layer_metrics(tree)
    layers["experiments.csv_bytes"] = 100
    result = {
        "reps": [
            {"traced": False, "sweep_s": 1.9, "task_s": [1.0], "csv": ""},
            {"traced": True, "sweep_s": 2.0, "task_s": [1.0], "csv": "", "layers": layers},
        ],
        "peak_rss_mib": 80.0,
    }
    e2e = run.end_to_end(result, [0.8], {"wasr_mean": 4.0})
    assert set(e2e) == {m["name"] for m in declared["end_to_end"]}
    assert set(run.per_layer(result)) == {m["name"] for m in declared["per_layer"]}
