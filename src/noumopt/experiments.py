"""Experiment harness: Monte Carlo rate-region and ESR-versus-alpha sweeps.

Every study fans out independent (strategy, grid point, realization) tasks,
each fully determined by the master seed and its indices, and collects the
records in task order, so the emitted CSV is byte-identical across runs and
across worker counts.  Infeasible realizations are recorded with
status=infeasible, never dropped.
"""
from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ao import ORDER_CAP, AoConfig, optimize_strategy
from .channel import SystemConfig, draw_estimate, draw_sample_set
from .strategies import Strategy

CSV_COLUMNS = (
    "experiment_id", "strategy", "alpha", "weight_u2", "realization", "user",
    "rate_total", "common_c0", "esr", "se", "iters", "status", "seed",
)

DEFAULT_WEIGHT_GRID = tuple(10.0 ** a for a in (-3, -2, -1, -0.5, 0, 0.5, 1, 2, 3))


class ConfigError(ValueError):
    """Invalid or unknown configuration content (CLI exit code 1)."""


class InfeasibleEverywhereError(RuntimeError):
    """Every realization of some (strategy, grid point) was infeasible (exit 2).

    ``records`` is the whole finalized sweep; those groups' esr and se are NaN.
    """

    def __init__(self, message: str, records: list[ResultRecord]):
        super().__init__(message)
        self.records = records


@dataclass(frozen=True)
class ExperimentSpec:
    system: SystemConfig
    strategies: tuple[Strategy, ...] = (
        Strategy.DPCRS1, Strategy.DPC, Strategy.RS1, Strategy.MULP,
    )
    sample_count: int = 100
    num_realizations: int = 10
    weight_grid: tuple[float, ...] = DEFAULT_WEIGHT_GRID
    alpha_grid: tuple[float, ...] = ()
    multicast_threshold: float = 0.0
    unicast_thresholds: tuple[float, ...] | None = None
    threshold_schedule: tuple[float, ...] | None = None
    ao: AoConfig = field(default_factory=AoConfig)

    def __post_init__(self):
        if self.sample_count < 1 or self.num_realizations < 1:
            raise ConfigError("sample_count and num_realizations must be >= 1")
        if not self.strategies:
            raise ConfigError("at least one strategy required")
        if any(len(set(grid)) != len(grid) for grid in (self.weight_grid, self.alpha_grid)):
            raise ConfigError("weight_grid and alpha_grid points must each be distinct")
        if self.multicast_threshold < 0:
            raise ConfigError("multicast_threshold must be >= 0")
        if self.unicast_thresholds is not None:
            if len(self.unicast_thresholds) != self.system.num_users:
                raise ConfigError("unicast_thresholds needs one entry per user")
            if any(t < 0 for t in self.unicast_thresholds):
                raise ConfigError("unicast_thresholds must be >= 0")
        if self.threshold_schedule is not None:
            if self.alpha_grid and len(self.threshold_schedule) != len(self.alpha_grid):
                raise ConfigError("threshold_schedule needs one entry per alpha grid point")
            if any(t < 0 for t in self.threshold_schedule):
                raise ConfigError("threshold_schedule entries must be >= 0")
        if self.system.num_users > ORDER_CAP and any(s.uses_dpc for s in self.strategies):
            raise ConfigError(
                f"num_users exceeds the order cap {ORDER_CAP} for a DPC-family strategy"
            )

    def resolved_unicast_thresholds(self) -> np.ndarray:
        if self.unicast_thresholds is None:
            return np.zeros(self.system.num_users)
        return np.asarray(self.unicast_thresholds, dtype=float)


# ---------------------------------------------------------------------------
# Config file handling (strict: unknown keys are errors)

def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def parse_strategies(names) -> tuple[Strategy, ...]:
    """Strategy tags from a config or the command line; ConfigError if unknown or repeated."""
    try:
        strategies = tuple(Strategy(name) for name in names)
    except ValueError as exc:
        raise ConfigError(f"unknown strategy: {exc}") from exc
    if len(set(strategies)) != len(strategies):
        raise ConfigError(f"strategies must be distinct, got {list(names)}")
    return strategies


def _integer(value) -> int:
    """An integral JSON number; booleans and fractions are errors, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A finite JSON number as a float; booleans, strings, null, NaN, infinities
    and integers beyond the float range are errors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"expected a finite number, got {value!r}")
    return result


def _floats(values) -> tuple[float, ...]:
    return tuple(_real(v) for v in values)


# One converter per SystemConfig field; together they are the allowed "system"
# keys.  Every field but master_seed is required.
_SYSTEM_CONVERTERS = {
    "num_users": _integer,
    "num_tx_antennas": _integer,
    "snr_db": _real,
    "csit_alpha": _real,
    "channel_variances": _floats,
    "master_seed": _integer,
}

# One converter per AoConfig field; together they are the allowed "ao" keys.
_AO_CONVERTERS = {
    "convergence_eps": _real,
    "max_iterations": _integer,
}


def _from_section(cls, converters: dict, section, where: str):
    """``cls`` built from a config section, each value through its key's converter."""
    section = dict(section)
    _check_keys(section, set(converters), where)
    return cls(**{key: converters[key](value) for key, value in section.items()})


def _system_config(section) -> SystemConfig:
    return _from_section(SystemConfig, _SYSTEM_CONVERTERS, section, "system")


def _ao_config(section) -> AoConfig:
    return _from_section(AoConfig, _AO_CONVERTERS, section, "ao")


def _optional_floats(values) -> tuple[float, ...] | None:
    return None if values is None else _floats(values)


# One converter per top-level key; together they are the allowed keys.
_CONVERTERS = {
    "system": _system_config,
    "strategies": parse_strategies,
    "sample_count": _integer,
    "num_realizations": _integer,
    "weight_grid": _floats,
    "alpha_grid": _floats,
    "multicast_threshold": _real,
    "unicast_thresholds": _optional_floats,
    "threshold_schedule": _optional_floats,
    "ao": _ao_config,
}


def spec_from_dict(config: dict) -> ExperimentSpec:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(config, set(_CONVERTERS), "config")
    if "system" not in config:
        raise ConfigError("config requires a 'system' section")
    kwargs: dict = {}
    try:
        for key, convert in _CONVERTERS.items():
            if key in config:
                kwargs[key] = convert(config[key])
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {key}: {exc}") from exc
    return ExperimentSpec(**kwargs)


def load_config(path: str | Path) -> dict:
    """Read a JSON config file into the mapping that ``spec_from_dict`` takes."""
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def spec_to_dict(spec: ExperimentSpec) -> dict:
    raw = dataclasses.asdict(spec)
    raw["strategies"] = [s.value for s in spec.strategies]
    raw["system"]["channel_variances"] = list(spec.system.channel_variances)
    return raw


def config_hash(spec: ExperimentSpec) -> str:
    canonical = json.dumps(spec_to_dict(spec), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Task execution

@dataclass(frozen=True)
class ResultRecord:
    """One CSV row: per (strategy, grid point, realization, user)."""

    experiment_id: str
    strategy: str
    alpha: float
    weight_u2: float
    realization: int
    user: int
    rate_total: float
    common_c0: float
    esr: float  # group aggregate, filled after collection
    se: float
    iters: int
    status: str
    seed: int


@dataclass(frozen=True)
class _Task:
    experiment_id: str
    spec: ExperimentSpec
    strategy: Strategy
    alpha: float
    weight_u2: float   # nan outside region mode
    weights: tuple[float, ...]
    unicast_thresholds: tuple[float, ...]
    realization: int


def _run_task(task: _Task) -> tuple[float, list[ResultRecord]]:
    """The task's weighted sum rate (nan if infeasible) and its K records, esr/se unset."""
    spec = task.spec
    cfg = replace(spec.system, csit_alpha=task.alpha)
    estimate = draw_estimate(cfg, task.realization)
    samples = draw_sample_set(cfg, estimate, spec.sample_count, task.realization)
    result = optimize_strategy(
        cfg, task.strategy, estimate, samples, np.asarray(task.weights),
        spec.multicast_threshold, np.asarray(task.unicast_thresholds), spec.ao,
    )
    if result.status == "infeasible":
        totals, c0, value = np.full(cfg.num_users, np.nan), math.nan, math.nan
    else:
        totals, c0, value = result.totals(), result.alloc.multicast, result.wasr
    records = [
        ResultRecord(
            task.experiment_id, task.strategy.value, task.alpha, task.weight_u2,
            task.realization, k, float(totals[k]), float(c0), math.nan, math.nan,
            result.iterations, result.status, spec.system.master_seed,
        )
        for k in range(cfg.num_users)
    ]
    return float(value), records


def _execute(tasks: list[_Task], threads: int) -> list[tuple[float, list[ResultRecord]]]:
    # The executor forks all max_workers processes at its first submit.
    workers = min(threads, len(tasks))
    if workers <= 1:
        return [_run_task(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, tasks, chunksize=1))


def mean_and_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single value)."""
    se = float(np.std(values, ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return float(np.mean(values)), se


def _finalize(
    spec: ExperimentSpec, results: list[tuple[float, list[ResultRecord]]]
) -> list[ResultRecord]:
    """Fill every record's esr/se with its group's aggregates over feasible realizations.

    A group is one (strategy, grid point): ``num_realizations`` consecutive
    tasks, because tasks are strategy-major, then grid point, then realization.
    A group with no feasible realization gets NaN; InfeasibleEverywhereError,
    holding all the records, then names every such group.
    """
    records = []
    empty = []
    n = spec.num_realizations
    for start in range(0, len(results), n):
        group = results[start:start + n]
        values = np.array([value for value, _ in group if not math.isnan(value)])
        if values.size == 0:
            first = group[0][1][0]
            empty.append(f"{first.strategy} at alpha={first.alpha!r}, "
                         f"weight_u2={first.weight_u2!r}")
            esr = se = math.nan
        else:
            esr, se = mean_and_se(values)
        records.extend(replace(rec, esr=esr, se=se) for _, task in group for rec in task)
    if empty:
        raise InfeasibleEverywhereError(
            "every realization infeasible for " + "; ".join(empty), records
        )
    return records


def _sweep(
    spec: ExperimentSpec,
    experiment_id: str,
    points: list[tuple[float, float, tuple[float, ...], tuple[float, ...]]],
    threads: int,
) -> list[ResultRecord]:
    """Run every (strategy, grid point, realization) task and aggregate the records.

    Each grid point is (alpha, weight_u2, weights, unicast thresholds).  Tasks
    are strategy-major, then grid point, then realization.  Every point's
    system and weights are checked before any task starts, so a grid value
    that a task would reject is a ConfigError, not a mid-sweep failure.
    """
    if not points:
        raise ConfigError("empty sweep grid: region needs a weight_grid, esr-alpha an alpha_grid")
    for alpha, _, weights, _ in points:
        try:
            replace(spec.system, csit_alpha=alpha)
        except ValueError as exc:
            raise ConfigError(f"invalid grid point alpha={alpha!r}: {exc}") from exc
        if not all(math.isfinite(w) and w > 0 for w in weights):
            raise ConfigError(f"invalid grid point weights={weights!r}: weights must be > 0")
    combos = itertools.product(spec.strategies, points, range(spec.num_realizations))
    tasks = [
        _Task(experiment_id, spec, strategy, alpha, weight_u2, weights, thresholds, r)
        for strategy, (alpha, weight_u2, weights, thresholds), r in combos
    ]
    return _finalize(spec, _execute(tasks, threads))


def run_region(spec: ExperimentSpec, threads: int = 1) -> list[ResultRecord]:
    """Two-user rate-region sweep over the weight grid (u1 = 1, u2 gridded)."""
    if spec.system.num_users != 2:
        raise ConfigError("rate-region mode requires exactly two users")
    if spec.threshold_schedule is not None:
        raise ConfigError("region reads unicast_thresholds, not threshold_schedule")
    thresholds = tuple(float(t) for t in spec.resolved_unicast_thresholds())
    points = [
        (spec.system.csit_alpha, float(u2), (1.0, float(u2)), thresholds)
        for u2 in sorted(spec.weight_grid)
    ]
    return _sweep(spec, f"region-{config_hash(spec)[:12]}", points, threads)


def run_esr_alpha(spec: ExperimentSpec, threads: int = 1) -> list[ResultRecord]:
    """ESR-versus-alpha sweep with unit weights and common random numbers.

    The same master seed (hence the same underlying standard-normal draws)
    is reused at every alpha; only the error scaling changes.
    """
    if spec.threshold_schedule is not None and spec.unicast_thresholds is not None:
        raise ConfigError("set unicast_thresholds or threshold_schedule, not both")
    k = spec.system.num_users
    thresholds = tuple(float(t) for t in spec.resolved_unicast_thresholds())
    schedule = spec.threshold_schedule
    points = [
        (float(alpha), float("nan"), (1.0,) * k,
         thresholds if schedule is None else (float(schedule[g_idx]),) * k)
        for g_idx, alpha in enumerate(spec.alpha_grid)
    ]
    return _sweep(spec, f"esr-alpha-{config_hash(spec)[:12]}", points, threads)


# ---------------------------------------------------------------------------
# Persistence

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_text(path: str | Path, text: str) -> None:
    """Write text to path, creating its parent directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_csv(records: list[ResultRecord], path: str | Path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, col)) for col in CSV_COLUMNS))
    _write_text(path, "\n".join(lines) + "\n")


def write_manifest(spec: ExperimentSpec, mode: str, path: str | Path) -> None:
    manifest = {
        "mode": mode,
        "config": spec_to_dict(spec),
        "config_hash": config_hash(spec),
        "artifact_version": __version__,
        "csv_columns": list(CSV_COLUMNS),
    }
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class RegionPoint:
    """One rate-region point: mean two-user totals at a weight-grid entry."""

    weight_u2: float
    er_user1: float
    er_user2: float


def region_points(records: list[ResultRecord]) -> dict[str, list[RegionPoint]]:
    """Per-strategy (user-1 ER, user-2 ER) points, sorted by weight.

    Means are over feasible realizations.
    """
    grouped: dict[str, dict[float, dict[int, list[float]]]] = {}
    for rec in records:
        if math.isnan(rec.rate_total):
            continue
        grouped.setdefault(rec.strategy, {}).setdefault(rec.weight_u2, {}).setdefault(
            rec.user, []
        ).append(rec.rate_total)
    out: dict[str, list[RegionPoint]] = {}
    for strategy, by_weight in grouped.items():
        points = []
        for u2 in sorted(by_weight):
            users = by_weight[u2]
            if 0 not in users or 1 not in users:
                continue
            points.append(RegionPoint(u2, float(np.mean(users[0])), float(np.mean(users[1]))))
        out[strategy] = points
    return out


def upper_right_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated upper-right convex hull of a 2-D point cloud."""
    pts = sorted(set(points))
    hull: list[tuple[float, float]] = []
    for p in pts:
        while hull and hull[-1][1] <= p[1]:
            hull.pop()
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def write_region_hull(records: list[ResultRecord], path: str | Path) -> None:
    """Per-strategy hull of the (user-1 ER, user-2 ER) aggregate points."""
    by_strategy = region_points(records)
    lines = ["strategy,er_user1,er_user2"]
    for strategy in sorted(by_strategy):
        points = [(p.er_user1, p.er_user2) for p in by_strategy[strategy]]
        for x, y in upper_right_hull(points):
            lines.append(f"{strategy},{x!r},{y!r}")
    _write_text(path, "\n".join(lines) + "\n")
