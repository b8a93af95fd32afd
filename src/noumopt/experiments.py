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
from .ao import AoConfig, AoResult, matched_filters, optimize, optimize_strategy
from .channel import SystemConfig, draw_estimate, draw_sample_set
from .strategies import PrecoderSet, Strategy, sampled_average_rates, wasr
from .subproblem import build_subproblem, solve as solve_subproblem
from .wmmse import (
    COMMON,
    PRIVATE,
    assemble_coefficients,
    effective_power_T,
    rate_wmmse_identity_check,
    update_equalizers_weights,
    weighted_mse_bits,
    xi_hat,
)

CSV_COLUMNS = (
    "experiment_id", "strategy", "alpha", "weight_u2", "realization", "user",
    "rate_total", "common_c0", "esr", "se", "iters", "status", "seed",
)

DEFAULT_WEIGHT_GRID = tuple(10.0 ** a for a in (-3, -2, -1, -0.5, 0, 0.5, 1, 2, 3))


class ConfigError(ValueError):
    """Invalid or unknown configuration content (CLI exit code 1)."""


class InfeasibleEverywhereError(RuntimeError):
    """Every realization of some (strategy, grid point) was infeasible (exit 2)."""


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
    precoder_mode: str = "ao"  # "ao" | "fixed-mrt"
    convex_hull: bool = False

    def __post_init__(self):
        if self.sample_count < 1 or self.num_realizations < 1:
            raise ConfigError("sample_count and num_realizations must be >= 1")
        if not self.strategies:
            raise ConfigError("at least one strategy required")
        if self.multicast_threshold < 0:
            raise ConfigError("multicast_threshold must be >= 0")
        if self.unicast_thresholds is not None:
            if len(self.unicast_thresholds) != self.system.num_users:
                raise ConfigError("unicast_thresholds needs one entry per user")
            if any(t < 0 for t in self.unicast_thresholds):
                raise ConfigError("unicast_thresholds must be >= 0")
        if self.threshold_schedule is not None and self.alpha_grid and len(
            self.threshold_schedule
        ) != len(self.alpha_grid):
            raise ConfigError("threshold_schedule needs one entry per alpha grid point")
        if self.precoder_mode not in ("ao", "fixed-mrt"):
            raise ConfigError("precoder_mode must be 'ao' or 'fixed-mrt'")
        if (self.precoder_mode == "ao" and self.system.num_users > self.ao.order_cap
                and any(s.uses_dpc for s in self.strategies)):
            raise ConfigError("num_users exceeds ao.order_cap for a DPC-family strategy")

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
    """Strategy tags from a config or the command line; ConfigError if unknown."""
    try:
        return tuple(Strategy(name) for name in names)
    except ValueError as exc:
        raise ConfigError(f"unknown strategy: {exc}") from exc


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


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


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
    "subproblem_tol": _real,
    "order_cap": _integer,
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
    "precoder_mode": str,
    "convex_hull": _boolean,
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
    index: int
    spec: ExperimentSpec
    strategy: Strategy
    grid_index: int
    alpha: float
    weight_u2: float   # nan outside region mode
    weights: tuple[float, ...]
    unicast_thresholds: tuple[float, ...]
    realization: int


def _run_task(task: _Task) -> tuple[int, list[dict]]:
    spec = task.spec
    cfg = replace(spec.system, csit_alpha=task.alpha)
    estimate = draw_estimate(cfg, task.realization)
    samples = draw_sample_set(cfg, estimate, spec.sample_count, task.realization)
    weights = np.asarray(task.weights)

    if spec.precoder_mode == "fixed-mrt":
        # Equal-power matched filters on the private streams, common stream off.
        k_users = cfg.num_users
        precoders = PrecoderSet(
            np.zeros(cfg.num_tx_antennas, dtype=complex),
            matched_filters(estimate.matrix, cfg.transmit_power / k_users),
            tuple(range(k_users)),
        )
        report = sampled_average_rates(task.strategy, samples, precoders)
        totals = report.private_per_user
        c0, iters, status = 0.0, 0, "fixed"
        esr_term = wasr(weights, totals)
    else:
        result: AoResult = optimize_strategy(
            cfg, task.strategy, estimate, samples, weights,
            spec.multicast_threshold, np.asarray(task.unicast_thresholds), spec.ao,
        )
        if result.status == "infeasible":
            totals = np.full(cfg.num_users, np.nan)
            c0, iters, status = np.nan, result.iterations, "infeasible"
            esr_term = np.nan
        else:
            totals = result.totals()
            c0 = result.alloc.multicast
            iters, status = result.iterations, result.status
            esr_term = result.wasr

    rows = [
        {
            "strategy": task.strategy.value,
            "grid_index": task.grid_index,
            "alpha": task.alpha,
            "weight_u2": task.weight_u2,
            "realization": task.realization,
            "user": k,
            "rate_total": float(totals[k]),
            "common_c0": float(c0),
            "group_value": float(esr_term),
            "iters": iters,
            "status": status,
        }
        for k in range(cfg.num_users)
    ]
    return task.index, rows


def _execute(tasks: list[_Task], threads: int) -> list[list[dict]]:
    if threads <= 1:
        return [_run_task(t)[1] for t in tasks]
    out: list[list[dict] | None] = [None] * len(tasks)
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
        for idx, rows in pool.map(_run_task, tasks, chunksize=1):
            out[idx] = rows
    return out  # type: ignore[return-value]


def _finalize(
    spec: ExperimentSpec,
    experiment_id: str,
    per_task_rows: list[list[dict]],
) -> list[ResultRecord]:
    """Attach group ESR/SE aggregates and freeze the records."""
    groups: dict[tuple, list[float]] = {}
    for rows in per_task_rows:
        for row in rows:
            if row["user"] == 0:
                key = (row["strategy"], row["grid_index"])
                groups.setdefault(key, []).append(row["group_value"])
    stats: dict[tuple, tuple[float, float]] = {}
    for key, values in groups.items():
        arr = np.array([v for v in values if not math.isnan(v)])
        if arr.size == 0:
            raise InfeasibleEverywhereError(
                f"every realization infeasible for group {key}"
            )
        se = float(np.std(arr, ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        stats[key] = (float(np.mean(arr)), se)

    records = []
    for rows in per_task_rows:
        for row in rows:
            esr, se = stats[(row["strategy"], row["grid_index"])]
            records.append(
                ResultRecord(
                    experiment_id=experiment_id,
                    strategy=row["strategy"],
                    alpha=row["alpha"],
                    weight_u2=row["weight_u2"],
                    realization=row["realization"],
                    user=row["user"],
                    rate_total=row["rate_total"],
                    common_c0=row["common_c0"],
                    esr=esr,
                    se=se,
                    iters=row["iters"],
                    status=row["status"],
                    seed=spec.system.master_seed,
                )
            )
    return records


def _sweep(
    spec: ExperimentSpec,
    experiment_id: str,
    points: list[tuple[float, float, tuple[float, ...], tuple[float, ...]]],
    threads: int,
) -> list[ResultRecord]:
    """Run every (strategy, grid point, realization) task and aggregate the rows.

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
    combos = itertools.product(
        spec.strategies, enumerate(points), range(spec.num_realizations)
    )
    tasks = [
        _Task(index, spec, strategy, g_idx, alpha, weight_u2, weights, thresholds, r)
        for index, (strategy, (g_idx, (alpha, weight_u2, weights, thresholds)), r)
        in enumerate(combos)
    ]
    return _finalize(spec, experiment_id, _execute(tasks, threads))


def run_region(spec: ExperimentSpec, threads: int = 1) -> list[ResultRecord]:
    """Two-user rate-region sweep over the weight grid (u1 = 1, u2 gridded)."""
    if spec.system.num_users != 2:
        raise ConfigError("rate-region mode requires exactly two users")
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


def write_csv(records: list[ResultRecord], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, col)) for col in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n")


def write_manifest(spec: ExperimentSpec, mode: str, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "mode": mode,
        "config": spec_to_dict(spec),
        "config_hash": config_hash(spec),
        "artifact_version": __version__,
        "csv_columns": list(CSV_COLUMNS),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class RegionPoint:
    """One rate-region point: mean two-user totals at a weight-grid entry."""

    weight_u2: float
    er_user1: float
    er_user2: float
    se_user1: float
    se_user2: float


def region_points(records: list[ResultRecord]) -> dict[str, list[RegionPoint]]:
    """Per-strategy (user-1 ER, user-2 ER) points, sorted by weight.

    Means are over feasible realizations; each coordinate carries its
    standard error.
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
            a, b = np.array(users[0]), np.array(users[1])
            points.append(
                RegionPoint(
                    weight_u2=u2,
                    er_user1=float(a.mean()),
                    er_user2=float(b.mean()),
                    se_user1=float(a.std(ddof=1) / np.sqrt(a.size)) if a.size > 1 else 0.0,
                    se_user2=float(b.std(ddof=1) / np.sqrt(b.size)) if b.size > 1 else 0.0,
                )
            )
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
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Validation battery

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


_CHECK_STRATEGIES = (Strategy.DPC, Strategy.DPCRS1, Strategy.RS1, Strategy.MULP)


def random_stream_tuple(rng: np.random.Generator):
    """Random (strategy, h, e, precoders, stream, user) for per-sample checks."""
    k = int(rng.integers(1, 4))
    n_t = int(rng.integers(1, 5))
    strategy = _CHECK_STRATEGIES[int(rng.integers(4))]
    order = tuple(int(i) for i in rng.permutation(k)) if strategy.uses_dpc else None
    h = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
    e = 0.4 * (rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t))
    prec = PrecoderSet(
        rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t),
        rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k)),
        order,
    )
    user = int(rng.integers(k))
    stream = COMMON if rng.random() < 0.5 else PRIVATE
    return strategy, h, e, prec, stream, user


def check_rate_wmmse_identity(seed: int, count: int) -> float:
    """Worst |xi - (1 - R)| of the rate-WMMSE identity over random tuples."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        strategy, h, e, prec, stream, user = random_stream_tuple(rng)
        xi, rate = rate_wmmse_identity_check(strategy, h, e, prec, stream, user)
        worst = max(worst, abs(xi - (1.0 - rate)))
    return worst


def check_xi_hat_equivalence(seed: int, count: int) -> float:
    """Worst gap between xi_hat and the direct per-sample WMSE average."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(count):
        k = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 4))
        strategy = _CHECK_STRATEGIES[trial % 4]
        order = tuple(int(i) for i in rng.permutation(k)) if strategy.uses_dpc else None
        cfg = SystemConfig(k, n_t, 15.0, 0.5, (1.0,) * k, int(rng.integers(2**31)))
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 8, 0)
        assembly = PrecoderSet(
            rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t),
            rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k)),
            order,
        )
        target = PrecoderSet(
            rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t),
            rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k)),
            order,
        )
        g, w = update_equalizers_weights(strategy, samples, assembly)
        coeffs = assemble_coefficients(strategy, samples, g, w, order)
        for user in range(k):
            for stream in (COMMON, PRIVATE):
                p_i = target.common if stream == COMMON else target.private[:, user]
                direct = np.mean([
                    weighted_mse_bits(
                        g[stream, user, m], w[stream, user, m],
                        effective_power_T(strategy, stream, user,
                                          samples.realizations[m, :, user],
                                          samples.errors[m, :, user], target),
                        samples.realizations[m, :, user], p_i,
                    )
                    for m in range(8)
                ])
                worst = max(worst, abs(xi_hat(coeffs, target, stream, user) - direct))
    return worst


def check_subproblem_kkt(seeds) -> float:
    """Worst KKT residual of one subproblem solve per seed (inf if not optimal)."""
    worst_kkt = 0.0
    for seed in seeds:
        strategy = _CHECK_STRATEGIES[seed % 4]
        k, n_t = 2, 2
        order = (0, 1) if strategy.uses_dpc else None
        cfg = SystemConfig(k, n_t, 20.0, 0.6, (1.0,) * k, seed)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 8, 0)
        rng = np.random.default_rng(seed + 50)
        prec = PrecoderSet(
            rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t),
            rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k)),
            order,
        )
        scale = np.sqrt(0.8 * cfg.transmit_power / prec.total_power())
        prec = PrecoderSet(prec.common * scale, prec.private * scale, order)
        g, w = update_equalizers_weights(strategy, samples, prec)
        coeffs = assemble_coefficients(strategy, samples, g, w, order)
        spec = build_subproblem(
            coeffs, np.ones(k), np.zeros(k), 0.1, cfg.transmit_power, strategy, order
        )
        sol = solve_subproblem(spec, tol=1e-8, initial=prec)
        residual = sol.kkt_residual if sol.status == "optimal" else np.inf
        worst_kkt = max(worst_kkt, residual)
    return worst_kkt


def check_ao_monotonicity(seeds) -> tuple[float, int]:
    """Worst WASR dip between AO iterates and the number of converged runs."""
    worst_dip = 0.0
    converged = 0
    for seed in seeds:
        cfg = SystemConfig(2, 2, 20.0, 0.6, (1.0, 1.0), seed)
        est = draw_estimate(cfg, seed)
        samples = draw_sample_set(cfg, est, 16, seed)
        res = optimize(
            cfg, Strategy.DPCRS1, est, samples, np.ones(2), order=(0, 1),
            ao=AoConfig(convergence_eps=1e-4, max_iterations=200),
        )
        diffs = np.diff(res.trace)
        if diffs.size:
            worst_dip = max(worst_dip, float(-diffs.min()))
        converged += res.status == "converged"
    return worst_dip, converged


def validate(seed: int = 0) -> list[ValidationCheck]:
    """Acceptance checks 1, 3, 4 and 5 at smaller counts: the CLI release gate."""
    identity = check_rate_wmmse_identity(seed, 200)
    xi_gap = check_xi_hat_equivalence(seed, 40)
    dip, converged = check_ao_monotonicity(range(seed, seed + 3))
    kkt = check_subproblem_kkt(range(seed, seed + 3))
    return [
        ValidationCheck("rate_wmmse_identity", identity <= 1e-9,
                        f"max |xi-(1-R)| = {identity:.2e} over 200 tuples"),
        ValidationCheck("xi_hat_equivalence", xi_gap <= 1e-10,
                        f"max deviation = {xi_gap:.2e} over 40 instances"),
        ValidationCheck("ao_monotonicity", dip <= 1e-6,
                        f"worst dip = {dip:.2e}, converged {converged}/3"),
        ValidationCheck("solver_kkt", kkt <= 1e-7, f"max KKT residual = {kkt:.2e} over 3 solves"),
    ]
