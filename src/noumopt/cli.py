"""Command-line frontend for the experiment harness.

Subcommands:
    region     two-user rate-region sweep over the weight grid
    esr-alpha  ergodic sum rate versus CSIT quality sweep
    solve      optimize a single channel realization with unit weights and
               print the result
    validate   run the acceptance checks at smaller counts

Exit codes: 0 success, 1 invalid config, 2 infeasible everywhere (a sweep
still writes its outputs first), 3 internal numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .ao import optimize_strategy
from .channel import draw_estimate, draw_sample_set
from .experiments import (
    ConfigError,
    ExperimentSpec,
    InfeasibleEverywhereError,
    load_config,
    parse_strategies,
    run_esr_alpha,
    run_region,
    spec_from_dict,
    write_csv,
    write_manifest,
    write_region_hull,
)
from .reference import validate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


def _names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


# Override flag -> (config section, or None for the top level; config key).
_OVERRIDES = {
    "seed": ("system", "master_seed"),
    "samples": (None, "sample_count"),
    "realizations": (None, "num_realizations"),
    "strategies": (None, "strategies"),
    "max_iters": ("ao", "max_iterations"),
    "eps": ("ao", "convergence_eps"),
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--seed", type=int, help="override master seed")
    parser.add_argument("--samples", type=int, help="override SAA sample count M")
    parser.add_argument("--max-iters", type=int, help="override AO iteration cap")
    parser.add_argument("--eps", type=float, help="override AO convergence epsilon")


_COMMAND_HELP = {
    "region": "two-user rate-region sweep over the config's weight_grid",
    "esr-alpha": "ergodic sum rate sweep over the config's alpha_grid",
    "solve": "optimize one realization with unit weights and print a JSON summary "
             "(weight_grid is a sweep grid and is not read)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noumopt",
        description="Precoder optimization studies for unicast+multicast MISO downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMAND_HELP.items():
        p = sub.add_parser(name, help=text, description=text)
        _add_common_flags(p)
        if name == "solve":
            p.add_argument("--strategy", type=str, default="dpcrs1")
            p.add_argument("--realization", type=int, default=0)
        else:
            p.add_argument("--realizations", type=int, help="override Monte Carlo realizations")
            p.add_argument("--strategies", type=_names, help="comma-separated strategy list")
            p.add_argument("--out", type=Path, default=Path("results"), help="output directory")
            p.add_argument("--threads", type=int, default=1, help="worker processes")
    p_val = sub.add_parser("validate")
    p_val.add_argument("--seed", type=int, default=0)
    return parser


def _resolve_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The config file with the override flags written in, checked as one config."""
    if args.config is None:
        raise ConfigError("--config is required for this command")
    config = load_config(args.config)
    for flag, (section, key) in _OVERRIDES.items():
        value = getattr(args, flag, None)   # the sweep-only flags are absent for solve
        if value is None:
            continue
        target = config if section is None else config.setdefault(section, {})
        # A section that is not an object is left for spec_from_dict to reject.
        if isinstance(target, dict):
            target[key] = value
    return spec_from_dict(config)


# Sweep command -> (runner, output file stem).
_SWEEPS = {"region": (run_region, "region"), "esr-alpha": (run_esr_alpha, "esr_alpha")}


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    spec = _resolve_spec(args)
    run, stem = _SWEEPS[args.command]
    infeasible = None
    try:
        records = run(spec, threads=args.threads)
    except InfeasibleEverywhereError as exc:   # the sweep is still written, then exit 2
        records, infeasible = exc.records, exc
    out = Path(args.out)
    csv_path = out / f"{stem}.csv"
    write_csv(records, csv_path)
    write_manifest(spec, args.command, out / f"{stem}_manifest.json")
    if args.command == "region":
        write_region_hull(records, out / "region_hull.csv")
    print(f"wrote {len(records)} records to {csv_path}")
    if infeasible is not None:
        raise infeasible
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    # The config's checks (the order cap among them) apply to the strategy solved.
    spec = dataclasses.replace(_resolve_spec(args), strategies=parse_strategies([args.strategy]))
    (strategy,) = spec.strategies
    if args.realization < 0:
        raise ConfigError("--realization must be >= 0")
    cfg = spec.system
    estimate = draw_estimate(cfg, args.realization)
    samples = draw_sample_set(cfg, estimate, spec.sample_count, args.realization)
    weights = np.ones(cfg.num_users)
    result = optimize_strategy(
        cfg, strategy, estimate, samples, weights,
        spec.multicast_threshold, spec.resolved_unicast_thresholds(), spec.ao,
    )
    feasible = result.status != "infeasible"
    summary = {
        "strategy": strategy.value,
        "status": result.status,
        "iterations": result.iterations,
        # An infeasible result holds the rejected start's numbers: print none of them.
        "wasr": _number(result.wasr) if feasible else None,
        "per_user_totals": [_number(t) for t in result.totals()] if feasible else None,
        "common_alloc": [_number(c) for c in result.alloc.rates] if feasible else None,
        "common_bound": _number(result.report.common_bound) if feasible else None,
        "encoding_order": list(result.order) if result.order else None,
        "trace": [_number(t) for t in result.trace],
        "kkt_residual": _number(result.last_kkt_residual),
    }
    print(json.dumps(summary, indent=2, allow_nan=False))
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def _number(value: float) -> float | None:
    """``value`` as a JSON number, or None when it is not finite (JSON has no NaN or Infinity)."""
    return float(value) if math.isfinite(value) else None


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    checks = validate(seed=args.seed)
    all_ok = True
    for check in checks:
        flag = "PASS" if check.passed else "FAIL"
        print(f"[{flag}] {check.name}: {check.detail}")
        all_ok &= check.passed
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command in _SWEEPS:
            return _cmd_sweep(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "validate":
            return _cmd_validate(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleEverywhereError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (np.linalg.LinAlgError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
