import concurrent.futures
import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from noumopt import Strategy, SystemConfig, draw_estimate, draw_sample_set, optimize_strategy
from noumopt.ao import ORDER_CAP, AoConfig
from noumopt.experiments import (
    DEFAULT_WEIGHT_GRID,
    ConfigError,
    ExperimentSpec,
    InfeasibleEverywhereError,
    config_hash,
    load_config,
    region_points,
    run_esr_alpha,
    run_region,
    spec_from_dict,
    upper_right_hull,
    write_csv,
    write_manifest,
    write_region_hull,
)
from noumopt.reference import matched_filter_esr, validate


def base_config(**kwargs):
    cfg = {
        "system": {
            "num_users": 2, "num_tx_antennas": 2, "snr_db": 20.0,
            "csit_alpha": 0.6, "channel_variances": [1.0, 1.0], "master_seed": 11,
        },
        "strategies": ["rs1", "mulp"],
        "sample_count": 8,
        "num_realizations": 2,
        "weight_grid": [0.5, 2.0],
        "ao": {"max_iterations": 30},
    }
    cfg.update(kwargs)
    return cfg


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            spec_from_dict(base_config(bogus=1))

    def test_unknown_nested_keys(self):
        cfg = base_config()
        cfg["system"]["extra"] = 1
        with pytest.raises(ConfigError, match="unknown system keys"):
            spec_from_dict(cfg)
        cfg = base_config()
        cfg["ao"]["bad"] = 1
        with pytest.raises(ConfigError, match="unknown ao keys"):
            spec_from_dict(cfg)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="strategy"):
            spec_from_dict(base_config(strategies=["rs1", "nope"]))

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            spec_from_dict(base_config(unicast_thresholds=[0.1]))
        with pytest.raises(ConfigError):
            spec_from_dict(base_config(multicast_threshold=-0.5))
        with pytest.raises(ConfigError):
            spec_from_dict(base_config(alpha_grid=[0.1, 0.5], threshold_schedule=[0.1]))

    def test_order_cap_applies_to_dpc_family_only(self):
        k = ORDER_CAP + 1
        system = {"num_users": k, "num_tx_antennas": 2, "snr_db": 20.0, "csit_alpha": 0.6,
                  "channel_variances": [1.0] * k}
        for strategy in ("dpc", "dpcrs1"):
            with pytest.raises(ConfigError, match="order cap 5"):
                spec_from_dict(base_config(system=system, strategies=["rs1", strategy]))
        assert spec_from_dict(base_config(system=system)).system.num_users == k

    def test_default_weight_grid_has_nine_points(self):
        assert len(DEFAULT_WEIGHT_GRID) == 9
        spec = spec_from_dict({"system": base_config()["system"]})
        assert spec.weight_grid == DEFAULT_WEIGHT_GRID

    def test_roundtrip_and_hash_stability(self):
        spec_a = spec_from_dict(base_config())
        spec_b = spec_from_dict(base_config())
        assert config_hash(spec_a) == config_hash(spec_b)
        spec_c = spec_from_dict(base_config(sample_count=9))
        assert config_hash(spec_a) != config_hash(spec_c)

    def test_every_ao_field_is_a_config_key(self):
        values = {"convergence_eps": 1e-3, "max_iterations": 7}
        spec = spec_from_dict(base_config(ao=values))
        assert dataclasses.asdict(spec.ao) == values

    def test_every_system_field_is_a_config_key(self):
        values = {"num_users": 3, "num_tx_antennas": 4, "snr_db": 15.0, "csit_alpha": 0.7,
                  "channel_variances": (1.0, 0.5, 2.0), "master_seed": 5}
        spec = spec_from_dict(base_config(system=values))
        assert dataclasses.asdict(spec.system) == values
        without_seed = {key: v for key, v in values.items() if key != "master_seed"}
        assert spec_from_dict(base_config(system=without_seed)).system.master_seed == 0
        del without_seed["snr_db"]
        with pytest.raises(ConfigError, match="invalid system.*snr_db"):
            spec_from_dict(base_config(system=without_seed))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")


class TestErgodicRates:
    """Ergodic rates of one strategy: a one-point alpha sweep at the system's alpha."""

    def test_single_realization_equals_ar_totals(self):
        spec = spec_from_dict(
            base_config(num_realizations=1, strategies=["mulp"], alpha_grid=[0.6])
        )
        records = run_esr_alpha(spec)
        cfg = spec.system
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, spec.sample_count, 0)
        res = optimize_strategy(cfg, Strategy.MULP, est, samples, np.ones(2), ao=spec.ao)
        assert [r.rate_total for r in records] == pytest.approx(res.totals(), abs=1e-12)
        assert records[0].esr == pytest.approx(res.wasr, abs=1e-12)
        assert records[0].se == 0.0

    def test_fixed_mrt_matches_exponential_integral_oracle(self):
        # Scalar single-user with alpha=0: every channel sample is CN(0,1) and
        # the full-power rate has closed form log2(e) * e^(1/P) * E1(1/P).
        p_t = 100.0
        oracle = float(np.log2(np.e) * np.exp(1.0 / p_t) * exp1(1.0 / p_t))
        by_quad = quad(
            lambda x: np.log2(1.0 + p_t * x) * np.exp(-x), 0.0, np.inf, limit=200
        )[0]
        assert oracle == pytest.approx(by_quad, abs=1e-9)
        assert oracle == pytest.approx(5.884, abs=5e-3)

        esr, se = matched_filter_esr(SystemConfig(1, 1, 20.0, 0.0, (1.0,), 0), 400, 5)
        slack = 3.0 * max(se, 1e-6)
        assert abs(esr - oracle) <= slack

    def test_partial_infeasibility_recorded(self):
        # Seed 1: realization 0 cannot carry the multicast threshold, 1 can.
        spec = spec_from_dict({
            "system": {"num_users": 1, "num_tx_antennas": 1, "snr_db": 20.0,
                       "csit_alpha": 0.6, "channel_variances": [1.0], "master_seed": 1},
            "strategies": ["rs1"],
            "sample_count": 32,
            "num_realizations": 2,
            "alpha_grid": [0.6],
            "multicast_threshold": 4.6,
            "ao": {"max_iterations": 40},
        })
        records = run_esr_alpha(spec)
        statuses = {rec.realization: rec.status for rec in records}
        assert statuses[0] == "infeasible"
        assert statuses[1] in ("converged", "max_iter")
        infeasible_rows = [rec for rec in records if rec.status == "infeasible"]
        assert infeasible_rows and all(math.isnan(r.rate_total) for r in infeasible_rows)

    def test_all_infeasible_raises(self):
        spec = spec_from_dict({
            "system": {"num_users": 1, "num_tx_antennas": 1, "snr_db": 20.0,
                       "csit_alpha": 0.6, "channel_variances": [1.0], "master_seed": 1},
            "strategies": ["rs1"],
            "sample_count": 16,
            "num_realizations": 2,
            "alpha_grid": [0.6],
            "multicast_threshold": 25.0,
            "ao": {"max_iterations": 30},
        })
        with pytest.raises(InfeasibleEverywhereError) as excinfo:
            run_esr_alpha(spec)
        records = excinfo.value.records
        assert [r.realization for r in records] == [0, 1]
        assert all(r.status == "infeasible" and math.isnan(r.esr) for r in records)


class TestRegionRun:
    def test_record_shape_and_determinism(self, tmp_path):
        spec = spec_from_dict(base_config())
        records_a = run_region(spec, threads=1)
        records_b = run_region(spec, threads=2)
        assert len(records_a) == 2 * 2 * 2 * 2  # strategies x grid x realizations x users
        write_csv(records_a, tmp_path / "a.csv")
        write_csv(records_b, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("realizations, pools", [(2, [2]), (1, [])])
    def test_workers_capped_at_the_task_count(self, monkeypatch, realizations, pools):
        # The executor forks all max_workers processes at its first submit.
        # The fake records max_workers and maps in-process.
        created = []

        class FakePool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        spec = spec_from_dict(base_config(
            strategies=["mulp"], num_realizations=realizations, weight_grid=[1.0]))
        records = run_region(spec, threads=64)
        assert created == pools
        assert len(records) == realizations * 2

    def test_region_requires_two_users(self):
        spec = spec_from_dict({
            "system": {"num_users": 1, "num_tx_antennas": 1, "snr_db": 10.0,
                       "csit_alpha": 0.5, "channel_variances": [1.0]},
        })
        with pytest.raises(ConfigError):
            run_region(spec)

    def test_region_points_sorted_by_weight(self):
        spec = spec_from_dict(base_config(weight_grid=[2.0, 0.5]))
        points = region_points(run_region(spec))
        for strategy in ("rs1", "mulp"):
            weights = [p.weight_u2 for p in points[strategy]]
            assert weights == sorted(weights) == [0.5, 2.0]

    def test_manifest_written(self, tmp_path):
        spec = spec_from_dict(base_config())
        write_manifest(spec, "region", tmp_path / "m.json")
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["mode"] == "region"
        assert manifest["config_hash"] == config_hash(spec)
        assert manifest["csv_columns"][0] == "experiment_id"

    def test_statistical_symmetry(self):
        # sigma_1 = sigma_2: the ensemble is user-exchange symmetric, so the
        # (1, w) point should match the swapped (1, 1/w) point within noise.
        spec = spec_from_dict({
            "system": {"num_users": 2, "num_tx_antennas": 2, "snr_db": 20.0,
                       "csit_alpha": 0.6, "channel_variances": [1.0, 1.0],
                       "master_seed": 21},
            "strategies": ["rs1"],
            "sample_count": 24,
            "num_realizations": 6,
            "weight_grid": [0.25, 4.0],
            "ao": {"max_iterations": 60},
        })
        records = run_region(spec)
        points: dict[float, np.ndarray] = {}
        ses: dict[float, float] = {}
        for u2 in (0.25, 4.0):
            rows = [r for r in records if r.weight_u2 == u2]
            per_user = np.zeros((spec.num_realizations, 2))
            for r in rows:
                per_user[r.realization, r.user] = r.rate_total
            points[u2] = per_user.mean(axis=0)
            ses[u2] = float(per_user.std(axis=0, ddof=1).max() / np.sqrt(spec.num_realizations))
        swapped = points[0.25][::-1]
        tol = 3.0 * (ses[4.0] + ses[0.25])
        assert np.all(np.abs(points[4.0] - swapped) <= tol)


class TestEsrAlphaRun:
    def test_rows_and_schedule(self):
        spec = spec_from_dict({
            "system": {"num_users": 2, "num_tx_antennas": 2, "snr_db": 15.0,
                       "csit_alpha": 0.5, "channel_variances": [1.0, 1.0],
                       "master_seed": 5},
            "strategies": ["mulp"],
            "sample_count": 8,
            "num_realizations": 2,
            "alpha_grid": [0.2, 0.8],
            "threshold_schedule": [0.0, 0.1],
            "ao": {"max_iterations": 30},
        })
        records = run_esr_alpha(spec)
        assert len(records) == 1 * 2 * 2 * 2
        alphas = sorted({r.alpha for r in records})
        assert alphas == [0.2, 0.8]
        assert all(math.isnan(r.weight_u2) for r in records)

    def test_group_aggregate_over_feasible_realizations(self):
        # Seed 1: realization 3 cannot carry the multicast threshold, 0-2 can.
        spec = spec_from_dict({
            "system": {"num_users": 2, "num_tx_antennas": 2, "snr_db": 20.0,
                       "csit_alpha": 0.6, "channel_variances": [1.0, 1.0], "master_seed": 1},
            "strategies": ["rs1"],
            "sample_count": 16,
            "num_realizations": 4,
            "alpha_grid": [0.6],
            "multicast_threshold": 5.0,
            "ao": {"max_iterations": 30},
        })
        records = run_esr_alpha(spec)
        per_realization = np.zeros(spec.num_realizations)
        for rec in records:
            per_realization[rec.realization] += rec.rate_total  # unit weights
        assert [math.isnan(v) for v in per_realization] == [False, False, False, True]
        feasible = per_realization[:3]
        se = np.std(feasible, ddof=1) / np.sqrt(feasible.size)
        for rec in records:
            assert rec.esr == pytest.approx(np.mean(feasible), rel=1e-12)
            assert rec.se == pytest.approx(se, rel=1e-12)

    def test_requires_alpha_grid(self):
        spec = spec_from_dict(base_config())
        with pytest.raises(ConfigError):
            run_esr_alpha(spec)

    def test_large_alpha_single_sample_equals_perfect_csit(self):
        # alpha so large the error variance underflows to zero: the M=1
        # sampled rates coincide with an explicit zero-error evaluation.
        spec = spec_from_dict({
            "system": {"num_users": 2, "num_tx_antennas": 2, "snr_db": 20.0,
                       "csit_alpha": 1e6, "channel_variances": [1.0, 1.0],
                       "master_seed": 4},
            "strategies": ["dpc"],
            "sample_count": 1,
            "num_realizations": 1,
            "alpha_grid": [1e6],
            "ao": {"max_iterations": 120},
        })
        records = run_esr_alpha(spec)
        cfg = spec.system
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 1, 0)
        assert np.all(samples.errors_h == 0)
        res = optimize_strategy(cfg, Strategy.DPC, est, samples, np.ones(2), ao=spec.ao)
        assert records[0].esr == pytest.approx(res.wasr, abs=1e-12)


class TestHull:
    def test_upper_right_hull(self):
        pts = [(0.0, 2.0), (1.0, 1.8), (2.0, 1.0), (1.0, 1.0), (0.5, 1.5), (2.5, 0.2)]
        hull = upper_right_hull(pts)
        assert (1.0, 1.0) not in hull
        assert (0.0, 2.0) in hull and (2.5, 0.2) in hull
        xs = [p[0] for p in hull]
        assert xs == sorted(xs)

    def test_write_region_hull(self, tmp_path):
        # The writer creates a parent directory that does not exist yet.
        spec = spec_from_dict(base_config())
        records = run_region(spec)
        write_region_hull(records, tmp_path / "new" / "hull.csv")
        text = (tmp_path / "new" / "hull.csv").read_text().splitlines()
        assert text[0] == "strategy,er_user1,er_user2"
        assert len(text) > 1


class TestValidationBattery:
    def test_fresh_checkout_passes(self):
        checks = validate(seed=0)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]
        names = {c.name for c in checks}
        assert {"rate_wmmse_identity", "xi_hat_equivalence", "ao_monotonicity",
                "solver_kkt"} <= names
