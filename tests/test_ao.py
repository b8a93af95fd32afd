import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from noumopt import (
    AoConfig,
    PrecoderSet,
    SampleSet,
    Strategy,
    SystemConfig,
    assemble_coefficients,
    build_subproblem,
    draw_estimate,
    draw_sample_set,
    initialize_precoders,
    optimize,
    optimize_strategy,
    solve,
    update_equalizers_weights,
)
from noumopt import ao as ao_module
from noumopt.channel import ChannelEstimate
from noumopt.wmmse import LN2


def quick_ao(max_iterations=60, eps=1e-4):
    return AoConfig(convergence_eps=eps, max_iterations=max_iterations)


class TestInitializer:
    def test_total_power_exact(self):
        cfg = SystemConfig(2, 3, 20.0, 0.6, (1.0, 1.0), 5)
        est = draw_estimate(cfg, 0)
        for strat in Strategy:
            prec = initialize_precoders(est, cfg, (0, 1) if strat.uses_dpc else None)
            assert prec.total_power() == pytest.approx(cfg.transmit_power, rel=1e-12)

    def test_single_user_matched_filter(self):
        cfg = SystemConfig(1, 3, 20.0, 1e6, (1.0,), 2)
        est = draw_estimate(cfg, 0)
        prec = initialize_precoders(est, cfg)
        h = est.matrix[:, 0]
        cos = abs(np.vdot(h, prec.private[:, 0])) / (
            np.linalg.norm(h) * np.linalg.norm(prec.private[:, 0])
        )
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_channels_inherit_orthogonality(self):
        est = ChannelEstimate(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))
        cfg = SystemConfig(2, 2, 20.0, 0.6, (1.0, 1.0), 0)
        prec = initialize_precoders(est, cfg)
        inner = abs(np.vdot(prec.private[:, 0], prec.private[:, 1]))
        assert inner == pytest.approx(0.0, abs=1e-12)

    def test_zero_estimate_fallback(self):
        cfg = SystemConfig(2, 2, 20.0, 0.0, (1.0, 1.0), 0)
        est = draw_estimate(cfg, 0)  # alpha = 0 -> zero estimate
        prec = initialize_precoders(est, cfg)
        assert prec.total_power() == pytest.approx(cfg.transmit_power, rel=1e-12)
        assert np.all(np.isfinite(prec.private.view(float)))


class TestSingleUserOptimality:
    def test_worked_example(self):
        # hhat = [1, 1], P_t = 100: capacity log2(1 + 100*2) = log2(201).
        cfg = SystemConfig(1, 2, 20.0, 1e6, (1.0,), 0)
        est = ChannelEstimate(np.array([[1.0], [1.0]], dtype=complex))
        samples = draw_sample_set(cfg, est, 1, 0)
        res = optimize(cfg, Strategy.DPCRS1, est, samples, np.array([1.0]),
                       order=(0,), ao=quick_ao(max_iterations=200))
        assert res.status == "converged"
        assert res.wasr == pytest.approx(np.log2(201.0), abs=1e-3)
        assert np.log2(201.0) == pytest.approx(7.6511, abs=1e-4)

    def test_across_seeds(self):
        for seed in range(5):
            cfg = SystemConfig(1, 2, 20.0, 1e6, (1.0,), seed)
            est = draw_estimate(cfg, 0)
            samples = draw_sample_set(cfg, est, 1, 0)
            res = optimize(cfg, Strategy.MULP, est, samples, np.array([1.0]),
                           ao=quick_ao(max_iterations=200))
            capacity = np.log2(1.0 + cfg.transmit_power * np.linalg.norm(est.matrix) ** 2)
            assert res.wasr == pytest.approx(capacity, abs=1e-3)


class TestMonotonicityAndStatus:
    def test_traces_non_decreasing(self):
        for seed in range(4):
            cfg = SystemConfig(2, 2, 20.0, 0.6, (1.0, 1.0), seed)
            est = draw_estimate(cfg, 0)
            samples = draw_sample_set(cfg, est, 8, 0)
            res = optimize(cfg, Strategy.DPCRS1, est, samples, np.ones(2),
                           order=(0, 1), ao=quick_ao(max_iterations=50))
            diffs = np.diff(res.trace)
            assert np.all(diffs >= -1e-6)

    def test_infeasible_propagates(self):
        cfg = SystemConfig(1, 1, 10.0, 0.6, (1.0,), 3)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 4, 0)
        absurd = np.log2(1.0 + cfg.transmit_power * np.linalg.norm(est.matrix) ** 2) + 5.0
        res = optimize(cfg, Strategy.RS1, est, samples, np.array([1.0]),
                       multicast_threshold=absurd, ao=quick_ao())
        assert res.status == "infeasible"

    def test_rejected_step_is_reported(self, monkeypatch):
        monkeypatch.setattr(ao_module, "_candidate_state", lambda *args: None)
        cfg = SystemConfig(2, 2, 20.0, 0.6, (1.0, 1.0), 0)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 8, 0)
        res = optimize(cfg, Strategy.RS1, est, samples, np.ones(2), ao=quick_ao())
        assert res.status == "rejected"
        assert res.iterations == 0

    @staticmethod
    def _start_misses_thresholds():
        # DPC, N_t = 1: at the start point the common budget (0.9676) misses
        # the multicast threshold and user 0's total (0.9381) its QoS
        # threshold; every later iterate meets both.
        cfg = SystemConfig(2, 1, 20.0, 0.6, (1.0, 1.0), 673)
        est = draw_estimate(cfg, 0)
        return cfg, est, draw_sample_set(cfg, est, 16, 0), np.array([1.0, 1.0])

    def test_start_that_misses_thresholds_is_not_returned(self):
        cfg, est, samples, thresholds = self._start_misses_thresholds()
        res = optimize_strategy(cfg, Strategy.DPC, est, samples, np.ones(2), 1.0, thresholds)
        assert res.status == "converged"
        assert res.alloc.multicast >= 1.0 - 1e-12
        assert np.all(res.totals() >= thresholds - 1e-9)
        assert res.trace[0] == -np.inf
        assert res.wasr == max(res.trace[1:])

    def test_no_iterate_within_thresholds_is_infeasible(self, monkeypatch):
        monkeypatch.setattr(ao_module, "_candidate_state", lambda *args: None)
        cfg, est, samples, thresholds = self._start_misses_thresholds()
        res = optimize(cfg, Strategy.DPC, est, samples, np.ones(2), 1.0, thresholds,
                       order=(0, 1))
        assert res.status == "infeasible"

    def test_converged_alloc_satisfies_rate_constraints(self):
        cfg = SystemConfig(2, 2, 20.0, 0.6, (1.0, 1.0), 9)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 8, 0)
        res = optimize(
            cfg, Strategy.DPCRS1, est, samples, np.ones(2),
            multicast_threshold=0.3, unicast_thresholds=np.array([0.2, 0.2]),
            order=(0, 1), ao=quick_ao(max_iterations=120),
        )
        assert res.status == "converged"
        assert np.all(res.alloc.rates >= 0)
        assert res.alloc.total() <= res.report.common_bound + 1e-7
        assert res.alloc.multicast >= 0.3 - 1e-9
        assert np.all(res.totals() >= 0.2 - 1e-6)
        assert res.precoders.total_power() <= cfg.transmit_power + 1e-7


class TestNesting:
    def test_feasible_set_nesting_same_instance(self):
        cfg = SystemConfig(2, 2, 20.0, 0.6, (1.0, 1.0), 12)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 16, 0)
        u = np.ones(2)
        ao = quick_ao(max_iterations=150)
        dpcrs = optimize(cfg, Strategy.DPCRS1, est, samples, u, order=(0, 1), ao=ao)
        dpc = optimize(cfg, Strategy.DPC, est, samples, u, order=(0, 1), ao=ao)
        rs1 = optimize(cfg, Strategy.RS1, est, samples, u, ao=ao)
        mulp = optimize(cfg, Strategy.MULP, est, samples, u, ao=ao)
        assert dpcrs.wasr >= dpc.wasr - 1e-4
        assert rs1.wasr >= mulp.wasr - 1e-4

    def test_dpc_subproblem_embeds_into_dpcrs1(self):
        # Pinned reduction: the DPC program is the DPCRS1 program with the
        # per-user common parts forced to zero; objective and constraints
        # agree on the embedded domain.
        cfg = SystemConfig(2, 2, 20.0, 0.6, (1.0, 1.0), 4)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 8, 0)
        prec = initialize_precoders(est, cfg, (0, 1))
        g, w = update_equalizers_weights(Strategy.DPC, samples, prec)
        coeffs = assemble_coefficients(Strategy.DPC, samples, g, w, (0, 1))
        spec_dpc = build_subproblem(coeffs, np.ones(2), np.zeros(2), 0.2, cfg.transmit_power)
        spec_rs = build_subproblem(
            dataclasses.replace(coeffs, strategy=Strategy.DPCRS1),
            np.ones(2), np.zeros(2), 0.2, cfg.transmit_power,
        )
        sol = solve(spec_dpc, tol=1e-9, initial=prec)
        assert sol.status == "optimal"
        embedded = np.concatenate([sol.xhat, [0.0, 0.0]])
        assert spec_rs.objective_value(sol.precoders, embedded) == pytest.approx(
            sol.objective, abs=1e-8
        )
        assert np.all(spec_rs.constraint_values(sol.precoders, embedded) <= 1e-9)
        sol_rs = solve(spec_rs, tol=1e-9, initial=prec)
        assert sol_rs.objective <= sol.objective + 1e-8


class TestOrders:
    def test_single_user_single_order(self):
        cfg = SystemConfig(1, 2, 15.0, 0.8, (1.0,), 6)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 4, 0)
        ao = quick_ao(max_iterations=60)
        best = optimize_strategy(cfg, Strategy.DPC, est, samples, np.array([1.0]), ao=ao)
        direct = optimize(cfg, Strategy.DPC, est, samples, np.array([1.0]), order=(0,), ao=ao)
        assert best.order == (0,)
        assert best.wasr == pytest.approx(direct.wasr, abs=1e-12)

    def test_two_user_best_of_two(self):
        cfg = SystemConfig(2, 2, 20.0, 0.6, (0.5, 1.0), 8)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 8, 0)
        ao = quick_ao(max_iterations=60)
        u = np.ones(2)
        best = optimize_strategy(cfg, Strategy.DPC, est, samples, u, ao=ao)
        per_order = [
            optimize(cfg, Strategy.DPC, est, samples, u, order=o, ao=ao)
            for o in ((0, 1), (1, 0))
        ]
        for res in per_order:
            assert best.wasr >= res.wasr - 1e-12
        assert best.order in ((0, 1), (1, 0))

    def test_symmetric_users_order_invariant(self):
        # Fully swap-symmetric instance: identical estimate columns and
        # identical error draws per sample.
        n_t, m = 2, 4
        rng = np.random.default_rng(3)
        col = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
        est = ChannelEstimate(np.column_stack([col, col]))
        err_col = 0.25 * (rng.standard_normal((m, n_t)) + 1j * rng.standard_normal((m, n_t)))
        errors = np.stack([err_col, err_col], axis=2)
        samples = SampleSet(est, errors, est.matrix[None] + errors)
        cfg = SystemConfig(2, n_t, 15.0, 0.6, (1.0, 1.0), 0)
        ao = quick_ao(max_iterations=40)
        res_a = optimize(cfg, Strategy.DPC, est, samples, np.ones(2), order=(0, 1), ao=ao)
        res_b = optimize(cfg, Strategy.DPC, est, samples, np.ones(2), order=(1, 0), ao=ao)
        assert res_a.wasr == pytest.approx(res_b.wasr, abs=1e-6)

    def test_cap_and_strategy_guards(self):
        k = ao_module.ORDER_CAP + 1
        cfg = SystemConfig(k, 2, 15.0, 0.6, (1.0,) * k, 1)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 4, 0)
        with pytest.raises(ValueError):
            optimize_strategy(cfg, Strategy.DPC, est, samples, np.ones(k))
        with pytest.raises(ValueError):
            optimize(cfg, Strategy.DPC, est, samples, np.ones(k), order=None)


    def test_cap_checked_before_any_run(self, monkeypatch):
        # Above the cap no order gets a run; at the cap every order gets one.
        runs = []

        def fake_optimize(cfg, strategy, est, samples, weights, mc, uc, order, ao):
            runs.append(order)
            return SimpleNamespace(status="converged", wasr=float(len(runs)), order=order)

        def run(k):
            cfg = SystemConfig(k, 1, 10.0, 0.6, (1.0,) * k, 0)
            est = draw_estimate(cfg, 0)
            samples = draw_sample_set(cfg, est, 1, 0)
            return optimize_strategy(cfg, Strategy.DPCRS1, est, samples, np.ones(k))

        monkeypatch.setattr(ao_module, "optimize", fake_optimize)
        with pytest.raises(ValueError, match="cap"):
            run(ao_module.ORDER_CAP + 1)
        assert runs == []
        best = run(ao_module.ORDER_CAP)
        assert len(runs) == len(set(runs)) == 120
        assert best.order == runs[-1]


class TestPinCommon:
    """When the subproblem drops the common stream and its constraints."""

    @staticmethod
    def _pin(strategy, multicast_threshold, common_rate_bits, common_bound):
        nu = np.array([[0.0, common_rate_bits * LN2], [0.4, 0.7]])   # [stream, user]
        coeffs = SimpleNamespace(nu=nu)
        return ao_module._should_pin_common(strategy, multicast_threshold, coeffs, common_bound)

    def test_no_common_unicast_pins_without_threshold(self):
        for strategy in (Strategy.MULP, Strategy.DPC):
            assert self._pin(strategy, 0.0, 3.0, 3.0)
            assert self._pin(strategy, 0.0, 0.0, 0.0)

    def test_threshold_never_pins(self):
        for strategy in Strategy:
            assert not self._pin(strategy, 1e-6, 0.0, 0.0)
            assert not self._pin(strategy, 0.5, 3.0, 3.0)

    def test_common_unicast_pins_only_when_rate_and_bound_vanish(self):
        for strategy in (Strategy.RS1, Strategy.DPCRS1):
            assert self._pin(strategy, 0.0, 0.0, 0.0)
            assert self._pin(strategy, 0.0, 0.9e-9, 0.9e-9)
            assert not self._pin(strategy, 0.0, 1.1e-9, 0.0)
            assert not self._pin(strategy, 0.0, 0.0, 1.1e-9)


class TestWaterFillingOracle:
    def test_perfect_csit_orthogonal_dpc(self):
        # Orthogonal channels, perfect CSIT, single sample: the optimum is a
        # water-filling power split across two interference-free links.
        a, b = 1.0, 0.7
        est = ChannelEstimate(np.array([[a, 0.0], [0.0, b]], dtype=complex))
        cfg = SystemConfig(2, 2, 20.0, 1e6, (1.0, 1.0), 0)
        samples = draw_sample_set(cfg, est, 1, 0)
        p_t = cfg.transmit_power

        def sum_rate(p1):
            return np.log2(1 + a * a * p1) + np.log2(1 + b * b * (p_t - p1))

        lo, hi = 0.0, p_t
        best = (-np.inf, 0.0)
        for _ in range(4):
            grid = np.linspace(lo, hi, 2000)
            vals = sum_rate(grid)
            i = int(np.argmax(vals))
            if vals[i] > best[0]:
                best = (float(vals[i]), float(grid[i]))
            step = grid[1] - grid[0]
            lo, hi = max(0.0, best[1] - 2 * step), min(p_t, best[1] + 2 * step)

        res = optimize_strategy(
            cfg, Strategy.DPC, est, samples, np.ones(2), ao=quick_ao(max_iterations=300, eps=1e-6)
        )
        assert res.wasr == pytest.approx(best[0], abs=1e-3)


class TestDispatch:
    def test_optimize_strategy_routes(self):
        cfg = SystemConfig(2, 2, 15.0, 0.6, (1.0, 1.0), 2)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 4, 0)
        ao = quick_ao(max_iterations=30)
        res_dpc = optimize_strategy(cfg, Strategy.DPC, est, samples, np.ones(2), ao=ao)
        assert res_dpc.order is not None
        res_mulp = optimize_strategy(cfg, Strategy.MULP, est, samples, np.ones(2), ao=ao)
        assert res_mulp.order is None
