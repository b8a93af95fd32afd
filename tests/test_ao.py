import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from noumopt import (
    AoConfig,
    CommonRateAlloc,
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
    sampled_average_rates,
    solve,
    update_equalizers_weights,
    wasr,
)
from noumopt import ao as ao_module
from noumopt import subproblem as subproblem_module
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
        assert np.all(np.isfinite(prec.rows.view(float)))

    @pytest.mark.parametrize("fraction", [0.5, 0.9, 1.0 - 1e-6])
    @pytest.mark.parametrize("alpha", [0.6, 0.0])   # alpha = 0 -> zero estimate
    def test_common_fraction_sets_the_split(self, fraction, alpha):
        cfg = SystemConfig(2, 4, 20.0, alpha, (1.0, 1.0), 1)
        est = draw_estimate(cfg, 0)
        prec = initialize_precoders(est, cfg, (0, 1), common_fraction=fraction)
        p_t = cfg.transmit_power
        common = float(np.sum(np.abs(prec.common) ** 2))
        assert common == pytest.approx(fraction * p_t, rel=1e-12)
        assert prec.total_power() == pytest.approx(p_t, rel=1e-12)


class TestRescueStarts:
    # region_desk system (K=2, N_t=4, 20 dB, alpha 0.6, master seed 1),
    # realization 0, M=100, unit weights, DPC at order (0, 1).  The default
    # start's first surrogate cannot certify these multicast thresholds.
    @staticmethod
    def _system():
        cfg = SystemConfig(2, 4, 20.0, 0.6, (1.0, 1.0), 1)
        est = draw_estimate(cfg, 0)
        return cfg, est, draw_sample_set(cfg, est, 100, 0)

    @pytest.mark.parametrize("threshold, failed, value", [
        (0.5, 1, 10.4406),      # the 0.5 rung
        (2.0, 2, 9.5670),       # the 0.9 rung
        (5.0, 3, 6.4924),       # the 1 - 1e-6 rung
    ])
    def test_ladder_stops_at_the_first_run_past_iteration_0(
        self, record_calls, threshold, failed, value
    ):
        runs = record_calls(ao_module, "_run_ao")
        cfg, est, samples = self._system()
        res = optimize(cfg, Strategy.DPC, est, samples, np.ones(2), threshold, order=(0, 1))
        assert [r.status for r in runs] == ["infeasible"] * failed + ["converged"]
        assert all(r.iterations == 0 for r in runs[:-1])
        assert res is runs[-1] and res.order == (0, 1)
        assert res.alloc.multicast >= threshold - 1e-12
        assert res.wasr == pytest.approx(value, abs=1e-4)

    def test_initial_replaces_only_the_default_start(self, monkeypatch):
        starts = []
        original = ao_module._run_ao

        def recorded(*args):
            starts.append(args[-1])
            return original(*args)

        monkeypatch.setattr(ao_module, "_run_ao", recorded)
        cfg, est, samples = self._system()
        initial = initialize_precoders(est, cfg)
        optimize(cfg, Strategy.DPC, est, samples, np.ones(2), 2.0, order=(0, 1),
                 initial=initial)
        assert len(starts) == 3 and all(p.order == (0, 1) for p in starts)
        assert np.array_equal(starts[0].common, initial.common)
        rung = initialize_precoders(est, cfg, (0, 1), common_fraction=0.5)
        assert np.array_equal(starts[1].common, rung.common)
        assert np.array_equal(starts[1].private, rung.private)


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

    def test_infeasible_totals_are_nan(self):
        # The start misses the multicast threshold and no surrogate is
        # feasible, so the result holds no allocation.
        cfg = SystemConfig(1, 1, 10.0, 0.6, (1.0,), 3)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 4, 0)
        res = optimize_strategy(cfg, Strategy.RS1, est, samples, np.ones(1), 20.0)
        assert res.status == "infeasible" and res.alloc is None
        totals = res.totals()
        assert totals.shape == (1,) and np.isnan(totals).all()

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
        assert res.alloc.rates.sum() <= res.report.common_bound + 1e-7
        assert res.alloc.multicast >= 0.3 - 1e-9
        assert np.all(res.totals() >= 0.2 - 1e-6)
        assert res.precoders.total_power() <= cfg.transmit_power + 1e-7


class TestLadder:
    """``_candidate_state`` scores the step and its extrapolations as one batch.

    It must return what scoring ``[step] + probes`` one set at a time returns,
    bit for bit: the first strict WASR maximum among the candidates that meet
    the rate constraints, or None when the step itself misses them.
    """

    @staticmethod
    def _one_at_a_time(strategy, samples, previous, step, weights, multicast, unicast, p_t):
        """(best state or None, [(report, WASR or None if infeasible)] per candidate)."""
        best, scored = None, []
        for gamma in (1.0,) + ao_module._EXTRAPOLATION_FACTORS:
            prec = step if gamma == 1.0 else PrecoderSet.from_parts(
                previous.common + gamma * (step.common - previous.common),
                previous.private + gamma * (step.private - previous.private),
                step.order,
            )
            power = prec.total_power()
            if power > p_t:
                scale = np.sqrt(p_t / power)
                prec = PrecoderSet.from_parts(prec.common * scale, prec.private * scale, prec.order)
            (report,) = sampled_average_rates(strategy, samples, [prec])
            rates, ok = ao_module._greedy_alloc(strategy, [report], weights, multicast, unicast)
            value = None
            if ok[0]:
                alloc = CommonRateAlloc(rates[0])
                value = wasr(weights, alloc.per_user + report.private_per_user)
                if best is None or value > best[0]:
                    best = (value, prec, alloc, report)
            scored.append((report, value))
        return (best if scored[0][1] is not None else None), scored

    @staticmethod
    def _assert_same_state(got, want):
        if want is None:
            assert got is None
            return
        assert got[0] == want[0]
        pairs = [(got[1].common, want[1].common), (got[1].private, want[1].private),
                 (got[2].rates, want[2].rates),
                 (got[3].common_per_user, want[3].common_per_user),
                 (got[3].private_per_user, want[3].private_per_user)]
        for a, b in pairs:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_subproblem_step_matches_one_at_a_time(self, strategy):
        cfg = SystemConfig(2, 2, 20.0, 0.6, (1.0, 1.0), 4)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 64, 0)
        weights = np.array([1.0, 3.0])
        previous = initialize_precoders(est, cfg, (1, 0) if strategy.uses_dpc else None)
        g, w = update_equalizers_weights(strategy, samples, previous)
        coeffs = assemble_coefficients(strategy, samples, g, w, previous.order)
        spec = build_subproblem(coeffs, weights, np.zeros(2), 0.2, cfg.transmit_power)
        step = solve(spec, initial=previous).precoders
        args = (strategy, samples, previous, step, weights, 0.2, np.zeros(2), cfg.transmit_power)
        want, _ = self._one_at_a_time(*args)
        assert want is not None
        self._assert_same_state(ao_module._candidate_state(*args), want)

    @staticmethod
    def _sign_flip_ladder(unicast_user_0):
        # MULP, where only user 0's private precoder moves: e_1 times 5 before
        # the step and 3 after it, so the candidates (factors 1, 1.5, 2, 3, 5,
        # 8) put 3, 2, 1, -1, -5 and -11 there, all exact.  Factors 2 and 3
        # differ only in that column's sign and so tie bit for bit.  User 1's
        # weight dominates, so a weaker user-0 stream scores higher.
        cfg = SystemConfig(2, 2, 20.0, 0.6, (1.0, 1.0), 4)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 64, 0)
        common = np.array([2.0, 0.0], dtype=complex)
        previous = PrecoderSet.from_parts(common, np.array([[5.0, 0.0], [0.0, 4.0]], dtype=complex))
        step = PrecoderSet.from_parts(common, np.array([[3.0, 0.0], [0.0, 4.0]], dtype=complex))
        return (Strategy.MULP, samples, previous, step, np.array([1e-3, 1.0]), 0.0,
                np.array([unicast_user_0, 0.0]), 200.0)

    def _user_0_rates(self):
        """User 0's private rate at each candidate, with no QoS threshold."""
        _, scored = self._one_at_a_time(*self._sign_flip_ladder(0.0))
        return [report.private_per_user[0] for report, _ in scored]

    @staticmethod
    def _feasible(scored):
        return [value is not None for _, value in scored]

    def test_tie_goes_to_the_smaller_factor(self):
        args = self._sign_flip_ladder(0.0)
        want, scored = self._one_at_a_time(*args)
        values = [value for _, value in scored]
        assert None not in values
        assert values[2] == values[3] == max(values)
        got = ao_module._candidate_state(*args)
        self._assert_same_state(got, want)
        assert got[1].private[0, 0] == 1.0          # factor 2, not its sign-flipped tie

    def test_infeasible_probe_is_skipped(self):
        rate = self._user_0_rates()
        # User 0's QoS threshold between its rates at |1| and |2|: factors 2
        # and 3, the best scores, miss it.
        args = self._sign_flip_ladder(0.5 * (rate[2] + rate[1]))
        want, scored = self._one_at_a_time(*args)
        assert self._feasible(scored) == [True, True, False, False, True, True]
        got = ao_module._candidate_state(*args)
        self._assert_same_state(got, want)
        assert got[1].private[0, 0] == 2.0          # factor 1.5

    def test_step_that_misses_the_constraints_gives_none(self):
        rate = self._user_0_rates()
        # Threshold between user 0's rates at |3| (the step) and |5|: the
        # step misses it although factors 5 and 8 meet it.
        args = self._sign_flip_ladder(0.5 * (rate[0] + rate[4]))
        want, scored = self._one_at_a_time(*args)
        assert self._feasible(scored) == [False, False, False, False, True, True]
        assert want is None
        assert ao_module._candidate_state(*args) is None

    def test_step_that_misses_the_constraints_is_rejected_at_iteration_0(self, monkeypatch):
        # A zero step misses the QoS thresholds; its factor-2 probe is minus
        # the start, which meets them, yet the run stops rejected.
        real_solve = ao_module.solve

        def zero_step(spec, **kwargs):
            sol = real_solve(spec, **kwargs)
            p = sol.precoders
            zero = PrecoderSet.from_parts(0 * p.common, 0 * p.private, p.order)
            return dataclasses.replace(sol, precoders=zero)

        monkeypatch.setattr(ao_module, "solve", zero_step)
        cfg = SystemConfig(2, 2, 20.0, 0.6, (1.0, 1.0), 0)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 8, 0)
        res = optimize(cfg, Strategy.RS1, est, samples, np.ones(2),
                       unicast_thresholds=np.full(2, 0.1), ao=quick_ao())
        assert res.status == "rejected"
        assert res.iterations == 0
        assert res.alloc is not None


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
        z = spec_rs.pack(sol.precoders, embedded)
        assert spec_rs.objective.values(z)[0] == pytest.approx(sol.objective, abs=1e-8)
        assert np.all(spec_rs.constraints.values(z) <= 1e-9)
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


class TestStartHint:
    def test_k3_qos_run_rarely_needs_phase_1(self, record_calls):
        # esr-k3-orders system, DPC at order (2, 0, 1): with every solve started
        # from the shrunk warm start, 66 of its surrogates ran phase-1.
        phase1 = record_calls(subproblem_module, "find_strictly_feasible")
        cfg = SystemConfig(3, 4, 20.0, 0.5, (1.0,) * 3, 1)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 100, 0)
        result = optimize(cfg, Strategy.DPC, est, samples, np.ones(3), 0.5, np.full(3, 0.3),
                          order=(2, 0, 1))
        assert result.status == "converged"
        assert len(phase1) <= 10


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
