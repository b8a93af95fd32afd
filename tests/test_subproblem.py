import dataclasses
import itertools

import numpy as np
import pytest

from noumopt import (
    COMMON,
    PRIVATE,
    AoConfig,
    PrecoderSet,
    Strategy,
    SystemConfig,
    assemble_coefficients,
    build_subproblem,
    draw_estimate,
    draw_sample_set,
    kkt_residual,
    optimize,
    optimize_strategy,
    solve,
    update_equalizers_weights,
)
from noumopt import subproblem as subproblem_module
from noumopt.reference import xi_hat_nats
from noumopt.wmmse import LN2


def make_instance(seed=0, k=2, n_t=2, m=8, strategy=Strategy.DPCRS1, snr_db=20.0, alpha=0.6,
                  order=None):
    cfg = SystemConfig(k, n_t, snr_db, alpha, (1.0,) * k, seed)
    est = draw_estimate(cfg, 0)
    samples = draw_sample_set(cfg, est, m, 0)
    rng = np.random.default_rng(seed + 1000)
    if not strategy.uses_dpc:
        order = None
    elif order is None:
        order = tuple(range(k))
    prec = PrecoderSet.from_parts(
        rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t),
        rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k)),
        order,
    )
    scale = np.sqrt(0.8 * cfg.transmit_power / prec.total_power())
    prec = PrecoderSet.from_parts(prec.common * scale, prec.private * scale, order)
    g, w = update_equalizers_weights(strategy, samples, prec)
    coeffs = assemble_coefficients(strategy, samples, g, w, order)
    return cfg, samples, prec, coeffs, order


class TestBuildStructure:
    def test_dpcrs1_k2_counts(self):
        cfg, samples, prec, coeffs, order = make_instance(k=2, n_t=3)
        spec = build_subproblem(coeffs, np.ones(2), np.zeros(2), 0.0, cfg.transmit_power)
        # 2 common decodability + 2 QoS + 1 multicast QoS + power + 3 sign = 9
        assert len(spec.constraints) == 9
        assert spec.num_slack == 3
        assert spec.dim == 2 * 3 * 3 + 3

    def test_dpc_slack_reduces_to_one(self):
        cfg, samples, prec, coeffs, order = make_instance(strategy=Strategy.DPC)
        spec = build_subproblem(coeffs, np.ones(2), np.zeros(2), 0.0, cfg.transmit_power)
        assert spec.num_slack == 1
        # 2 common + 2 QoS + 1 multicast + power + 1 sign = 7
        assert len(spec.constraints) == 7

    def test_pinned_drops_common_constraints(self):
        cfg, samples, prec, coeffs, order = make_instance(strategy=Strategy.MULP)
        spec = build_subproblem(
            coeffs, np.ones(2), np.zeros(2), 0.0, cfg.transmit_power, pin_common=True,
        )
        assert spec.num_slack == 0
        assert len(spec.constraints) == 3  # 2 QoS + power
        with pytest.raises(ValueError):
            build_subproblem(
                coeffs, np.ones(2), np.zeros(2), 0.5, cfg.transmit_power, pin_common=True,
            )

    def test_pack_layout_and_round_trip(self):
        cfg, samples, prec, coeffs, order = make_instance(k=3, n_t=2)
        spec = build_subproblem(coeffs, np.ones(3), np.zeros(3), 0.0, cfg.transmit_power)
        xhat = -np.arange(1.0, 5.0)
        z = spec.pack(prec, xhat)
        columns = [prec.common] + [prec.private[:, k] for k in range(3)]
        expected = np.concatenate([np.concatenate([p.real, p.imag]) for p in columns] + [xhat])
        assert np.array_equal(z, expected)
        back, xhat_back = spec.unpack(z)
        assert np.array_equal(back.common, prec.common)
        assert np.array_equal(back.private, prec.private)
        assert back.order == order
        assert np.array_equal(xhat_back, xhat)

    def test_zero_thresholds_inactive_at_update_point(self):
        cfg, samples, prec, coeffs, order = make_instance()
        spec = build_subproblem(coeffs, np.ones(2), np.zeros(2), 0.0, cfg.transmit_power)
        values = spec.constraints.values(spec.pack(prec, np.zeros(3)))
        # Rows 2, 3 are the QoS rows and row 4 the multicast row.
        assert np.all(values[2:5] <= 1e-12)

    def test_rejects_non_psd(self):
        cfg, samples, prec, coeffs, order = make_instance()
        min_eig = float(np.min(np.linalg.eigvalsh(coeffs.psi[PRIVATE, 0])))
        psi = coeffs.psi.copy()
        psi[PRIVATE, 0] -= (min_eig + 1e-6) * np.eye(2)
        bad = dataclasses.replace(coeffs, psi=psi)
        with pytest.raises(ValueError, match="PSD"):
            build_subproblem(bad, np.ones(2), np.zeros(2), 0.0, cfg.transmit_power)

    def test_rejects_bad_inputs(self):
        cfg, samples, prec, coeffs, order = make_instance()
        with pytest.raises(ValueError):
            build_subproblem(coeffs, np.array([1.0, -1.0]), np.zeros(2), 0.0, 100.0)
        with pytest.raises(ValueError):
            build_subproblem(coeffs, np.ones(2), np.array([-0.1, 0.0]), 0.0, 100.0)
        # DPC-family coefficients carry the encoding order their rows need.
        with pytest.raises(ValueError, match="encoding order"):
            build_subproblem(dataclasses.replace(coeffs, order=None), np.ones(2), np.zeros(2),
                             0.0, 100.0)

    def test_objective_matches_raw_coefficient_sum(self):
        cfg, samples, prec, coeffs, order = make_instance(seed=5)
        u = np.array([1.3, 0.7])
        spec = build_subproblem(coeffs, u, np.zeros(2), 0.0, cfg.transmit_power)
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = PrecoderSet.from_parts(
                rng.standard_normal(2) + 1j * rng.standard_normal(2),
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                order,
            )
            xhat = -np.abs(rng.standard_normal(3))
            manual = sum(
                u[k] * (xhat[1 + k] + xi_hat_nats(coeffs, p, PRIVATE, k)) for k in range(2)
            )
            assert abs(spec.objective.values(spec.pack(p, xhat))[0] - manual) <= 1e-10


    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_xi_rows_equal_xi_hat_nats(self, k, strategy):
        # At xhat = 0 with zero unicast thresholds, each common-decodability
        # and QoS row is its stream's averaged WMSE minus 1, for every order.
        orders = itertools.permutations(range(k)) if strategy.uses_dpc else [None]
        for order in orders:
            cfg, samples, prec, coeffs, order = make_instance(
                seed=11, k=k, strategy=strategy, order=order
            )
            spec = build_subproblem(coeffs, np.ones(k), np.zeros(k), 0.0, cfg.transmit_power)
            rng = np.random.default_rng(k)
            for _ in range(2):
                p = PrecoderSet.from_parts(
                    rng.standard_normal(2) + 1j * rng.standard_normal(2),
                    rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k)),
                    order,
                )
                values = spec.constraints.values(spec.pack(p, np.zeros(spec.num_slack)))
                # Rows 0..k-1 are the common-decodability rows, k..2k-1 the QoS ones.
                for stream, first_row in ((COMMON, 0), (PRIVATE, k)):
                    for user in range(k):
                        row = values[first_row + user]
                        xi = xi_hat_nats(coeffs, p, stream, user)
                        assert abs(row - (xi - 1.0)) <= 1e-12 * max(1.0, abs(xi))


class TestSolve:
    def test_kkt_residual_below_tolerance(self):
        for seed in range(4):
            cfg, samples, prec, coeffs, order = make_instance(seed=seed)
            spec = build_subproblem(coeffs, np.ones(2), np.zeros(2), 0.0, cfg.transmit_power)
            sol = solve(spec, tol=1e-8, initial=prec)
            assert sol.status == "optimal"
            assert sol.kkt_residual <= 1e-7
            assert sol.precoders.total_power() <= cfg.transmit_power + 1e-7
            assert np.all(sol.xhat <= 1e-9)

    def test_optimum_beats_random_feasible_points(self):
        cfg, samples, prec, coeffs, order = make_instance(seed=3)
        spec = build_subproblem(coeffs, np.ones(2), np.zeros(2), 0.0, cfg.transmit_power)
        sol = solve(spec, tol=1e-8, initial=prec)
        rng = np.random.default_rng(7)
        found = 0
        noise_scale = 0.05 * np.sqrt(cfg.transmit_power / 4)
        for _ in range(2000):
            if found >= 100:
                break
            # Random points near the assembly precoders (far-away points make
            # the surrogate common rate negative, leaving no feasible slack).
            t = rng.uniform(0.6, 1.0)
            p = PrecoderSet.from_parts(
                prec.common * t + noise_scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2)),
                prec.private * t + noise_scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
                order,
            )
            if p.total_power() > 0.98 * cfg.transmit_power:
                continue
            z0 = spec.pack(p, np.zeros(3))
            budget = 1.0 - max(spec.constraints.values(z0)[k] + 1.0 for k in range(2))
            if budget <= 1e-6:
                continue
            chat = rng.uniform(0.0, budget / 4.0, size=3)
            xhat = -chat
            z = spec.pack(p, xhat)
            if np.all(spec.constraints.values(z) <= 0):
                found += 1
                assert sol.objective <= spec.objective.values(z)[0] + 1e-9
        assert found >= 100

    def test_phase_rotation_of_warm_start_same_objective(self):
        cfg, samples, prec, coeffs, order = make_instance(seed=9)
        spec = build_subproblem(coeffs, np.ones(2), np.zeros(2), 0.0, cfg.transmit_power)
        sol_a = solve(spec, tol=1e-9, initial=prec)
        rotated = PrecoderSet.from_parts(
            prec.common * np.exp(1j * 1.1),
            prec.private * np.exp(1j * np.array([[0.4, -2.0]])),
            order,
        )
        sol_b = solve(spec, tol=1e-9, initial=rotated)
        assert sol_a.objective == pytest.approx(sol_b.objective, abs=1e-6)

    def test_infeasible_multicast_threshold(self):
        cfg, samples, prec, coeffs, order = make_instance(seed=4, k=1, n_t=1, strategy=Strategy.RS1)
        est_norm = np.linalg.norm(samples.estimate.matrix[:, 0]) ** 2
        impossible = np.log2(1.0 + cfg.transmit_power * est_norm) + 5.0
        spec = build_subproblem(coeffs, np.ones(1), np.zeros(1), impossible, cfg.transmit_power)
        sol = solve(spec, tol=1e-8, initial=prec)
        assert sol.status == "infeasible"
        assert sol.infeasibility is not None and sol.infeasibility > 0

    def test_qos_thresholds_respected(self):
        cfg, samples, prec, coeffs, order = make_instance(seed=6)
        thresholds = np.array([0.5, 0.5])
        spec = build_subproblem(coeffs, np.ones(2), thresholds, 0.3, cfg.transmit_power)
        sol = solve(spec, tol=1e-8, initial=prec)
        assert sol.status == "optimal"
        # the multicast slack X_0 = xhat[0] (nats) honors its threshold (bits)
        assert -sol.xhat[0] / LN2 >= 0.3 - 1e-7
        values = spec.constraints.values(spec.pack(sol.precoders, sol.xhat))
        assert np.all(values <= 1e-7)


    def test_status_is_kkt_residual_within_tol(self):
        # The reported residual is the one of the returned point and
        # multipliers, in original units, for every objective scale.
        for u in ((1.0, 1.0), (1.0, 10.0), (1000.0, 3.0)):
            statuses = set()
            for seed in range(3):
                for strategy in (Strategy.DPCRS1, Strategy.MULP):
                    cfg, samples, prec, coeffs, order = make_instance(seed=seed, strategy=strategy)
                    spec = build_subproblem(coeffs, np.array(u), np.zeros(2), 0.0,
                                            cfg.transmit_power)
                    for tol in (1e-6, 1e-8, 1e-15):
                        sol = solve(spec, tol=tol, initial=prec)
                        statuses.add(sol.status)
                        assert (sol.status == "optimal") == (sol.kkt_residual <= tol)
                        assert sol.kkt_residual == kkt_residual(spec, sol.precoders, sol.xhat,
                                                                sol.multipliers)
            assert statuses == {"optimal", "max_iter"}

    def test_criterion_9_tail_task_has_no_max_iter_exits(self, record_calls):
        # Master seed 9, realization 0, alpha 0.1, DPCRS1: stopping the
        # primal-dual at tol / 2 made 36 of its calls here end at max_iter.
        results = record_calls(subproblem_module, "solve_primal_dual")
        cfg = SystemConfig(2, 2, 20.0, 0.1, (1.0, 1.0), 9)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 64, 0)
        result = optimize_strategy(cfg, Strategy.DPCRS1, est, samples, np.ones(2))
        statuses = [res.status for res in results]
        assert result.status == "converged" and result.order == (0, 1)
        assert statuses and statuses.count("max_iter") == 0

    def test_region_m4000_tail_task_has_no_max_iter_exits(self, record_calls):
        # region_desk system at M = 4000, weights (1, 10), DPCRS1: with the
        # objective in raw units, 4 of its primal-dual calls ended at max_iter.
        results = record_calls(subproblem_module, "solve_primal_dual")
        cfg = SystemConfig(2, 4, 20.0, 0.6, (1.0, 1.0), 1)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 4000, 0)
        result = optimize_strategy(
            cfg, Strategy.DPCRS1, est, samples, np.array([1.0, 10.0]), 0.5
        )
        statuses = [res.status for res in results]
        assert result.status == "converged"
        assert statuses and statuses.count("max_iter") == 0

    def test_max_iter_exit_returns_the_primal_dual_point(self):
        # Weights (10, 10) meet the complementarity floor: the primal-dual ends
        # max_iter with small KKT parts, and solve returns its point.
        cfg, samples, prec, coeffs, order = make_instance(seed=5)
        spec = build_subproblem(coeffs, np.array([10.0, 10.0]), np.zeros(2), 0.0,
                                cfg.transmit_power)
        sol = solve(spec, tol=1e-8, initial=prec)
        assert sol.status == "max_iter"
        stationarity, primal, complementarity = sol.kkt
        assert stationarity <= 1e-7
        assert primal <= 1e-7
        assert complementarity <= 1e-7


def k3_orders_step(strategy, order, iterations):
    """Specs of two consecutive AO steps on the esr-k3-orders system.

    K=3, N_t=4, 20 dB, alpha 0.5, master seed 1, realization 0, M=100, unit
    weights, multicast 0.5, QoS 0.3.  The first spec is built at the AO's
    iterate after ``iterations`` iterations and solved without a hint; the
    next one at that solution's precoders.  Returns
    (spec, initial, sol, next_spec) with ``initial`` the first spec's warm start.
    """
    cfg = SystemConfig(3, 4, 20.0, 0.5, (1.0,) * 3, 1)
    est = draw_estimate(cfg, 0)
    samples = draw_sample_set(cfg, est, 100, 0)
    weights, qos = np.ones(3), np.full(3, 0.3)

    def spec_at(precoders):
        g, w = update_equalizers_weights(strategy, samples, precoders)
        coeffs = assemble_coefficients(strategy, samples, g, w, order)
        return build_subproblem(coeffs, weights, qos, 0.5, cfg.transmit_power)

    initial = optimize(cfg, strategy, est, samples, weights, 0.5, qos, order,
                       AoConfig(max_iterations=iterations)).precoders
    spec = spec_at(initial)
    sol = solve(spec, initial=initial)
    return spec, initial, sol, spec_at(sol.precoders)


def assert_same_solution(a, b):
    assert (a.status, a.iterations, a.objective) == (b.status, b.iterations, b.objective)
    assert np.array_equal(a.precoders.common, b.precoders.common)
    assert np.array_equal(a.precoders.private, b.precoders.private)
    assert np.array_equal(a.xhat, b.xhat) and np.array_equal(a.multipliers, b.multipliers)
    assert a.kkt == b.kkt and np.array_equal(a.start, b.start)


class TestStartHint:
    def test_previous_start_replaces_phase_1(self, record_calls):
        # After 10 MULP iterations the shrunk warm start of the next surrogate
        # leaves less common rate than the multicast threshold, so its
        # candidate misses the common rows; the previous start's midpoint is inside.
        _, _, sol, spec = k3_orders_step(Strategy.MULP, None, 10)
        candidate = subproblem_module._interior_candidate(spec, sol.precoders)
        assert spec.constraints.values(candidate).max() >= -1e-12
        phase1 = record_calls(subproblem_module, "find_strictly_feasible")
        cold = solve(spec, initial=sol.precoders)
        assert len(phase1) == 1
        warm = solve(spec, initial=sol.precoders, start=sol.start)
        assert len(phase1) == 1
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        assert spec.constraints.values(warm.start).max() < -1e-12

    def test_hint_is_unused_when_the_candidate_is_interior(self):
        spec, initial, sol, _ = k3_orders_step(Strategy.DPCRS1, (2, 0, 1), 1)
        candidate = subproblem_module._interior_candidate(spec, initial)
        assert spec.constraints.values(candidate).max() < -1e-12
        plain = solve(spec, initial=initial)
        assert np.array_equal(plain.start, candidate)
        rng = np.random.default_rng(3)
        for hint in (sol.start, rng.standard_normal(spec.dim), np.zeros(spec.dim)):
            assert_same_solution(solve(spec, initial=initial, start=hint), plain)

    def test_hint_of_another_length_is_ignored(self, record_calls):
        _, _, sol, spec = k3_orders_step(Strategy.MULP, None, 10)
        phase1 = record_calls(subproblem_module, "find_strictly_feasible")
        plain = solve(spec, initial=sol.precoders)
        for hint in (sol.start[:-1], np.append(sol.start, 0.0)):
            assert_same_solution(solve(spec, initial=sol.precoders, start=hint), plain)
        assert len(phase1) == 3

    def test_infeasible_verdict_survives_a_hint(self):
        # test_infeasible_multicast_threshold's spec, hinted with the start of
        # the same surrogate solved without a multicast threshold.
        cfg, samples, prec, coeffs, order = make_instance(seed=4, k=1, n_t=1, strategy=Strategy.RS1)
        est_norm = np.linalg.norm(samples.estimate.matrix[:, 0]) ** 2
        impossible = np.log2(1.0 + cfg.transmit_power * est_norm) + 5.0
        spec = build_subproblem(coeffs, np.ones(1), np.zeros(1), impossible, cfg.transmit_power)
        open_spec = build_subproblem(coeffs, np.ones(1), np.zeros(1), 0.0, cfg.transmit_power)
        hint = solve(open_spec, tol=1e-8, initial=prec).start
        assert hint.shape == (spec.dim,)
        sol = solve(spec, tol=1e-8, initial=prec, start=hint)
        assert sol.status == "infeasible" and sol.start is None
        assert sol.infeasibility is not None and sol.infeasibility > 0


class TestWeightInvariance:
    @pytest.mark.parametrize("strategy", [Strategy.DPCRS1, Strategy.RS1])
    @pytest.mark.parametrize("u", [(1.0, 1.0), (1.0, 3.0)])
    def test_scaled_weights_scale_only_the_multipliers(self, strategy, u):
        # The KKT residual is in objective units, so weights c * u are solved
        # to c * tol: the same problem, whose multipliers scale by c.
        cfg, samples, prec, coeffs, order = make_instance(seed=0, strategy=strategy)
        sols = []
        for c in (1.0, 10.0, 1000.0):
            spec = build_subproblem(coeffs, c * np.array(u), np.zeros(2), 0.0,
                                    cfg.transmit_power)
            sol = solve(spec, tol=c * 1e-8, initial=prec)
            assert sol.status == "optimal"
            sols.append((c, spec, spec.pack(sol.precoders, sol.xhat)[: spec.slack_offset],
                         sol.multipliers))
        _, _, base_z, base_lam = sols[0]
        for c, spec, z, lam in sols[1:]:
            assert np.linalg.norm(z - base_z) <= 1e-9 * np.linalg.norm(base_z)
            assert np.abs(lam - c * base_lam).max() <= 1e-9 * c * np.abs(base_lam).max()
        for c, spec, _, _ in sols:
            assert spec.objective_scale == c * max(u)


class TestKktResidual:
    def test_optimum_vs_perturbed(self):
        cfg, samples, prec, coeffs, order = make_instance(seed=2)
        spec = build_subproblem(coeffs, np.ones(2), np.zeros(2), 0.0, cfg.transmit_power)
        sol = solve(spec, tol=1e-8, initial=prec)
        at_opt = kkt_residual(spec, sol.precoders, sol.xhat, sol.multipliers)
        assert at_opt <= 1e-7
        shrunk = PrecoderSet.from_parts(
            sol.precoders.common * 0.7, sol.precoders.private * 0.7, order
        )
        away = kkt_residual(spec, shrunk, sol.xhat - 0.05, sol.multipliers)
        assert away > 1e-7

    def test_scale_consistency(self):
        cfg, samples, prec, coeffs, order = make_instance(seed=2)
        u = np.ones(2)
        spec1 = build_subproblem(coeffs, u, np.zeros(2), 0.0, cfg.transmit_power)
        spec2 = build_subproblem(coeffs, 2 * u, np.zeros(2), 0.0, cfg.transmit_power)
        lam = np.abs(np.random.default_rng(0).standard_normal(len(spec1.constraints)))
        xhat = -0.1 * np.ones(3)
        r1 = kkt_residual(spec1, prec, xhat, lam)
        r2 = kkt_residual(spec2, prec, xhat, 2 * lam)
        assert r2 == pytest.approx(2 * r1, rel=1e-9)


class TestScalarGridOracle:
    def test_matches_dense_grid_search(self):
        # N_t=1, K=1, single sample, no thresholds: two scalar precoders with
        # phases pinned to the linear coefficients; two-stage dense grid over
        # the magnitudes is the independent oracle.
        cfg, samples, prec, coeffs, order = make_instance(
            seed=14, k=1, n_t=1, m=1, strategy=Strategy.RS1
        )
        spec = build_subproblem(coeffs, np.ones(1), np.zeros(1), 0.0, cfg.transmit_power)
        sol = solve(spec, tol=1e-9, initial=prec)
        assert sol.status == "optimal"

        # Hand-derived reduced objective from the raw per-stream scalars
        # (N_t = 1): optimal phases align each precoder with its linear
        # coefficient, X_0 = 0, and X_1 sits on the common-decodability bound.
        psi_c = float(np.real(coeffs.psi[COMMON, 0, 0, 0]))
        psi_p = float(np.real(coeffs.psi[PRIVATE, 0, 0, 0]))
        fc, fp = abs(coeffs.f[COMMON, 0, 0]), abs(coeffs.f[PRIVATE, 0, 0])
        const_c, const_p = coeffs.t[:, 0] + coeffs.w[:, 0] - coeffs.nu[:, 0]
        p_t = cfg.transmit_power

        def reduced_objective(rc, rp):
            xi_c = psi_c * (rc**2 + rp**2) - 2 * rc * fc + const_c
            xi_p = psi_p * rp**2 - 2 * rp * fp + const_p
            x1 = xi_c - 1.0
            value = x1 + xi_p
            infeasible = (x1 > 0) | (value > 1.0) | (rc**2 + rp**2 > p_t)
            return np.where(infeasible, np.inf, value)

        lo_c, hi_c = 0.0, np.sqrt(p_t)
        lo_p, hi_p = 0.0, np.sqrt(p_t)
        best = (np.inf, 0.0, 0.0)
        for stage in range(3):
            rc = np.linspace(lo_c, hi_c, 400)
            rp = np.linspace(lo_p, hi_p, 400)
            vals = reduced_objective(rc[:, None], rp[None, :])
            idx = np.unravel_index(np.argmin(vals), vals.shape)
            if vals[idx] < best[0]:
                best = (float(vals[idx]), float(rc[idx[0]]), float(rp[idx[1]]))
            step_c, step_p = rc[1] - rc[0], rp[1] - rp[0]
            lo_c, hi_c = max(0.0, best[1] - 2 * step_c), best[1] + 2 * step_c
            lo_p, hi_p = max(0.0, best[2] - 2 * step_p), best[2] + 2 * step_p
        assert sol.objective == pytest.approx(best[0], abs=1e-4)
