"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here, not configurable.
"""
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from noumopt import (
    COMMON,
    PrecoderSet,
    Strategy,
    SystemConfig,
    assemble_coefficients,
    build_subproblem,
    draw_estimate,
    draw_sample_set,
    optimize,
    solve,
    update_equalizers_weights,
)
from noumopt.ao import AoConfig, optimize_strategy
from noumopt.experiments import run_esr_alpha, run_region, spec_from_dict, write_csv
from noumopt.reference import (
    check_ao_monotonicity,
    check_rate_wmmse_identity,
    check_subproblem_kkt,
    check_xi_hat_equivalence,
    effective_power_T,
    matched_filter_esr,
    mmse_equalizer,
    mmse_weight,
    mse,
    random_stream_tuple,
    weighted_mse_nats,
)

ALL_STRATEGIES = (Strategy.DPC, Strategy.DPCRS1, Strategy.RS1, Strategy.MULP)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] acceptance {number}: {name} ({detail})")
    assert ok, f"acceptance {number} {name}: {detail}"


def test_criterion_1_rate_wmmse_identity():
    worst = check_rate_wmmse_identity(seed=1, count=1000)
    report(1, "rate-WMMSE identity", worst <= 1e-9, f"max |xi - (1-R)| = {worst:.3e} over 1000 tuples")


def test_criterion_2_closed_form_optimality():
    rng = np.random.default_rng(2)
    worst_gap = 0.0      # how far below the closed form any perturbation got
    worst_numeric = 0.0  # closed-form vs numeric 1-D minimization
    for _ in range(200):
        strategy, h, e, prec, stream, user = random_stream_tuple(rng)
        T = effective_power_T(strategy, stream, user, h, e, prec)
        p = prec.common if stream == COMMON else prec.private[:, user]
        g_star = mmse_equalizer(h, p, T)
        w_star = mmse_weight(h, p, T)
        base = weighted_mse_nats(g_star, w_star, T, h, p)
        for _ in range(100):
            dg = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
            w_pert = max(w_star + 0.8 * rng.standard_normal(), 1e-6)
            value = weighted_mse_nats(g_star + dg, w_pert, T, h, p)
            worst_gap = max(worst_gap, base - value)
        # 1-D numeric minimizations: real/imag parts of g on the MSE, then w.
        re = minimize_scalar(lambda x: mse(complex(x, g_star.imag), T, h, p),
                             bounds=(-20, 20), method="bounded",
                             options={"xatol": 1e-12}).x
        im = minimize_scalar(lambda y: mse(complex(g_star.real, y), T, h, p),
                             bounds=(-20, 20), method="bounded",
                             options={"xatol": 1e-12}).x
        w_num = minimize_scalar(lambda w: weighted_mse_nats(g_star, w, T, h, p),
                                bounds=(1e-4, 1e6), method="bounded",
                                options={"xatol": 1e-12}).x
        numeric = weighted_mse_nats(complex(re, im), w_num, T, h, p)
        worst_numeric = max(worst_numeric, abs(numeric - base),
                            abs(complex(re, im) - g_star), abs(w_num - w_star))
    ok = worst_gap <= 1e-9 and worst_numeric <= 1e-6
    report(2, "closed-form equalizer/weight optimality", ok,
           f"max perturbation undershoot = {worst_gap:.3e}, numeric-min deviation = {worst_numeric:.3e}")


def test_criterion_3_xi_hat_equivalence():
    worst = check_xi_hat_equivalence(seed=3, count=200)
    report(3, "xi_hat equals direct per-sample WMSE average", worst <= 1e-10,
           f"max deviation = {worst:.3e} over 200 instances")


def test_criterion_4_subproblem_correctness():
    seeds = range(6)
    worst_kkt = check_subproblem_kkt(seeds)
    solves = len(seeds)

    # Scalar oracle: N_t=1, K=1, M=1, no thresholds, grid search over the two
    # precoder magnitudes with phases pinned to the linear coefficients.
    cfg = SystemConfig(1, 1, 20.0, 0.6, (1.0,), 14)
    est = draw_estimate(cfg, 0)
    samples = draw_sample_set(cfg, est, 1, 0)
    rng = np.random.default_rng(140)
    prec = PrecoderSet.from_parts(
        rng.standard_normal(1) + 1j * rng.standard_normal(1),
        rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
        None,
    )
    scale = np.sqrt(0.8 * cfg.transmit_power / prec.total_power())
    prec = PrecoderSet.from_parts(prec.common * scale, prec.private * scale, None)
    g, w = update_equalizers_weights(Strategy.RS1, samples, prec)
    coeffs = assemble_coefficients(Strategy.RS1, samples, g, w, None)
    spec = build_subproblem(coeffs, np.ones(1), np.zeros(1), 0.0, cfg.transmit_power)
    sol = solve(spec, tol=1e-9, initial=prec)
    worst_kkt = max(worst_kkt, sol.kkt_residual)
    solves += 1

    psi_c, psi_p = np.real(coeffs.psi[:, 0, 0, 0])
    fc, fp = np.abs(coeffs.f[:, 0, 0])
    const_c, const_p = coeffs.t[:, 0] + coeffs.w[:, 0] - coeffs.nu[:, 0]
    p_t = cfg.transmit_power

    def reduced(rc, rp):
        xi_c = psi_c * (rc**2 + rp**2) - 2 * rc * fc + const_c
        xi_p = psi_p * rp**2 - 2 * rp * fp + const_p
        x1 = xi_c - 1.0
        bad = (x1 > 0) | (x1 + xi_p > 1.0) | (rc**2 + rp**2 > p_t)
        return np.where(bad, np.inf, x1 + xi_p)

    lo_c = lo_p = 0.0
    hi_c = hi_p = np.sqrt(p_t)
    best = (np.inf, 0.0, 0.0)
    for _ in range(3):
        rc = np.linspace(lo_c, hi_c, 500)
        rp = np.linspace(lo_p, hi_p, 500)
        vals = reduced(rc[:, None], rp[None, :])
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[idx] < best[0]:
            best = (float(vals[idx]), float(rc[idx[0]]), float(rp[idx[1]]))
        sc_, sp_ = rc[1] - rc[0], rp[1] - rp[0]
        lo_c, hi_c = max(0.0, best[1] - 2 * sc_), best[1] + 2 * sc_
        lo_p, hi_p = max(0.0, best[2] - 2 * sp_), best[2] + 2 * sp_
    gap = abs(sol.objective - best[0])
    ok = worst_kkt <= 1e-7 and gap <= 1e-4
    report(4, "subproblem KKT and scalar grid oracle", ok,
           f"max KKT = {worst_kkt:.3e} over {solves} solves, oracle gap = {gap:.3e}")


def test_criterion_5_ao_monotone_convergence():
    runs = 50
    worst_dip, converged = check_ao_monotonicity(range(runs))
    frac = converged / runs
    ok = worst_dip <= 1e-6 and frac >= 0.95
    report(5, "AO monotone convergence", ok,
           f"worst dip = {worst_dip:.3e}, converged {converged}/{runs}")


def test_criterion_6_single_user_optimality():
    worst = 0.0
    for seed in range(20):
        n_t = 1 + seed % 4
        cfg = SystemConfig(1, n_t, 20.0, 1e6, (1.0,), seed)
        est = draw_estimate(cfg, 0)
        samples = draw_sample_set(cfg, est, 1, 0)
        strategy = Strategy.DPCRS1 if seed % 2 else Strategy.MULP
        order = (0,) if strategy.uses_dpc else None
        res = optimize(
            cfg, strategy, est, samples, np.ones(1), order=order,
            ao=AoConfig(convergence_eps=1e-5, max_iterations=300),
        )
        capacity = np.log2(1.0 + cfg.transmit_power * np.linalg.norm(est.matrix) ** 2)
        worst = max(worst, abs(res.wasr - capacity))
    report(6, "single-user matched-filter optimality", worst <= 1e-3,
           f"max |rate - capacity| = {worst:.3e} over 20 seeds")


def test_criterion_7_saa_consistency():
    p_t = 100.0
    oracle = quad(lambda x: np.log2(1.0 + p_t * x) * np.exp(-x), 0.0, np.inf, limit=200)[0]
    assert oracle == pytest.approx(5.884, abs=5e-3)
    esr, se = matched_filter_esr(SystemConfig(1, 1, 20.0, 0.0, (1.0,), 7), 1000, 20)
    gap = abs(esr - oracle)
    ok = gap <= 3.0 * se
    report(7, "SAA consistency vs exponential-integral oracle", ok,
           f"estimate = {esr:.4f}, oracle = {oracle:.4f}, gap = {gap:.4f}, 3*SE = {3*se:.4f}")


def test_criterion_8_nesting_and_ordinal_claims():
    cfg = SystemConfig(2, 4, 20.0, 0.6, (1.0, 1.0), 8)
    ao = AoConfig(convergence_eps=1e-4, max_iterations=200)
    u = np.ones(2)
    n_mc = 10
    wasr_by = {s: [] for s in ALL_STRATEGIES}
    for r in range(n_mc):
        est = draw_estimate(cfg, r)
        samples = draw_sample_set(cfg, est, 100, r)
        for strategy in ALL_STRATEGIES:
            res = optimize_strategy(cfg, strategy, est, samples, u, 0.0, np.zeros(2), ao)
            wasr_by[strategy].append(res.wasr)
    dpcrs = np.array(wasr_by[Strategy.DPCRS1])
    dpc = np.array(wasr_by[Strategy.DPC])
    rs1 = np.array(wasr_by[Strategy.RS1])
    mulp = np.array(wasr_by[Strategy.MULP])
    nest_a = np.all(dpcrs >= dpc - 1e-4)
    nest_b = np.all(rs1 >= mulp - 1e-4)
    rs_beats_dpc = float(np.mean(rs1 >= dpc))
    ok = nest_a and nest_b and rs_beats_dpc >= 0.6
    report(8, "feasible-set nesting and ordinal claims", ok,
           f"DPCRS1>=DPC: {np.sum(dpcrs >= dpc - 1e-4)}/{n_mc}, "
           f"RS1>=MULP: {np.sum(rs1 >= mulp - 1e-4)}/{n_mc}, "
           f"RS1>=DPC fraction = {rs_beats_dpc:.2f}")


def test_criterion_9_esr_vs_alpha_trend():
    spec = spec_from_dict({
        "system": {"num_users": 2, "num_tx_antennas": 2, "snr_db": 20.0,
                   "csit_alpha": 0.5, "channel_variances": [1.0, 1.0], "master_seed": 9},
        "strategies": ["dpcrs1", "dpc", "rs1", "mulp"],
        "sample_count": 64,
        "num_realizations": 10,
        "alpha_grid": [0.1, 0.5, 0.9],
        "ao": {"max_iterations": 200},
    })
    records = run_esr_alpha(spec)
    detail = []
    ok = True
    for strategy in ("dpcrs1", "dpc", "rs1", "mulp"):
        per_alpha = {}
        for alpha in (0.1, 0.5, 0.9):
            w = np.zeros(spec.num_realizations)
            for rec in records:
                if rec.strategy == strategy and rec.alpha == alpha:
                    w[rec.realization] += rec.rate_total
            per_alpha[alpha] = w
        for a_lo, a_hi in ((0.1, 0.5), (0.5, 0.9)):
            diff = per_alpha[a_hi] - per_alpha[a_lo]
            se = float(np.std(diff, ddof=1) / np.sqrt(diff.size))
            step_ok = float(np.mean(diff)) >= -2.0 * se
            ok &= step_ok
            detail.append(f"{strategy} {a_lo}->{a_hi}: d={np.mean(diff):+.3f} (2SE={2*se:.3f})")
    report(9, "ESR non-decreasing in alpha (common random numbers)", ok, "; ".join(detail))


def test_criterion_10_reproducibility(tmp_path):
    config = {
        "system": {"num_users": 2, "num_tx_antennas": 2, "snr_db": 20.0,
                   "csit_alpha": 0.6, "channel_variances": [1.0, 1.0], "master_seed": 10},
        "strategies": ["dpcrs1", "mulp"],
        "sample_count": 12,
        "num_realizations": 2,
        "weight_grid": [0.5, 1.0],
        "ao": {"max_iterations": 40},
    }
    spec = spec_from_dict(config)
    outputs = []
    for threads in (1, 2, 1):
        records = run_region(spec, threads=threads)
        path = tmp_path / f"region_{len(outputs)}.csv"
        write_csv(records, path)
        outputs.append(path.read_bytes())
    alpha_cfg = dict(config)
    del alpha_cfg["weight_grid"]
    alpha_cfg["alpha_grid"] = [0.2, 0.8]
    alpha_spec = spec_from_dict(alpha_cfg)
    for threads in (1, 2):
        records = run_esr_alpha(alpha_spec, threads=threads)
        path = tmp_path / f"alpha_{threads}.csv"
        write_csv(records, path)
        outputs.append(path.read_bytes())
    region_same = outputs[0] == outputs[1] == outputs[2]
    alpha_same = outputs[3] == outputs[4]
    ok = region_same and alpha_same
    report(10, "byte-identical CSV across runs and thread counts", ok,
           f"region identical = {region_same}, esr-alpha identical = {alpha_same}")
