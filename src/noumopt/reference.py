"""Reference formulas, and the checks that compare the kernels against them.

The sampled-rate and WMMSE kernels (``strategies``, ``wmmse``) work on stacked
arrays over users and samples.  This module holds their scalar versions, one
channel draw and one stream at a time, written straight from the signal model,
plus the validation battery that ``noumopt validate`` and the acceptance suite
run.  The sweep path never imports it.

Every formula here reads the encoding order itself, not through
``strategies.interference_masks``, so that the tests check the masks against
it.

Two augmented-WMSE flavours are exposed:

* ``weighted_mse_bits``: w*eps - log2(w).  This is the quantity the
  quadratic-coefficient assembly (`xi_hat`) averages; at the closed forms it
  equals 1 - rate (bits).
* ``weighted_mse_nats``: w*eps - ln(w).  The closed forms (g*, w*) are the
  exact joint minimizer of this function, and its minimum is 1 - rate*ln2.
  The convex subproblem is built from this flavour, which makes the
  alternating optimization a true majorize-minimize scheme (the bits
  flavour is minimized at w = 1/(eps*ln2), not at w* = 1/eps, so it is not
  a valid surrogate off the update point).

Both flavours share all coefficients except the log term, so the assembled
quadratics differ only in the constant: nu (nats) against nu / ln 2 (bits).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ao import AoConfig, matched_filters, optimize
from .channel import SystemConfig, draw_estimate, draw_sample_set
from .experiments import mean_and_se
from .strategies import COMMON, PRIVATE, PrecoderSet, Strategy, sampled_average_rates, wasr
from .subproblem import build_subproblem, solve as solve_subproblem
from .wmmse import LN2, QuadCoefficients, assemble_coefficients, update_equalizers_weights

# ---------------------------------------------------------------------------
# Per-sample rates and powers


def per_sample(rows_h: np.ndarray) -> np.ndarray:
    """The (M, N_t, K) draws, [m, :, k] user k's in sample m, of a (K, N_t, M) ``_h`` layout."""
    return np.conj(rows_h.transpose(2, 1, 0))


def stream_powers(
    strategy: Strategy,
    stream: int,
    user: int,
    channel: np.ndarray,
    error: np.ndarray | None,
    precoders: PrecoderSet,
) -> tuple[float, float]:
    """(signal, interference plus noise) of one stream at one user, one channel draw.

    Common stream: every private stream interferes through the true channel.
    Private stream: the common stream is removed by SIC; for the DPC family,
    streams encoded before the user's reach it through the error channel only
    and streams encoded after it in full; linear strategies see every other
    private stream in full.
    """
    g_true = np.abs(channel.conj() @ precoders.private) ** 2
    if stream == COMMON:
        return float(np.abs(np.vdot(channel, precoders.common)) ** 2), float(np.sum(g_true) + 1.0)
    if strategy.uses_dpc:
        order = precoders.require_order()
        pos = order.index(user)
        g_err = np.abs(error.conj() @ precoders.private) ** 2
        before, after = list(order[:pos]), list(order[pos + 1:])
        rest = 1.0 + np.sum(g_err[before]) + np.sum(g_true[after])
    else:
        rest = 1.0 + np.sum(np.delete(g_true, user))
    return float(g_true[user]), float(rest)


def instantaneous_common_rate(
    strategy: Strategy,
    channel: np.ndarray,
    error: np.ndarray | None,
    precoders: PrecoderSet,
) -> float:
    """Rate of decoding the common/multicast stream at one user, one channel draw."""
    signal, rest = stream_powers(strategy, COMMON, 0, channel, error, precoders)
    return float(np.log2(1.0 + signal / rest))


def instantaneous_private_rate(
    strategy: Strategy,
    channel: np.ndarray,
    error: np.ndarray | None,
    precoders: PrecoderSet,
    user: int,
) -> float:
    """Rate of decoding user k's private stream after the common stream is removed."""
    signal, rest = stream_powers(strategy, PRIVATE, user, channel, error, precoders)
    return float(np.log2(1.0 + signal / rest))


def effective_power_T(
    strategy: Strategy,
    stream: int,
    user: int,
    channel: np.ndarray,
    error: np.ndarray | None,
    precoders: PrecoderSet,
) -> float:
    """Total received power T (signal + interference + noise) for one stream."""
    signal, rest = stream_powers(strategy, stream, user, channel, error, precoders)
    return signal + rest


# ---------------------------------------------------------------------------
# Per-sample MSE, closed forms and the rate-WMMSE identity


def mse(g: complex, T: float, channel: np.ndarray, precoder: np.ndarray) -> float:
    """|g|^2 T - 2 Re{g h^H p} + 1."""
    hp = np.vdot(channel, precoder)
    return float(abs(g) ** 2 * T - 2.0 * np.real(g * hp) + 1.0)


def mmse_equalizer(channel: np.ndarray, precoder: np.ndarray, T: float) -> complex:
    """g* = p^H h / T, the unique minimizer of the MSE."""
    return complex(np.vdot(precoder, channel) / T)


def mmse_weight(channel: np.ndarray, precoder: np.ndarray, T: float) -> float:
    """w* = T / (T - |h^H p|^2) = 1/MMSE; always >= 1."""
    sig = abs(np.vdot(channel, precoder)) ** 2
    return float(T / (T - sig))


def weighted_mse_bits(g: complex, w: float, T: float, channel: np.ndarray, precoder: np.ndarray) -> float:
    """w*eps - log2(w); equals 1 - rate at the closed-form (g*, w*)."""
    return w * mse(g, T, channel, precoder) - float(np.log2(w))


def weighted_mse_nats(g: complex, w: float, T: float, channel: np.ndarray, precoder: np.ndarray) -> float:
    """w*eps - ln(w); jointly minimized by the closed-form (g*, w*)."""
    return w * mse(g, T, channel, precoder) - float(np.log(w))


def rate_wmmse_identity_check(
    strategy: Strategy,
    channel: np.ndarray,
    error: np.ndarray | None,
    precoders: PrecoderSet,
    stream: int,
    user: int,
) -> tuple[float, float]:
    """Return (xi*, rate): xi* = w* mse(g*) - log2(w*) must equal 1 - rate."""
    signal, rest = stream_powers(strategy, stream, user, channel, error, precoders)
    T = signal + rest
    p = precoders.common if stream == COMMON else precoders.private[:, user]
    g = mmse_equalizer(channel, p, T)
    w = mmse_weight(channel, p, T)
    return weighted_mse_bits(g, w, T, channel, p), float(np.log2(1.0 + signal / rest))


# ---------------------------------------------------------------------------
# The averaged WMSE as a function of the precoders


def _omega(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: int, user: int) -> float:
    """Quadratic received-power part of the averaged WMSE for one stream."""
    psi = coeffs.psi[stream, user]

    def quad(mat: np.ndarray, p: np.ndarray) -> float:
        return float(np.real(np.vdot(p, mat @ p)))

    if stream == COMMON:
        total = quad(psi, precoders.common)
        for j in range(precoders.num_users):
            total += quad(psi, precoders.private[:, j])
        return total
    if coeffs.strategy.uses_dpc:
        order = coeffs.order if coeffs.order is not None else precoders.require_order()
        pos = order.index(user)
        total = quad(psi, precoders.private[:, user])
        for j in order[pos + 1:]:
            total += quad(psi, precoders.private[:, j])
        for i in order[:pos]:
            total += quad(coeffs.phi[user], precoders.private[:, i])
        return total
    return sum(quad(psi, precoders.private[:, j]) for j in range(precoders.num_users))


def _xi_core(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: int, user: int) -> float:
    p_i = precoders.common if stream == COMMON else precoders.private[:, user]
    return float(
        _omega(coeffs, precoders, stream, user)
        + coeffs.t[stream, user]
        - 2.0 * float(np.real(np.vdot(coeffs.f[stream, user], p_i)))
        + coeffs.w[stream, user]
    )


def xi_hat(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: int, user: int) -> float:
    """Sample-averaged WMSE (bits flavour): equals mean_m [w eps - log2 w] exactly."""
    return _xi_core(coeffs, precoders, stream, user) - float(coeffs.nu[stream, user] / LN2)


def xi_hat_nats(coeffs: QuadCoefficients, precoders: PrecoderSet, stream: int, user: int) -> float:
    """Sample-averaged WMSE (nats flavour): the surrogate the subproblem minimizes."""
    return _xi_core(coeffs, precoders, stream, user) - float(coeffs.nu[stream, user])


# ---------------------------------------------------------------------------
# The sampled rate with no optimizer in the loop


def matched_filter_esr(
    cfg: SystemConfig, sample_count: int, num_realizations: int
) -> tuple[float, float]:
    """(mean, standard error) of the unit-weight MULP sum rate of fixed precoders.

    The precoders are equal-power matched filters on the private streams, the
    common stream off.  Realization r draws its estimate and samples as a sweep
    task does, and the mean and standard error over the realizations are the
    sweep's group aggregates: the SAA estimate of a closed-form ergodic rate.
    """
    k = cfg.num_users
    values = []
    for r in range(num_realizations):
        estimate = draw_estimate(cfg, r)
        samples = draw_sample_set(cfg, estimate, sample_count, r)
        precoders = PrecoderSet.from_parts(
            np.zeros(cfg.num_tx_antennas, dtype=complex),
            matched_filters(estimate.matrix, cfg.transmit_power / k),
        )
        (rates,) = sampled_average_rates(Strategy.MULP, samples, precoders.rows[None], None)
        values.append(wasr(np.ones(k), rates[PRIVATE]))
    return mean_and_se(np.array(values))


# ---------------------------------------------------------------------------
# Validation battery


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


_CHECK_STRATEGIES = (Strategy.DPC, Strategy.DPCRS1, Strategy.RS1, Strategy.MULP)


def _random_precoders(
    rng: np.random.Generator, n_t: int, k: int, order: tuple[int, ...] | None
) -> PrecoderSet:
    """Standard complex Gaussian precoders, drawn common before private, real before imaginary."""
    return PrecoderSet.from_parts(
        rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t),
        rng.standard_normal((n_t, k)) + 1j * rng.standard_normal((n_t, k)),
        order,
    )


def random_stream_tuple(rng: np.random.Generator):
    """Random (strategy, h, e, precoders, stream, user) for per-sample checks."""
    k = int(rng.integers(1, 4))
    n_t = int(rng.integers(1, 5))
    strategy = _CHECK_STRATEGIES[int(rng.integers(4))]
    order = tuple(int(i) for i in rng.permutation(k)) if strategy.uses_dpc else None
    h = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
    e = 0.4 * (rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t))
    prec = _random_precoders(rng, n_t, k, order)
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
        assembly = _random_precoders(rng, n_t, k, order)
        target = _random_precoders(rng, n_t, k, order)
        g, w = update_equalizers_weights(strategy, samples, assembly)
        coeffs = assemble_coefficients(strategy, samples, g, w, order)
        channels, errors = per_sample(samples.realizations_h), per_sample(samples.errors_h)
        for user in range(k):
            for stream in (COMMON, PRIVATE):
                p_i = target.common if stream == COMMON else target.private[:, user]
                direct = np.mean([
                    weighted_mse_bits(
                        g[stream, user, m], w[stream, user, m],
                        effective_power_T(strategy, stream, user, channels[m, :, user],
                                          errors[m, :, user], target),
                        channels[m, :, user], p_i,
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
        prec = _random_precoders(np.random.default_rng(seed + 50), n_t, k, order)
        scale = np.sqrt(0.8 * cfg.transmit_power / prec.total_power())
        prec = PrecoderSet(prec.rows * scale, order)
        g, w = update_equalizers_weights(strategy, samples, prec)
        coeffs = assemble_coefficients(strategy, samples, g, w, order)
        spec = build_subproblem(coeffs, np.ones(k), np.zeros(k), 0.1, cfg.transmit_power)
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
