"""Alternating optimization: closed-form MSE updates + convex precoder solve.

One iteration updates every per-sample equalizer and weight in closed form,
re-assembles the averaged quadratic coefficients, and solves the convex
subproblem for new precoders and slack rates.  The weighted average sum rate
(recomputed from actual sampled rates, not the surrogate) is tracked until
it stabilizes.  Because the closed forms are the exact minimizers of the
nats-flavoured surrogate, each full iteration cannot decrease the true
weighted average sum rate beyond solver tolerance.

DPC-family strategies additionally search over encoding orders by full
enumeration (factorial in the number of users, capped at ``ORDER_CAP`` users).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelEstimate, SampleSet, SystemConfig
from .strategies import (
    CommonRateAlloc,
    PrecoderSet,
    RateReport,
    Strategy,
    sampled_average_rates,
    wasr,
)
from .subproblem import SubproblemSolution, build_subproblem, solve
from .wmmse import COMMON, LN2, QuadCoefficients, assemble_coefficients, update_equalizers_weights

# Common-stream surrogate rate below which the stream is treated as off
# (only when no multicast rate is required); bounds the one-step WASR loss.
_PIN_RATE_TOL = 1e-9

# Most users whose encoding orders a DPC-family strategy enumerates (5! = 120).
ORDER_CAP = 5


@dataclass(frozen=True)
class AoConfig:
    """Alternating-optimization knobs (defaults suit desk-scale studies)."""

    convergence_eps: float = 1e-4
    max_iterations: int = 200

    def __post_init__(self):
        if self.convergence_eps <= 0:
            raise ValueError("convergence_eps must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class AoResult:
    strategy: Strategy
    precoders: PrecoderSet
    alloc: CommonRateAlloc | None    # None only when infeasible
    report: RateReport
    trace: tuple[float, ...]
    status: str                      # converged | max_iter | infeasible | rejected
    order: tuple[int, ...] | None
    wasr: float
    last_kkt_residual: float

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1

    def totals(self) -> np.ndarray:
        return self.alloc.per_user + self.report.private_per_user


def matched_filters(h: np.ndarray, power_per_user: float) -> np.ndarray:
    """Unit-norm matched filters to the estimate columns, scaled to equal power.

    A zero column falls back to a deterministic unit vector.
    """
    n_t, k_users = h.shape
    private = np.zeros((n_t, k_users), dtype=complex)
    for k in range(k_users):
        norm = np.linalg.norm(h[:, k])
        if norm > 1e-12:
            direction = h[:, k] / norm
        else:
            direction = np.zeros(n_t, dtype=complex)
            direction[k % n_t] = 1.0
        private[:, k] = direction * np.sqrt(power_per_user)
    return private


def initialize_precoders(
    estimate: ChannelEstimate,
    cfg: SystemConfig,
    order: tuple[int, ...] | None = None,
) -> PrecoderSet:
    """Matched-filter private precoders plus a dominant-direction common one.

    The power split gives the common stream the fraction
    beta = min(0.5, P_t^(-min(alpha, 1)) * K/(K+1)): worse CSIT (smaller
    alpha) pushes more power onto the common stream.  Zero estimate columns
    fall back to deterministic unit vectors so the split stays exact.
    """
    h = estimate.matrix
    n_t, k_users = h.shape
    p_t = cfg.transmit_power
    beta = min(0.5, p_t ** (-min(cfg.csit_alpha, 1.0)) * k_users / (k_users + 1))

    private = matched_filters(h, (1.0 - beta) * p_t / k_users)
    if np.linalg.norm(h) > 1e-12:
        u, _, _ = np.linalg.svd(h, full_matrices=False)
        direction = u[:, 0]
        pivot = direction[np.argmax(np.abs(direction))]
        direction = direction * (pivot.conj() / abs(pivot))
    else:
        direction = np.zeros(n_t, dtype=complex)
        direction[0] = 1.0
    common = direction * np.sqrt(beta * p_t)
    return PrecoderSet(common, private, order)


def _should_pin_common(
    strategy: Strategy,
    multicast_threshold: float,
    coeffs: QuadCoefficients,
    common_bound: float,
) -> bool:
    if multicast_threshold > 0:
        return False
    if not strategy.has_common_unicast:
        return True
    surrogate_rate = float(np.max(coeffs.nu[COMMON])) / LN2
    return surrogate_rate < _PIN_RATE_TOL and common_bound < _PIN_RATE_TOL


# Rescue starts for active multicast thresholds: increasing common-stream
# power fractions tried when the first surrogate is infeasible.
_RESCUE_COMMON_FRACTIONS = (0.5, 0.9, 1.0 - 1e-6)


def _common_boosted_initializer(
    estimate: ChannelEstimate,
    cfg: SystemConfig,
    order: tuple[int, ...] | None,
    common_fraction: float,
) -> PrecoderSet:
    """Rescue start: put ``common_fraction`` of the budget on the common stream.

    The default initializer puts little power on the common stream when CSIT
    is good; the surrogate built there cannot certify demanding multicast
    thresholds (its reach is local), so the first subproblem can look
    infeasible even though the true problem is feasible.
    """
    base = initialize_precoders(estimate, cfg, order)
    p_t = cfg.transmit_power
    common_power = np.sum(np.abs(base.common) ** 2)
    private_power = np.sum(np.abs(base.private) ** 2)
    common = base.common * np.sqrt(common_fraction * p_t / common_power)
    private = base.private * np.sqrt((1.0 - common_fraction) * p_t / private_power)
    return PrecoderSet(common, private, order)


def optimize(
    cfg: SystemConfig,
    strategy: Strategy,
    estimate: ChannelEstimate,
    samples: SampleSet,
    weights: np.ndarray,
    multicast_threshold: float = 0.0,
    unicast_thresholds: np.ndarray | None = None,
    order: tuple[int, ...] | None = None,
    ao: AoConfig = AoConfig(),
    initial: PrecoderSet | None = None,
) -> AoResult:
    """Run the alternating optimization for one strategy and encoding order.

    Returns the best iterate visited.  The stopping rule compares true
    weighted average sum rates of consecutive iterates against
    ``ao.convergence_eps``.  If the very first surrogate is infeasible under
    an active multicast threshold, the run restarts from progressively more
    common-stream-heavy initializers before reporting infeasibility.
    """
    weights = np.asarray(weights, dtype=float)
    k_users = cfg.num_users
    if unicast_thresholds is None:
        unicast_thresholds = np.zeros(k_users)
    unicast_thresholds = np.asarray(unicast_thresholds, dtype=float)
    order = None if order is None else tuple(order)

    if initial is None:
        precoders = initialize_precoders(estimate, cfg, order)
    else:
        precoders = replace(initial, order=order)

    result = _run_ao(
        cfg, strategy, samples, weights, multicast_threshold,
        unicast_thresholds, ao, precoders,
    )
    if multicast_threshold > 0:
        for fraction in _RESCUE_COMMON_FRACTIONS:
            if not (result.status == "infeasible" and result.iterations == 0):
                break
            boosted = _common_boosted_initializer(estimate, cfg, order, fraction)
            result = _run_ao(
                cfg, strategy, samples, weights, multicast_threshold,
                unicast_thresholds, ao, boosted,
            )
    return result


# Step-scaling factors tried on every accepted subproblem step; the scaled
# point is kept only when it strictly improves the true WASR and stays
# feasible, so monotonicity is preserved while the slow AO tail (power
# drifting between streams at a geometric rate) is shortcut.
_EXTRAPOLATION_FACTORS = (1.5, 2.0, 3.0, 5.0, 8.0)


def _greedy_alloc(
    strategy: Strategy,
    report: RateReport,
    weights: np.ndarray,
    multicast_threshold: float,
    unicast_thresholds: np.ndarray,
) -> CommonRateAlloc | None:
    """WASR-maximal allocation of the true common budget at fixed precoders.

    The multicast part takes exactly its threshold (the full budget for the
    strategies with no common unicast parts), QoS shortfalls claim their
    minima, and the surplus goes to the maximum-weight users (split evenly
    on ties).  Returns None when the budget cannot cover the requirements or
    a user's total rate misses its QoS threshold.
    The subproblem's own allocation is always feasible for this little LP,
    so the greedy choice never loses WASR; re-allocating against the true
    sampled bound (the surrogate bound can only lag it) is what lets the
    common stream's rate be harvested at every iterate.
    """
    bound = report.common_bound
    k = report.num_users
    if bound < multicast_threshold - 1e-12:
        return None
    rates = np.zeros(k + 1)
    if not strategy.has_common_unicast:
        rates[0] = bound
    else:
        rates[0] = multicast_threshold
        lower = np.maximum(0.0, unicast_thresholds - report.private_per_user)
        surplus = bound - rates[0] - float(np.sum(lower))
        if surplus < -1e-12:
            return None
        rates[1:] = lower
        winners = np.flatnonzero(weights >= np.max(weights) - 1e-12)
        rates[1 + winners] += max(surplus, 0.0) / winners.size
    alloc = CommonRateAlloc(rates)
    if np.any(alloc.per_user + report.private_per_user < unicast_thresholds - 1e-9):
        return None
    return alloc


def _candidate_state(
    strategy: Strategy,
    samples: SampleSet,
    precoders: PrecoderSet,
    weights: np.ndarray,
    multicast_threshold: float,
    unicast_thresholds: np.ndarray,
    p_t: float,
):
    """Evaluate a candidate iterate; None when it violates the rate constraints."""
    power = precoders.total_power()
    if power > p_t:
        scale = np.sqrt(p_t / power)
        precoders = PrecoderSet(precoders.common * scale, precoders.private * scale,
                                precoders.order)
    report = sampled_average_rates(strategy, samples, precoders)
    alloc = _greedy_alloc(strategy, report, weights, multicast_threshold, unicast_thresholds)
    if alloc is None:
        return None
    return wasr(weights, alloc.per_user + report.private_per_user), precoders, alloc, report


def _run_ao(
    cfg: SystemConfig,
    strategy: Strategy,
    samples: SampleSet,
    weights: np.ndarray,
    multicast_threshold: float,
    unicast_thresholds: np.ndarray,
    ao: AoConfig,
    precoders: PrecoderSet,
) -> AoResult:
    order = precoders.order
    report = sampled_average_rates(strategy, samples, precoders)
    alloc = _greedy_alloc(strategy, report, weights, multicast_threshold, unicast_thresholds)
    # A start that misses the rate constraints has the WASR of an infeasible
    # point, -inf; only an iterate that meets them may be returned.
    current = -np.inf if alloc is None else wasr(weights, alloc.per_user + report.private_per_user)
    trace = [current]
    start = (current, precoders, alloc, report)
    best = None if alloc is None else start
    status = "max_iter"
    last_kkt = np.inf

    for _ in range(ao.max_iterations):
        g, w = update_equalizers_weights(strategy, samples, precoders)
        coeffs = assemble_coefficients(strategy, samples, g, w, order)
        pin = _should_pin_common(strategy, multicast_threshold, coeffs, report.common_bound)
        spec = build_subproblem(
            coeffs, weights, unicast_thresholds, multicast_threshold, cfg.transmit_power,
            pin_common=pin,
        )
        sol: SubproblemSolution = solve(spec, initial=precoders)
        if sol.status == "infeasible":
            status = "infeasible"
            break
        last_kkt = sol.kkt_residual
        previous = precoders
        step = _candidate_state(
            strategy, samples, sol.precoders, weights,
            multicast_threshold, unicast_thresholds, cfg.transmit_power,
        )
        if step is None:
            # Solver tolerance left the point outside the rate constraints by
            # more than the clamps can absorb; keep the best iterate.
            status = "rejected"
            break
        for gamma in _EXTRAPOLATION_FACTORS:
            scaled = PrecoderSet(
                previous.common + gamma * (sol.precoders.common - previous.common),
                previous.private + gamma * (sol.precoders.private - previous.private),
                order,
            )
            candidate = _candidate_state(
                strategy, samples, scaled, weights,
                multicast_threshold, unicast_thresholds, cfg.transmit_power,
            )
            if candidate is not None and candidate[0] > step[0]:
                step = candidate
        current, precoders, alloc, report = step
        trace.append(current)
        if best is None or current > best[0]:
            best = (current, precoders, alloc, report)
        if abs(trace[-1] - trace[-2]) <= ao.convergence_eps:
            status = "converged"
            break

    if best is None:
        status, best = "infeasible", start
    return AoResult(
        strategy=strategy,
        precoders=best[1],
        alloc=best[2],
        report=best[3],
        trace=tuple(trace),
        status=status,
        order=order,
        wasr=best[0],
        last_kkt_residual=last_kkt,
    )


def optimize_strategy(
    cfg: SystemConfig,
    strategy: Strategy,
    estimate: ChannelEstimate,
    samples: SampleSet,
    weights: np.ndarray,
    multicast_threshold: float = 0.0,
    unicast_thresholds: np.ndarray | None = None,
    ao: AoConfig = AoConfig(),
) -> AoResult:
    """Best AO result over every DPC encoding order (one plain run otherwise).

    A feasible result beats an infeasible one; ties break toward the
    lexicographically first order (deterministic).
    """
    orders = (None,)
    if strategy.uses_dpc:
        if cfg.num_users > ORDER_CAP:
            raise ValueError(
                f"num_users={cfg.num_users} exceeds the order enumeration cap {ORDER_CAP}"
            )
        orders = itertools.permutations(range(cfg.num_users))
    best: AoResult | None = None
    for order in orders:
        result = optimize(
            cfg, strategy, estimate, samples, weights,
            multicast_threshold, unicast_thresholds, order, ao,
        )
        if best is None or (result.status != "infeasible" and (
            best.status == "infeasible" or result.wasr > best.wasr
        )):
            best = result
    return best
