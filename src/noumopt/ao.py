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
    COMMON,
    PRIVATE,
    CommonRateAlloc,
    PrecoderSet,
    Strategy,
    capped_rows,
    sampled_average_rates,
    wasr,
)
from .subproblem import SubproblemSolution, build_subproblem, solve
from .wmmse import LN2, QuadCoefficients, assemble_coefficients, update_equalizers_weights

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


@dataclass(frozen=True, eq=False)
class AoResult:
    strategy: Strategy
    precoders: PrecoderSet
    alloc: CommonRateAlloc | None    # None only when infeasible
    rates: np.ndarray                # (2, K) sampled average rates, [stream, user]
    trace: tuple[float, ...]
    status: str                      # converged | max_iter | infeasible | rejected
    wasr: float
    last_kkt_residual: float

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1

    @property
    def order(self) -> tuple[int, ...] | None:
        return self.precoders.order

    @property
    def common_bound(self) -> float:
        return float(np.min(self.rates[COMMON]))

    def totals(self) -> np.ndarray:
        """Per-user unicast totals; NaN for each user when infeasible (no allocation)."""
        if self.alloc is None:
            return np.full(self.rates.shape[1], np.nan)
        return self.alloc.per_user + self.rates[PRIVATE]


def matched_filters(h: np.ndarray, power_per_user: float) -> np.ndarray:
    """Unit-norm matched filters to the estimate columns, scaled to equal power.

    A zero column k falls back to the unit vector e_(k mod N_t).
    """
    n_t, k_users = h.shape
    private = np.eye(n_t, dtype=complex)[:, np.arange(k_users) % n_t]   # the fallbacks
    for k in range(k_users):
        norm = np.linalg.norm(h[:, k])
        if norm > 1e-12:
            private[:, k] = h[:, k] / norm
    return private * np.sqrt(power_per_user)


def initialize_precoders(
    estimate: ChannelEstimate,
    cfg: SystemConfig,
    order: tuple[int, ...] | None = None,
    common_fraction: float | None = None,
) -> PrecoderSet:
    """Matched-filter private precoders plus a dominant-direction common one.

    The power split gives the common stream the fraction
    beta = min(0.5, P_t^(-min(alpha, 1)) * K/(K+1)): worse CSIT (smaller
    alpha) pushes more power onto the common stream.  A given
    ``common_fraction`` replaces beta (the rescue starts).  Zero estimate
    columns fall back to deterministic unit vectors so the split stays exact.
    """
    h = estimate.matrix
    n_t, k_users = h.shape
    p_t = cfg.transmit_power
    beta = common_fraction
    if beta is None:
        beta = min(0.5, p_t ** (-min(cfg.csit_alpha, 1.0)) * k_users / (k_users + 1))

    private = matched_filters(h, (1.0 - beta) * p_t / k_users)
    direction = np.eye(n_t, dtype=complex)[0]          # the zero estimate's fallback
    if np.linalg.norm(h) > 1e-12:
        u, _, _ = np.linalg.svd(h, full_matrices=False)
        direction = u[:, 0]
        pivot = direction[np.argmax(np.abs(direction))]
        direction = direction * (pivot.conj() / abs(pivot))
    common = direction * np.sqrt(beta * p_t)
    return PrecoderSet.from_parts(common, private, order)


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
# power fractions tried when the first surrogate is infeasible (a surrogate
# built at a weak common stream cannot certify a demanding threshold).
_RESCUE_COMMON_FRACTIONS = (0.5, 0.9, 1.0 - 1e-6)


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
    ``ao.convergence_eps``.  The run starts from ``initial`` (default: the
    default split of ``initialize_precoders``).  If its very first surrogate
    is infeasible under an active multicast threshold, it restarts from each
    ``_RESCUE_COMMON_FRACTIONS`` split in turn before reporting infeasibility.
    """
    weights = np.asarray(weights, dtype=float)
    k_users = cfg.num_users
    if unicast_thresholds is None:
        unicast_thresholds = np.zeros(k_users)
    unicast_thresholds = np.asarray(unicast_thresholds, dtype=float)
    order = None if order is None else tuple(order)

    fractions = (None,) + (_RESCUE_COMMON_FRACTIONS if multicast_threshold > 0 else ())
    for fraction in fractions:
        if fraction is None and initial is not None:
            precoders = replace(initial, order=order)
        else:
            precoders = initialize_precoders(estimate, cfg, order, fraction)
        result = _run_ao(
            cfg, strategy, samples, weights, multicast_threshold,
            unicast_thresholds, ao, precoders,
        )
        if not (result.status == "infeasible" and result.iterations == 0):
            break
    return result


# Step-scaling factors tried on every accepted subproblem step; the scaled
# point is kept only when it strictly improves the true WASR and stays
# feasible, so monotonicity is preserved while the slow AO tail (power
# drifting between streams at a geometric rate) is shortcut.
_EXTRAPOLATION_FACTORS = (1.5, 2.0, 3.0, 5.0, 8.0)


def _greedy_alloc(
    strategy: Strategy,
    rates: np.ndarray,
    weights: np.ndarray,
    multicast_threshold: float,
    unicast_thresholds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """WASR-maximal allocation of the true common budget at fixed precoders, per candidate.

    ``rates`` is the (B, 2, K) ``sampled_average_rates`` of B candidates.
    The multicast part takes exactly its threshold (the full budget for the
    strategies with no common unicast parts), QoS shortfalls claim their
    minima, and the surplus goes to the maximum-weight users (split evenly
    on ties).  Returns the (B, K+1) allocations [C_0, C_1, ..., C_K], one
    row per candidate with the same arithmetic as alone, and a (B,) mask that
    is False where the budget cannot cover the requirements or a user's
    total rate misses its QoS threshold.  The subproblem's own allocation is
    always feasible for this little LP, so the greedy choice never loses
    WASR; re-allocating against the true sampled bound (the surrogate bound
    can only lag it) is what lets the common stream's rate be harvested at
    every iterate.
    """
    private = rates[:, PRIVATE]                                 # (B, K)
    bound = rates[:, COMMON].min(axis=-1)
    feasible = bound >= multicast_threshold - 1e-12
    alloc = np.zeros((rates.shape[0], private.shape[1] + 1))
    if not strategy.has_common_unicast:
        alloc[:, 0] = bound
    else:
        alloc[:, 0] = multicast_threshold
        lower = np.maximum(0.0, unicast_thresholds - private)
        surplus = bound - alloc[:, 0] - lower.sum(axis=-1)
        feasible &= surplus >= -1e-12
        alloc[:, 1:] = lower
        winners = np.flatnonzero(weights >= np.max(weights) - 1e-12)
        alloc[:, 1 + winners] += np.maximum(surplus, 0.0)[:, None] / winners.size
    feasible &= ~np.any(alloc[:, 1:] + private < unicast_thresholds - 1e-9, axis=-1)
    return alloc, feasible


def _score(
    strategy: Strategy, samples: SampleSet, rows: np.ndarray, order: tuple[int, ...] | None,
    weights: np.ndarray, multicast_threshold: float, unicast_thresholds: np.ndarray,
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """True WASR of each of the (B, K+1, N_t) candidates (-inf where it misses the
    rate constraints), with the (B, K+1) ``_greedy_alloc`` allocations and the
    (B, 2, K) rates of one batched rating."""
    rates = sampled_average_rates(strategy, samples, rows, order)
    alloc, feasible = _greedy_alloc(
        strategy, rates, weights, multicast_threshold, unicast_thresholds
    )
    values = [
        wasr(weights, alloc[b, 1:] + rates[b, PRIVATE]) if feasible[b] else -np.inf
        for b in range(rates.shape[0])
    ]
    return values, alloc, rates


def _candidate_state(
    strategy: Strategy,
    samples: SampleSet,
    previous: PrecoderSet,
    step: PrecoderSet,
    weights: np.ndarray,
    multicast_threshold: float,
    unicast_thresholds: np.ndarray,
    p_t: float,
):
    """Score a subproblem step and its extrapolations from ``previous`` as one batch.

    The candidates are the step itself and ``previous + gamma (step -
    previous)`` for each ``_EXTRAPOLATION_FACTORS`` gamma, one (6, K+1, N_t)
    stack, each scaled onto the power budget when over it.  Returns (wasr,
    precoders, alloc, rates) of the first strict WASR maximum among those
    that meet the rate constraints, or None when the step itself misses them.
    """
    gammas = np.reshape(_EXTRAPOLATION_FACTORS, (-1, 1, 1))
    probes = previous.rows + gammas * (step.rows - previous.rows)
    rows = capped_rows(np.concatenate([step.rows[None], probes]), p_t)
    values, alloc, rates = _score(
        strategy, samples, rows, step.order, weights, multicast_threshold, unicast_thresholds
    )
    if values[0] == -np.inf:
        return None
    best = max(range(len(values)), key=values.__getitem__)   # max keeps the first of equals
    return (values[best], PrecoderSet(rows[best], step.order), CommonRateAlloc(alloc[best]),
            rates[best])


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
    # A start that misses the rate constraints has the WASR of an infeasible
    # point, -inf; only an iterate that meets them may be returned.
    (current,), allocs, (rates,) = _score(strategy, samples, precoders.rows[None], order,
                                          weights, multicast_threshold, unicast_thresholds)
    alloc = None if current == -np.inf else CommonRateAlloc(allocs[0])
    trace = [current]
    start = (current, precoders, alloc, rates)
    best = None if alloc is None else start
    status = "max_iter"
    last_kkt = np.inf
    hint = None     # the last feasible solve's strictly feasible start

    for _ in range(ao.max_iterations):
        g, w = update_equalizers_weights(strategy, samples, precoders)
        coeffs = assemble_coefficients(strategy, samples, g, w, order)
        pin = _should_pin_common(strategy, multicast_threshold, coeffs, np.min(rates[COMMON]))
        spec = build_subproblem(
            coeffs, weights, unicast_thresholds, multicast_threshold, cfg.transmit_power,
            pin_common=pin,
        )
        sol: SubproblemSolution = solve(spec, initial=precoders, start=hint)
        if sol.status == "infeasible":
            status = "infeasible"
            break
        hint = sol.start
        last_kkt = sol.kkt_residual
        step = _candidate_state(
            strategy, samples, precoders, sol.precoders, weights,
            multicast_threshold, unicast_thresholds, cfg.transmit_power,
        )
        if step is None:
            # Solver tolerance left the point outside the rate constraints by
            # more than the clamps can absorb; keep the best iterate.
            status = "rejected"
            break
        current, precoders, alloc, rates = step
        trace.append(current)
        if best is None or current > best[0]:
            best = step
        if abs(trace[-1] - trace[-2]) <= ao.convergence_eps:
            status = "converged"
            break

    if best is None:
        status, best = "infeasible", start
    value, precoders, alloc, rates = best
    return AoResult(strategy, precoders, alloc, rates, tuple(trace), status,
                    wasr=value, last_kkt_residual=last_kkt)


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
