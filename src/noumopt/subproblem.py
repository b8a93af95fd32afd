"""Per-iteration convex QCQP in the precoders and the slack rate vector.

For fixed equalizers and weights the averaged WMSEs are convex quadratics in
the stacked precoders, so maximizing the weighted sum rate surrogate becomes
a QCQP: linear objective in the slack rates xhat = -chat plus convex
quadratics in the precoders, with common-stream decodability constraints per
user, per-user QoS constraints, a multicast QoS bound, a total power ball,
and sign constraints on the slacks.

Complex precoders are lifted to real variables (Re/Im stacked per precoder),
Hermitian forms become symmetric real forms.  The surrogate is built from
the nats-flavoured averaged WMSE, which the closed-form weight update
minimizes exactly; slack rates are therefore in nats internally and
converted to bit/s/Hz on the way out.

Layout of the real decision vector z:

    [Re p_c, Im p_c, Re p_1, Im p_1, ..., Re p_K, Im p_K, xhat...]

with xhat = [X_0, X_1, ..., X_K] for the strategies whose common stream
carries unicast parts, xhat = [X_0] for DPC and MULP, and no slack at all
when the common stream is pinned off (multicast threshold zero and nothing
allocated to it).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# solve_barrier is not called here (phase-1 calls it in ipm); benchmark/spans.py binds the name.
from .ipm import Quadratics, find_strictly_feasible, kkt_parts, solve_barrier, solve_primal_dual
from .strategies import PrecoderSet, interference_masks
from .wmmse import COMMON, LN2, PRIVATE, QuadCoefficients

_PSD_TOL = -1e-9
# Share of the power budget that the interior candidate's precoders stay below.
_CANDIDATE_POWER_MARGIN = 1e-3


@dataclass(frozen=True)
class SubproblemSpec:
    """Compiled QCQP plus the thresholds and sizes its solver needs."""

    unicast_thresholds: np.ndarray      # bit/s/Hz
    multicast_threshold: float          # bit/s/Hz
    power_budget: float
    order: tuple[int, ...] | None
    num_users: int
    num_tx: int
    num_slack: int
    objective: Quadratics               # one row
    constraints: Quadratics
    objective_scale: float              # largest user weight; solve divides the objective by it

    @property
    def dim(self) -> int:
        return self.slack_offset + self.num_slack

    @property
    def slack_offset(self) -> int:
        return 2 * self.num_tx * (self.num_users + 1)

    def pack(self, precoders: PrecoderSet, xhat_nats: np.ndarray) -> np.ndarray:
        rows = precoders.rows
        z = np.empty(self.dim)
        z[: self.slack_offset] = np.concatenate([rows.real, rows.imag], axis=1).ravel()
        z[self.slack_offset :] = xhat_nats
        return z

    def unpack(self, z: np.ndarray) -> tuple[PrecoderSet, np.ndarray]:
        lifted = z[: self.slack_offset].reshape(self.num_users + 1, 2, self.num_tx)
        precoders = PrecoderSet(lifted[:, 0] + 1j * lifted[:, 1], self.order)
        return precoders, z[self.slack_offset :].copy()


@dataclass(frozen=True)
class SubproblemSolution:
    status: str                         # optimal | max_iter | infeasible (the defaults)
    precoders: PrecoderSet | None = None
    xhat: np.ndarray | None = None      # nats
    objective: float = np.inf
    iterations: int = 0
    kkt: tuple[float, float, float] = (np.inf, np.inf, np.inf)  # kkt_parts, original units
    multipliers: np.ndarray | None = None
    infeasibility: float | None = None  # worst phase-1 slack when infeasible
    start: np.ndarray | None = None     # strictly feasible z the primal-dual started from

    @property
    def kkt_residual(self) -> float:
        return max(self.kkt)


def _validate_psd(mats: np.ndarray) -> None:
    """Reject a stack of coefficient matrices with an eigenvalue below _PSD_TOL."""
    hermitian = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
    if float(np.min(np.linalg.eigvalsh(hermitian))) < _PSD_TOL:
        raise ValueError("coefficient matrix is not PSD within tolerance")


def build_subproblem(
    coeffs: QuadCoefficients,
    weights: np.ndarray,
    unicast_thresholds: np.ndarray,
    multicast_threshold: float,
    power_budget: float,
    pin_common: bool = False,
) -> SubproblemSpec:
    """Compile the convex program for fixed equalizers and weights.

    Rows: common decodability and QoS per user, multicast QoS, power, one
    sign row per slack.  A decodability/QoS row is one stream's averaged
    WMSE; its A is block-diagonal over the K+1 precoder columns, with psi or
    phi placed by ``interference_masks(coeffs.strategy, coeffs.order, K)``.
    The rows read slices of the stacked coefficients: ``psi`` and ``phi`` as
    one (3K, N_t, N_t) stack, ``f`` and the constants ``t + w - nu`` per
    stream.  ``coeffs.strategy`` sets the slacks; one small matrix couples
    them to the rows.

    ``pin_common`` drops the slack vector and the common-stream constraints
    entirely; it is only valid when the multicast threshold is zero (the
    zero allocation then satisfies every dropped constraint trivially).
    """
    weights = np.asarray(weights, dtype=float)
    unicast_thresholds = np.asarray(unicast_thresholds, dtype=float)
    k_users = coeffs.num_users
    if weights.shape != (k_users,) or np.any(weights <= 0):
        raise ValueError("weights must be positive, one per user")
    if unicast_thresholds.shape != (k_users,) or np.any(unicast_thresholds < 0):
        raise ValueError("unicast thresholds must be >= 0, one per user")
    if multicast_threshold < 0 or power_budget <= 0:
        raise ValueError("thresholds must be >= 0 and power budget > 0")
    if pin_common and multicast_threshold > 0:
        raise ValueError("pin_common requires a zero multicast threshold")
    num_tx = coeffs.f.shape[-1]
    mats = np.concatenate([coeffs.psi.reshape(-1, num_tx, num_tx), coeffs.phi])
    _validate_psd(mats)

    if pin_common:
        num_slack = 0
    elif coeffs.strategy.has_common_unicast:
        num_slack = k_users + 1
    else:
        num_slack = 1
    cols = k_users + 1
    w = 2 * num_tx
    slack_off = w * cols
    dim = slack_off + num_slack
    common_rows = 0 if pin_common else k_users
    multicast_rows = 0 if pin_common else 1
    xi_rows = common_rows + k_users
    power_row = xi_rows + multicast_rows
    num_rows = power_row + 1 + num_slack

    # p^H M p = [x; y]' [[Re M, -Im M], [Im M, Re M]] [x; y] for p = x + iy.
    psi_c, psi_p, phi_p = np.split(np.block([[mats.real, -mats.imag], [mats.imag, mats.real]]), 3)
    channel, error = interference_masks(coeffs.strategy, coeffs.order, k_users)
    reach = np.eye(k_users) + channel               # own stream and streams seen in full
    blocks = np.zeros((num_rows, cols, w, w))
    blocks[:common_rows] = psi_c[:common_rows, None]
    blocks[common_rows:xi_rows, 1:] = (
        reach[:, :, None, None] * psi_p[:, None] + error[:, :, None, None] * phi_p[:, None]
    )
    blocks[power_row] = np.eye(w)
    A = np.zeros((num_rows, dim, dim))
    for j in range(cols):
        A[:, j * w : (j + 1) * w, j * w : (j + 1) * w] = blocks[:, j]

    own_cols = [0] * common_rows + list(range(1, cols))
    # Re{f^H p} = [Re f; Im f]' [x; y]
    f = np.concatenate([coeffs.f[COMMON, :common_rows], coeffs.f[PRIVATE]])
    precoder_b = np.zeros((num_rows, cols, w))
    precoder_b[np.arange(xi_rows), own_cols] = -2.0 * np.concatenate([f.real, f.imag], axis=-1)
    slack_b = np.vstack([
        -np.ones((common_rows, num_slack)),     # every slack spends the common rate
        np.eye(k_users, num_slack, 1),          # X_k credits user k (no X_k with one slack)
        np.eye(multicast_rows, num_slack),      # X_0 against the multicast threshold
        np.zeros((1, num_slack)),               # power
        np.eye(num_slack),                      # signs
    ])
    b = np.concatenate([precoder_b.reshape(num_rows, slack_off), slack_b], axis=1)

    xi_c = coeffs.t + coeffs.w - coeffs.nu
    c = np.concatenate([
        xi_c[COMMON, :common_rows] - 1.0,
        xi_c[PRIVATE] - 1.0 + unicast_thresholds * LN2,
        [multicast_threshold * LN2] * multicast_rows,
        [-power_budget],
        np.zeros(num_slack),
    ])

    # The objective: the QoS rows without their shift, weighted and summed in user order.
    qos = slice(common_rows, xi_rows)
    obj_A = sum(u * row for u, row in zip(weights, A[qos]))
    obj_b = sum(u * row for u, row in zip(weights, b[qos]))
    obj_c = sum(u * value for u, value in zip(weights, xi_c[PRIVATE]))

    return SubproblemSpec(
        unicast_thresholds=unicast_thresholds,
        multicast_threshold=multicast_threshold,
        power_budget=power_budget,
        order=coeffs.order,
        num_users=k_users,
        num_tx=num_tx,
        num_slack=num_slack,
        objective=Quadratics(obj_A[None], obj_b[None], np.array([obj_c])),
        constraints=Quadratics(A, b, c),
        objective_scale=float(weights.max()),
    )


def _interior_candidate(
    spec: SubproblemSpec,
    precoders: PrecoderSet | None,
) -> np.ndarray:
    """Heuristic strictly-feasible candidate: shrink the precoders inside the
    power ball, then place the slacks halfway into their feasible interval."""
    k = spec.num_users
    if precoders is None:
        precoders = PrecoderSet(np.zeros((k + 1, spec.num_tx), complex), spec.order)
    precoders = precoders.capped(spec.power_budget * (1.0 - _CANDIDATE_POWER_MARGIN))
    if spec.num_slack == 0:
        return spec.pack(precoders, np.zeros(0))

    # Rows 0..k-1 are the common-decodability constraints, k..2k-1 the QoS ones.
    fvals = spec.constraints.values(spec.pack(precoders, np.zeros(spec.num_slack)))  # xhat = 0
    r0 = spec.multicast_threshold * LN2
    if spec.num_slack == 1:
        # Only X_0 is free: pick the middle of its feasible interval.
        lo = float(np.max(fvals[:k]))   # X_0 >= xi_c,k(P) - 1 (shifted form)
        hi = -r0
        x0 = 0.5 * (max(lo, -1e3) + hi) if lo < hi else hi - 1e-3
        return spec.pack(precoders, np.array([min(x0, -r0 - 1e-9)]))

    # Full slack vector: required lower bounds per component, surplus split.
    xi_c = fvals[:k] + 1.0                                               # xi_c,k(P)
    xi_p = fvals[k : 2 * k] + 1.0 - spec.unicast_thresholds * LN2        # xi_p,k(P)
    bound = 1.0 - float(np.max(xi_c))  # surrogate common budget (nats)
    lower = np.empty(k + 1)
    lower[0] = r0
    lower[1:] = np.maximum(0.0, spec.unicast_thresholds * LN2 - (1.0 - xi_p))
    room = bound - float(np.sum(lower))
    if room <= 1e-9:
        # No obvious interior allocation; return a sign-feasible guess and let
        # phase-1 sort it out.
        chat = lower + 1e-6
    else:
        chat = lower + room / (2.0 * (k + 1))
    return spec.pack(precoders, -chat)


def kkt_residual(
    spec: SubproblemSpec,
    precoders: PrecoderSet,
    xhat_nats: np.ndarray,
    multipliers: np.ndarray,
) -> float:
    """Max of stationarity, primal-violation, and complementarity norms."""
    z = spec.pack(precoders, xhat_nats)
    return max(kkt_parts(spec.objective, spec.constraints, z, multipliers))


def solve(
    spec: SubproblemSpec,
    tol: float = 1e-8,
    initial: PrecoderSet | None = None,
    start: np.ndarray | None = None,
) -> SubproblemSolution:
    """Solve the QCQP to a KKT residual <= tol (or detect infeasibility).

    The status is ``optimal`` exactly when ``kkt_residual <= tol`` at the
    returned point, and ``max_iter`` otherwise (the primal-dual stalled or ran
    out of iterations).  ``initial`` is a warm-start hint; convexity makes it
    a speed knob only.

    The primal-dual starts from the first strictly feasible point of: the
    candidate built from ``initial``, its midpoint with ``start``, and
    ``start`` itself (both tried only when ``start`` has length ``spec.dim``,
    typically the previous solve's ``SubproblemSolution.start``).  Phase-1
    runs only when none is strictly feasible, so an ``infeasible`` verdict
    still comes from phase-1 alone.

    The primal-dual sees the objective divided by ``spec.objective_scale`` and
    ``tol`` divided by the same scale, so its multipliers and step count do
    not grow with the user weights.  Unless the scale is exactly 1.0 (unit
    weights), the multipliers are scaled back and the KKT parts recomputed
    in original units.
    """
    candidate = _interior_candidate(spec, initial)

    def starts():
        yield candidate
        if start is not None and len(start) == spec.dim:
            yield 0.5 * (start + candidate)
            yield start

    z0 = next((z for z in starts() if spec.constraints.values(z).max() < -1e-12), None)
    if z0 is None:
        z0, worst = find_strictly_feasible(spec.constraints, candidate, margin=1e-12, tol=tol)
        if z0 is None:
            return SubproblemSolution("infeasible", infeasibility=worst)

    scale = spec.objective_scale
    objective = Quadratics(spec.objective.A / scale, spec.objective.b / scale,
                           spec.objective.c / scale)
    res = solve_primal_dual(objective, spec.constraints, z0, tol=tol / scale)
    lam, kkt = res.lam, res.kkt
    if scale != 1.0:
        lam = scale * res.lam
        kkt = kkt_parts(spec.objective, spec.constraints, res.z, lam)
    precoders, xhat = spec.unpack(res.z)
    return SubproblemSolution(
        status="optimal" if max(kkt) <= tol else "max_iter",
        precoders=precoders, xhat=xhat, objective=float(spec.objective.values(res.z)[0]),
        iterations=res.iterations, kkt=kkt, multipliers=lam, start=z0,
    )
