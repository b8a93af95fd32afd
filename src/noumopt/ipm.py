"""Primal-dual interior-point solver for small dense convex QCQPs.

Solves  min f0(z)  s.t.  f_i(z) <= 0,  where every f is a convex quadratic
f(z) = z'Az + b'z + c with A symmetric PSD.  The m constraints are one
``Quadratics`` stack of (m, n, n) matrices, (m, n) vectors and m constants
(affine rows carry A = 0); the objective is a one-row stack.  Inequality-only
form; all problems in this package fit it.

The solver is the standard primal-dual method: Newton steps on the
perturbed KKT residuals with a backtracking line search that keeps the
iterates strictly feasible and the residual norm decreasing; it stops when
every part of ``kkt_parts`` is <= tol.  Strictly feasible starting points
come from a phase-1 problem (minimize the worst constraint violation), which
a log-barrier Newton method solves until the point is strictly feasible.

Both loops evaluate each stack once per line-search trial point
(``Quadratics.evaluate``: values and Jacobian from one product A @ z) and
carry the accepted trial's values, Jacobian and residuals into the next
Newton step, so no point is evaluated twice.  A result's ``iterations``
counts the primal-dual's Newton steps; a failed line search and the final
check of the returned point are not steps.

Everything is deterministic: no randomness, fixed iteration order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

_RIDGE = 1e-12
# Centering factors: the primal-dual surrogate-gap target divisor and the
# barrier method's per-outer-step growth of t.
_PD_MU = 10.0
_BARRIER_MU = 20.0


@dataclass(frozen=True, eq=False)
class Quadratics:
    """Stacked quadratics f_i(z) = z' A_i z + b_i' z + c_i, one row per function.

    A: (m, n, n) symmetric (PSD for convexity; zero for affine rows),
    b: (m, n), c: (m,).  ``evaluate`` is the one row formula; the solvers
    call it once per trial point, and ``values`` reads it.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __len__(self) -> int:
        return self.c.shape[0]

    def evaluate(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values (m,), Jacobian (m, n)) at z, from one product A @ z."""
        az = self.A @ z
        return self.b @ z + self.c + az @ z, self.b + 2.0 * az

    def values(self, z: np.ndarray) -> np.ndarray:
        return self.evaluate(z)[0]

    def hessians(self) -> np.ndarray:
        return 2.0 * self.A


@dataclass(eq=False)
class IpmResult:
    z: np.ndarray
    lam: np.ndarray
    status: str                  # optimal | stalled | max_iter
    iterations: int              # Newton steps taken
    kkt: tuple[float, float, float]   # _kkt_parts at the returned (z, lam)
    gap_trace: list[float]


def _kkt_parts(
    r_dual: np.ndarray, fvals: np.ndarray, lam: np.ndarray
) -> tuple[float, float, float]:
    """(stationarity, primal violation, complementarity) from the dual
    residual grad f0 + J' lam and the constraint values at one point."""
    stationarity = float(np.abs(r_dual).max())
    return stationarity, float(max(0.0, fvals.max())), float(np.abs(lam * fvals).max())


def kkt_parts(
    objective: Quadratics, constraints: Quadratics, z: np.ndarray, lam: np.ndarray
) -> tuple[float, float, float]:
    """The KKT parts at (z, lam); the primal-dual stops when all are <= tol."""
    fvals, J = constraints.evaluate(z)
    return _kkt_parts(objective.evaluate(z)[1][0] + J.T @ lam, fvals, lam)


@lru_cache(maxsize=None)
def _ridge(n: int) -> np.ndarray:
    ridge = _RIDGE * np.eye(n)
    ridge.setflags(write=False)
    return ridge


def _newton_matrix(
    h0: np.ndarray, J: np.ndarray, d: np.ndarray, curvature: np.ndarray, hessians: np.ndarray
) -> np.ndarray:
    """h0 + J' diag(d) J + sum_i curvature_i H_i + ridge I."""
    m, n = J.shape
    # The (1, m) x (m, n*n) product that np.tensordot(curvature, hessians, 1)
    # forms, without its wrapper.
    curved = np.dot(curvature[None], hessians.reshape(m, n * n)).reshape(n, n)
    return h0 + J.T @ (d[:, None] * J) + curved + _ridge(n)


def _solve_sym(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(H, rhs, rcond=None)[0]


def _norm(r_dual: np.ndarray, r_cent: np.ndarray) -> float:
    """Euclidean norm of the stacked residual (what np.linalg.norm computes)."""
    r = np.concatenate([r_dual, r_cent])
    return math.sqrt(r @ r)


def solve_primal_dual(
    objective: Quadratics,
    constraints: Quadratics,
    z0: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> IpmResult:
    """Primal-dual interior-point iteration from a strictly feasible z0.

    The status is ``optimal`` exactly when every part of ``kkt_parts`` at the
    returned (z, lam) is <= tol; otherwise ``stalled`` (the line search found
    no step) or ``max_iter`` (max_iter Newton steps taken).  ``iterations``
    is the number of Newton steps taken, ``len(gap_trace) - 1``.
    """
    m = len(constraints)
    z = np.asarray(z0, dtype=float).copy()
    fvals, J = constraints.evaluate(z)
    if fvals.max() >= 0:
        raise ValueError("primal-dual solver requires a strictly feasible start")
    lam = np.minimum(1.0 / np.maximum(-fvals, 1e-10), 1e10)
    r_dual = objective.evaluate(z)[1][0] + J.T @ lam

    hessians = constraints.hessians()
    h0 = objective.hessians()[0]
    gap_trace: list[float] = []
    status = "max_iter"
    # Pass max_iter + 1 only checks the point that the last step reached.
    for it in range(max_iter + 1):
        eta = float(-fvals @ lam)
        gap_trace.append(eta)
        parts = _kkt_parts(r_dual, fvals, lam)
        if max(parts) <= tol:
            status = "optimal"
            break
        if it == max_iter:
            break
        t_hat = _PD_MU * m / max(eta, 1e-300)
        r_cent = -lam * fvals - 1.0 / t_hat

        H = _newton_matrix(h0, J, lam / (-fvals), lam, hessians)
        rhs = -r_dual - J.T @ (r_cent / fvals)
        dz = _solve_sym(H, rhs)
        dlam = (r_cent - lam * (J @ dz)) / fvals

        # Largest step keeping lam > 0, then backtrack to strict feasibility
        # and residual decrease.
        s = 1.0
        neg = dlam < 0
        if neg.any():
            s = min(1.0, 0.99 * float((-lam[neg] / dlam[neg]).min()))
        r_norm = _norm(r_dual, r_cent)
        for _ in range(60):
            z_new = z + s * dz
            f_new, J_new = constraints.evaluate(z_new)
            if f_new.max() < 0:
                lam_new = lam + s * dlam
                rd = objective.evaluate(z_new)[1][0] + J_new.T @ lam_new
                rc = -lam_new * f_new - 1.0 / t_hat
                if _norm(rd, rc) <= (1.0 - 0.01 * s) * r_norm:
                    break
            s *= 0.5
        else:
            status = "stalled"
            break
        z, lam, fvals, J, r_dual = z_new, lam_new, f_new, J_new, rd

    return IpmResult(z=z, lam=lam, status=status, iterations=len(gap_trace) - 1, kkt=parts,
                     gap_trace=gap_trace)


def solve_barrier(
    objective: Quadratics,
    constraints: Quadratics,
    z0: np.ndarray,
    early_stop: Callable[[np.ndarray], bool],
    tol: float = 1e-8,
    max_iter: int = 400,
) -> np.ndarray:
    """Log-barrier Newton method (outer loop on t, inner centering): phase-1's engine.

    Returns the first iterate at which ``early_stop`` holds, checked before
    every Newton step; otherwise the last iterate once m / t <= tol or
    max_iter Newton systems have been solved.
    """
    m = len(constraints)
    z = np.asarray(z0, dtype=float).copy()
    fvals, J = constraints.evaluate(z)
    if fvals.max() >= 0:
        raise ValueError("barrier solver requires a strictly feasible start")
    f0, g0 = objective.evaluate(z)
    log_sum = float(np.sum(np.log(-fvals)))
    hessians = constraints.hessians()
    h0 = objective.hessians()[0]
    t = 1.0
    total_newton = 0
    while m / t > tol and total_newton < max_iter:
        for _ in range(80):
            if early_stop(z):
                return z
            total_newton += 1
            inv = 1.0 / (-fvals)
            grad = t * g0[0] + J.T @ inv
            H = _newton_matrix(t * h0, J, inv**2, inv, hessians)
            dz = _solve_sym(H, -grad)
            decrement = float(-grad @ dz)
            if decrement / 2.0 <= 1e-12:
                break   # centered
            s = 1.0
            v0 = t * f0[0] - log_sum
            for _ in range(60):
                z_new = z + s * dz
                f_new, J_new = constraints.evaluate(z_new)
                if f_new.max() < 0:
                    f0_new, g0_new = objective.evaluate(z_new)
                    log_new = float(np.sum(np.log(-f_new)))
                    if t * f0_new[0] - log_new <= v0 + 0.25 * s * float(grad @ dz):
                        break
                s *= 0.5
            else:
                break
            z, fvals, J, f0, g0, log_sum = z_new, f_new, J_new, f0_new, g0_new, log_new
            if total_newton >= max_iter:
                break
        t *= _BARRIER_MU
    return z


def find_strictly_feasible(
    constraints: Quadratics,
    z0: np.ndarray,
    margin: float = 1e-9,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[np.ndarray | None, float]:
    """Phase-1: find z with every f_i(z) < 0, or report the best worst-slack.

    Minimizes s over (z, s) subject to f_i(z) <= s and s >= -1.  Returns
    (point, worst_value); point is None when the constraint system admits no
    strictly feasible point (worst_value > 0 at the phase-1 optimum, a
    certificate-style diagnostic for QoS infeasibility).
    """
    fvals = constraints.values(z0)
    if fvals.max() < -margin:
        return z0.copy(), float(np.max(fvals))
    m, n = len(constraints), z0.shape[0]
    # One zero row/column for s, plus the bounding row -s - 1 <= 0.
    A = np.zeros((m + 1, n + 1, n + 1))
    A[:m, :n, :n] = constraints.A
    b = np.zeros((m + 1, n + 1))
    b[:m, :n] = constraints.b
    b[:, n] = -1.0
    extended = Quadratics(A, b, np.append(constraints.c, -1.0))
    # The objective is s itself: b = e_n, the last unit vector.
    objective = Quadratics(np.zeros((1, n + 1, n + 1)), np.eye(1, n + 1, n), np.zeros(1))
    z_ext = np.append(z0, float(np.max(fvals)) + 1.0)

    def strictly_ok(z_cur: np.ndarray) -> bool:
        return bool(constraints.values(z_cur[:n]).max() < -margin)

    candidate = solve_barrier(objective, extended, z_ext, strictly_ok, tol=tol,
                              max_iter=max_iter)[:n]
    worst = float(np.max(constraints.values(candidate)))
    if worst < 0:
        return candidate, worst
    return None, worst
