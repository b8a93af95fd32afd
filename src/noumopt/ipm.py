"""Primal-dual interior-point solver for small dense convex QCQPs.

Solves  min f0(z)  s.t.  f_i(z) <= 0,  where every f is a convex quadratic
f(z) = z'Az + b'z + c with A symmetric PSD (or absent for affine functions).
Inequality-only form; all problems in this package fit it.

The main path is the standard primal-dual method: Newton steps on the
perturbed KKT residuals with a backtracking line search that keeps the
iterates strictly feasible and the residual norm decreasing.  A log-barrier
Newton method is kept as a fallback for the rare case the primal-dual line
search stalls.  Strictly feasible starting points come from a phase-1
problem (minimize the worst constraint violation).

Everything is deterministic: no randomness, fixed iteration order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

_RIDGE = 1e-12
# Centering factors: the primal-dual surrogate-gap target divisor and the
# barrier method's per-outer-step growth of t.
_PD_MU = 10.0
_BARRIER_MU = 20.0


@dataclass(frozen=True)
class QuadraticForm:
    """f(z) = z' A z + b' z + c with A symmetric (PSD for convexity)."""

    A: np.ndarray | None
    b: np.ndarray
    c: float

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def value(self, z: np.ndarray) -> float:
        v = float(self.b @ z) + self.c
        if self.A is not None:
            v += float(z @ (self.A @ z))
        return v

    def grad(self, z: np.ndarray) -> np.ndarray:
        g = self.b.copy()
        if self.A is not None:
            g += 2.0 * (self.A @ z)
        return g

    def hess(self) -> np.ndarray:
        if self.A is None:
            return np.zeros((self.dim, self.dim))
        return 2.0 * self.A


@dataclass
class IpmResult:
    z: np.ndarray
    lam: np.ndarray
    status: str                  # optimal | stalled | max_iter | early (phase-1 only)
    iterations: int
    gap: float
    gap_trace: list[float] = field(default_factory=list)


def _values(forms: Sequence[QuadraticForm], z: np.ndarray) -> np.ndarray:
    return np.array([f.value(z) for f in forms])


def _jacobian(forms: Sequence[QuadraticForm], z: np.ndarray) -> np.ndarray:
    return np.stack([f.grad(z) for f in forms])


def _solve_sym(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(H, rhs, rcond=None)[0]


def solve_primal_dual(
    objective: QuadraticForm,
    constraints: Sequence[QuadraticForm],
    z0: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> IpmResult:
    """Primal-dual interior-point iteration from a strictly feasible z0.

    Terminates when the surrogate duality gap and the dual-residual norm
    both fall below tolerance.
    """
    m = len(constraints)
    z = np.asarray(z0, dtype=float).copy()
    fvals = _values(constraints, z)
    if np.any(fvals >= 0):
        raise ValueError("primal-dual solver requires a strictly feasible start")
    lam = np.minimum(1.0 / np.maximum(-fvals, 1e-10), 1e10)

    hessians = [f.hess() for f in constraints]
    h0 = objective.hess()
    gap_trace: list[float] = []
    status = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        J = _jacobian(constraints, z)
        eta = float(-fvals @ lam)
        gap_trace.append(eta)
        t_hat = _PD_MU * m / max(eta, 1e-300)
        r_dual = objective.grad(z) + J.T @ lam
        r_cent = -lam * fvals - 1.0 / t_hat
        # Stop on the KKT contract: complementarity per element (or the
        # aggregate gap) plus dual feasibility.
        comp = float(np.max(np.abs(lam * fvals)))
        if min(eta, comp) <= tol and np.linalg.norm(r_dual, np.inf) <= tol:
            status = "optimal"
            break

        d = lam / (-fvals)
        H = h0 + J.T @ (d[:, None] * J)
        for lam_i, Hi in zip(lam, hessians):
            H = H + lam_i * Hi
        H = H + _RIDGE * np.eye(H.shape[0])
        rhs = -r_dual - J.T @ (r_cent / fvals)
        dz = _solve_sym(H, rhs)
        dlam = (r_cent - lam * (J @ dz)) / fvals

        # Largest step keeping lam > 0, then backtrack to strict feasibility
        # and residual decrease.
        s = 1.0
        neg = dlam < 0
        if np.any(neg):
            s = min(1.0, 0.99 * float(np.min(-lam[neg] / dlam[neg])))
        r_norm = np.linalg.norm(np.concatenate([r_dual, r_cent]))
        accepted = False
        for _ in range(60):
            z_new = z + s * dz
            f_new = _values(constraints, z_new)
            if np.all(f_new < 0):
                lam_new = lam + s * dlam
                rd = objective.grad(z_new) + _jacobian(constraints, z_new).T @ lam_new
                rc = -lam_new * f_new - 1.0 / t_hat
                if np.linalg.norm(np.concatenate([rd, rc])) <= (1.0 - 0.01 * s) * r_norm:
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            status = "stalled"
            break
        z, lam, fvals = z_new, lam_new, f_new
    else:
        it = max_iter

    eta = float(-fvals @ lam)
    return IpmResult(z=z, lam=lam, status=status, iterations=it, gap=eta, gap_trace=gap_trace)


def solve_barrier(
    objective: QuadraticForm,
    constraints: Sequence[QuadraticForm],
    z0: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 400,
    early_stop: Callable[[np.ndarray], bool] | None = None,
) -> IpmResult:
    """Log-barrier Newton fallback (outer loop on t, inner centering).

    More robust than the primal-dual step when iterates hug a curved
    constraint whose multiplier is still small (the barrier weights the
    constraint curvature by 1/(-f), which grows near the wall); used both as
    the stall fallback and as the phase-1 engine.
    """
    m = len(constraints)
    z = np.asarray(z0, dtype=float).copy()
    if np.any(_values(constraints, z) >= 0):
        raise ValueError("barrier solver requires a strictly feasible start")
    hessians = [f.hess() for f in constraints]
    h0 = objective.hess()
    t = 1.0
    gap_trace: list[float] = []
    total_newton = 0
    status = "optimal"
    while m / t > tol and total_newton < max_iter:
        for _ in range(80):
            if early_stop is not None and early_stop(z):
                fvals = _values(constraints, z)
                lam = 1.0 / (t * np.maximum(-fvals, 1e-300))
                return IpmResult(z=z, lam=lam, status="early", iterations=total_newton,
                                 gap=float(-fvals @ lam), gap_trace=gap_trace)
            total_newton += 1
            fvals = _values(constraints, z)
            J = _jacobian(constraints, z)
            inv = 1.0 / (-fvals)
            grad = t * objective.grad(z) + J.T @ inv
            H = t * h0 + J.T @ ((inv**2)[:, None] * J)
            for f_i, Hi in zip(fvals, hessians):
                H = H + (1.0 / -f_i) * Hi
            H = H + _RIDGE * np.eye(H.shape[0])
            dz = _solve_sym(H, -grad)
            decrement = float(-grad @ dz)
            if decrement / 2.0 <= 1e-12:
                break
            s = 1.0
            v0 = t * objective.value(z) - float(np.sum(np.log(-fvals)))
            for _ in range(60):
                z_new = z + s * dz
                f_new = _values(constraints, z_new)
                if np.all(f_new < 0):
                    v_new = t * objective.value(z_new) - float(np.sum(np.log(-f_new)))
                    if v_new <= v0 + 0.25 * s * float(grad @ dz):
                        break
                s *= 0.5
            else:
                break
            z = z_new
            if total_newton >= max_iter:
                break
        gap_trace.append(m / t)
        t *= _BARRIER_MU
    else:
        if m / t > tol:
            status = "max_iter"
    fvals = _values(constraints, z)
    lam = 1.0 / (t * np.maximum(-fvals, 1e-300))
    return IpmResult(z=z, lam=lam, status=status, iterations=total_newton,
                     gap=float(-fvals @ lam), gap_trace=gap_trace)


def find_strictly_feasible(
    constraints: Sequence[QuadraticForm],
    z0: np.ndarray,
    margin: float = 1e-9,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[np.ndarray | None, float]:
    """Phase-1: find z with every f_i(z) < 0, or report the best worst-slack.

    Returns (point, worst_value); point is None when the constraint system
    admits no strictly feasible point (worst_value > 0 at the phase-1
    optimum, a certificate-style diagnostic for QoS infeasibility).
    """
    fvals = _values(constraints, z0)
    if np.all(fvals < -margin):
        return z0.copy(), float(np.max(fvals))
    n = z0.shape[0]

    def extend(form: QuadraticForm, s_coeff: float, c_shift: float = 0.0) -> QuadraticForm:
        A = None
        if form.A is not None:
            A = np.zeros((n + 1, n + 1))
            A[:n, :n] = form.A
        b = np.concatenate([form.b, [s_coeff]])
        return QuadraticForm(A, b, form.c + c_shift)

    ext_constraints = [extend(f, -1.0) for f in constraints]
    # Keep phase-1 bounded: s >= -1.
    ext_constraints.append(QuadraticForm(None, np.concatenate([np.zeros(n), [-1.0]]), -1.0))
    objective = QuadraticForm(None, np.concatenate([np.zeros(n), [1.0]]), 0.0)
    s0 = float(np.max(fvals)) + 1.0
    z_ext = np.concatenate([z0, [s0]])

    def strictly_ok(z_cur: np.ndarray) -> bool:
        return bool(np.all(_values(constraints, z_cur[:n]) < -margin))

    res = solve_barrier(
        objective, ext_constraints, z_ext, tol=tol, max_iter=max_iter, early_stop=strictly_ok
    )
    candidate = res.z[:n]
    worst = float(np.max(_values(constraints, candidate)))
    if worst < 0:
        return candidate, worst
    return None, worst
