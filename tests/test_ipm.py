import numpy as np
import pytest

from noumopt.ipm import (
    Quadratics,
    _newton_matrix,
    find_strictly_feasible,
    kkt_parts,
    solve_barrier,
    solve_primal_dual,
)


def stack(*rows):
    """Quadratics from (A, b, c) rows; A = None is an affine row."""
    n = len(rows[0][1])
    return Quadratics(
        np.stack([np.zeros((n, n)) if A is None else A for A, _, _ in rows]),
        np.stack([np.asarray(b, dtype=float) for _, b, _ in rows]),
        np.array([c for _, _, c in rows], dtype=float),
    )


def box_qp():
    # min (z0 - 3)^2 + (z1 + 1)^2  s.t.  |z_i| <= 1  -> optimum at (1, -1).
    objective = stack((np.eye(2), [-6.0, 2.0], 10.0))
    rows = []
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        rows.append((None, e.copy(), -1.0))
        rows.append((None, -e, -1.0))
    return objective, stack(*rows)


class Counting(Quadratics):
    """A copy of a stack that records every point it is evaluated at, and
    every separate ``values`` read."""

    def __init__(self, q):
        super().__init__(q.A, q.b, q.c)
        object.__setattr__(self, "points", [])
        object.__setattr__(self, "value_reads", [])

    def evaluate(self, z):
        self.points.append(np.array(z))
        return super().evaluate(z)

    def values(self, z):
        self.value_reads.append(np.array(z))
        return super().values(z)


def ball_problem():
    # min ||z - c||^2 s.t. ||z||^2 <= 1 with ||c|| = 2.5.
    c = np.array([1.0, -2.0, 0.5, 1.0])
    c *= 2.5 / np.linalg.norm(c)
    return stack((np.eye(4), -2 * c, float(c @ c))), stack((np.eye(4), np.zeros(4), -1.0))


class TestQuadratics:
    def test_rows_equal_per_row_formulas(self):
        # Every row's value and gradient equal the row on its own, affine
        # (A = 0) rows included, to rounding: rtol 1e-12 plus an absolute
        # floor of 1e-12 times the row's sum of absolute terms.
        rng = np.random.default_rng(0)
        for _ in range(300):
            m, n = int(rng.integers(1, 14)), int(rng.integers(1, 40))
            A = rng.standard_normal((m, n, n))
            A = A + A.transpose(0, 2, 1)
            A[rng.random(m) < 0.4] = 0.0
            b = rng.standard_normal((m, n))
            c = rng.standard_normal(m)
            z = rng.standard_normal(n)
            q = Quadratics(A, b, c)
            values = np.array([float(b[i] @ z) + c[i] + float(z @ (A[i] @ z)) for i in range(m)])
            gradients = np.stack([b[i] + 2.0 * (A[i] @ z) for i in range(m)])
            az = np.abs(z)
            value_scale = np.abs(b) @ az + np.abs(c) + (np.abs(A) @ az) @ az
            gradient_scale = np.abs(b) + 2.0 * (np.abs(A) @ az)
            got_values, got_jacobian = q.evaluate(z)
            assert len(q) == m
            assert np.allclose(got_values, values, rtol=1e-12, atol=1e-12 * value_scale)
            assert np.allclose(got_jacobian, gradients, rtol=1e-12, atol=1e-12 * gradient_scale)
            assert np.array_equal(q.values(z), got_values)
            assert np.array_equal(q.hessians(), 2.0 * A)
            affine = np.flatnonzero(~A.any(axis=(1, 2)))
            affine_values = [float(b[i] @ z) + c[i] for i in affine]
            assert np.allclose(got_values[affine], affine_values, rtol=1e-12,
                               atol=1e-12 * value_scale[affine])

    def test_newton_matrix_equals_row_loop(self):
        # The stacked contraction against the sum of the rows one at a time,
        # to rounding (the summation order differs).
        rng = np.random.default_rng(2)
        for _ in range(100):
            m, n = int(rng.integers(1, 14)), int(rng.integers(1, 40))
            h0, hessians = rng.standard_normal((n, n)), rng.standard_normal((m, n, n))
            J, d, curvature = rng.standard_normal((m, n)), rng.random(m), rng.random(m)
            expected = h0 + J.T @ (d[:, None] * J) + 1e-12 * np.eye(n)
            scale = np.abs(h0) + np.abs(J).T @ (d[:, None] * np.abs(J))
            for c_i, H_i in zip(curvature, hessians):
                expected = expected + c_i * H_i
                scale = scale + c_i * np.abs(H_i)
            got = _newton_matrix(h0, J, d, curvature, hessians)
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)


class TestPrimalDual:
    def test_box_qp_optimum(self):
        objective, constraints = box_qp()
        res = solve_primal_dual(objective, constraints, np.zeros(2), tol=1e-10)
        assert res.status == "optimal"
        # z1's bound is weakly active (zero multiplier), so pointwise accuracy
        # is O(sqrt(tol)) there; the objective value is the sharp check.
        assert res.z == pytest.approx([1.0, -1.0], abs=1e-4)
        assert objective.values(res.z)[0] == pytest.approx(4.0, abs=1e-8)

    def test_requires_strict_feasibility(self):
        objective, constraints = box_qp()
        with pytest.raises(ValueError):
            solve_primal_dual(objective, constraints, np.array([1.0, 0.0]))

    def test_gap_trace_decreases(self):
        objective, constraints = box_qp()
        res = solve_primal_dual(objective, constraints, np.zeros(2), tol=1e-10)
        trace = np.array(res.gap_trace)
        assert np.all(np.diff(trace) <= 1e-12 + 1e-9 * trace[:-1])

    def test_optimal_exactly_when_kkt_parts_within_tol(self):
        # The status is the shared KKT rule at the returned (z, lam), also at
        # a max_iter cap that the last step brings inside the tolerance.
        rng = np.random.default_rng(1)
        statuses = set()
        for trial in range(40):
            n = int(rng.integers(2, 6))
            c = rng.standard_normal(n)
            c *= 2.5 / np.linalg.norm(c)
            objective = stack((np.eye(n), -2 * c, float(c @ c)))
            halfspace = (None, rng.standard_normal(n), -1.0)
            constraints = stack((np.eye(n), np.zeros(n), -1.0), halfspace)
            tol = 10.0 ** -rng.integers(4, 11)
            res = solve_primal_dual(objective, constraints, np.zeros(n), tol=tol,
                                    max_iter=1 + trial % 20)
            statuses.add(res.status)
            within = max(kkt_parts(objective, constraints, res.z, res.lam)) <= tol
            assert (res.status == "optimal") == within
        assert statuses == {"optimal", "max_iter"}

    def test_iterations_count_newton_steps(self):
        # min (z - 0.5)^2 s.t. -1 <= z <= 1 from z0 = 0 takes 9 steps to the
        # optimum: the same run at every cap from 9 up reports 9 steps.
        objective = stack((np.eye(1), [-1.0], 0.25))
        constraints = stack((None, [1.0], -1.0), (None, [-1.0], -1.0))
        runs = [solve_primal_dual(objective, constraints, np.zeros(1), max_iter=cap)
                for cap in (9, 10, 11, 200)]
        for res in runs:
            assert res.status == "optimal"
            assert np.array_equal(res.z, runs[0].z)
            assert res.gap_trace == runs[0].gap_trace
            assert res.iterations == len(res.gap_trace) - 1 == 9

    def test_ball_constrained_least_squares(self):
        # min ||z - c||^2 s.t. ||z||^2 <= 1 with ||c|| > 1 -> z* = c/||c||.
        rng = np.random.default_rng(0)
        for _ in range(10):
            c = rng.standard_normal(4)
            c *= 2.5 / np.linalg.norm(c)
            objective = stack((np.eye(4), -2 * c, float(c @ c)))
            ball = stack((np.eye(4), np.zeros(4), -1.0))
            res = solve_primal_dual(objective, ball, np.zeros(4), tol=1e-10)
            assert res.status == "optimal"
            assert res.z == pytest.approx(c / np.linalg.norm(c), abs=1e-6)


def never(z):
    return False


class TestBarrier:
    def test_agrees_with_primal_dual(self):
        objective, constraints = box_qp()
        pd = solve_primal_dual(objective, constraints, np.zeros(2), tol=1e-10)
        z = solve_barrier(objective, constraints, np.zeros(2), never, tol=1e-10)
        assert objective.values(z)[0] == pytest.approx(objective.values(pd.z)[0], abs=1e-6)

    def test_broken_off_centering_is_not_optimal(self):
        # min z s.t. z^2 - 1 <= 0 (optimum -1), with values that read infeasible
        # everywhere but the start, so every centering line search fails.
        class OnlyStartFeasible(Quadratics):
            def evaluate(self, z):
                exact, jacobian = super().evaluate(z)
                return (exact if np.all(z == 0.0) else np.ones_like(exact)), jacobian

        objective = stack((None, [1.0], 0.0))
        constraints = OnlyStartFeasible(np.ones((1, 1, 1)), np.zeros((1, 1)), np.array([-1.0]))
        z = solve_barrier(objective, constraints, np.zeros(1), never, tol=1e-9)
        assert z == pytest.approx([0.0])
        pd = solve_primal_dual(objective, constraints, np.zeros(1), tol=1e-9)
        assert pd.status == "stalled"


class TestWorkPerStep:
    # Each stack is evaluated once per trial point and never re-read: the
    # constraints at the start and at every line-search trial, the objective
    # at the start and at every strictly feasible trial.  The barrier runs
    # with an early stop that never fires, so it centers to tol.
    @pytest.mark.parametrize("problem", [box_qp, ball_problem])
    @pytest.mark.parametrize("solver", [solve_primal_dual, solve_barrier])
    def test_one_evaluation_per_trial_point(self, problem, solver):
        plain_objective, plain_constraints = problem()
        objective, constraints = Counting(plain_objective), Counting(plain_constraints)
        z0 = np.zeros(constraints.b.shape[1])
        if solver is solve_barrier:
            solve_barrier(objective, constraints, z0, never, tol=1e-10)
        else:
            res = solve_primal_dual(objective, constraints, z0, tol=1e-10)
            assert res.status == "optimal"
            assert len(constraints.points) >= 1 + res.iterations
        assert objective.value_reads == [] and constraints.value_reads == []
        trials = constraints.points
        assert np.array_equal(trials[0], z0)
        assert len({p.tobytes() for p in trials}) == len(trials)
        feasible = [p for p in trials if np.all(plain_constraints.values(p) < 0)]
        assert len(objective.points) == len(feasible)
        assert all(np.array_equal(p, q) for p, q in zip(objective.points, feasible))


class TestPhase1:
    def test_finds_interior_point(self):
        # Feasible slab 0.5 <= z0 <= 0.6 from a far-away start.
        constraints = stack(
            (None, [1.0, 0.0], -0.6),
            (None, [-1.0, 0.0], 0.5),
            (np.eye(2), np.zeros(2), -4.0),
        )
        z, worst = find_strictly_feasible(constraints, np.array([5.0, 5.0]))
        assert z is not None
        assert worst < 0
        assert 0.5 < z[0] < 0.6

    def test_short_circuits_when_already_feasible(self):
        constraints = stack((np.eye(2), np.zeros(2), -1.0))
        z0 = np.array([0.1, 0.1])
        z, worst = find_strictly_feasible(constraints, z0)
        assert np.array_equal(z, z0)

    def test_detects_infeasibility(self):
        # z0 <= -1 and z0 >= 1 cannot hold together.
        constraints = stack(
            (None, [1.0], 1.0),
            (None, [-1.0], 1.0),
        )
        z, worst = find_strictly_feasible(constraints, np.array([0.0]))
        assert z is None
        assert worst > 0.5  # best achievable max-violation is 1
