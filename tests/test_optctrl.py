"""Admissible set, cost functional, and projected-gradient optimizer."""

import dataclasses
import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from sobfrac import cli, mild_solver, optctrl
from sobfrac.errors import (DomainError, NonConvergenceError, OptimizationError,
                            RejectedInstanceError, SobfracError)
from sobfrac.fracops import FracOrder, TimeGrid
from sobfrac.mild_solver import (MAX_ITER, Nonlinearity, ProblemSpec, Trajectory,
                                 _adjoint, _SweepWorkspace, _workspace, eval_f, picard_solve)
from sobfrac.optctrl import (ControlBundle, CostSpec, _adjoint_gradient, _gradient_rows,
                             _project, admissibility_value, cost_J, hypothesis_check,
                             optimize_controls, random_admissible_bundle, zero_bundle)
from sobfrac.solution_ops import SolutionOperatorCache
from sobfrac.spectral import collocation_maps, norm_q, q_weights


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(1.0, 64)


def reference_problem(n=8, m=64, controls=2, nonlocal_terms=((0.3, 0.5),), **kw):
    u0 = np.array([0.5, 0.2] + [0.0] * (n - 2))
    v0 = np.eye(n)[0]
    return ProblemSpec(FracOrder(0.8, q=0.25, p=2.0), 1.0, n, m, u0, v0,
                       nonlocal_terms=nonlocal_terms, control_count=controls, **kw)


def fd_gradient(problem, cost, x, cache, fd_step=1e-4, solve_tol=1e-12):
    """Central finite-difference gradient of x -> J(u*(x), x): the slow
    reference the adjoint gradient replaced (two solves per coefficient)."""
    grid = problem.grid

    def objective(arr):
        bundle = ControlBundle(arr, grid)
        traj, _ = picard_solve(problem, cache=cache, controls=bundle, tol=solve_tol)
        return cost_J(traj, bundle, cost)

    grad = np.empty_like(x)
    work = x.copy()
    for i in range(x.size):
        work.flat[i] = x.flat[i] + fd_step
        jp = objective(work)
        work.flat[i] = x.flat[i] - fd_step
        jm = objective(work)
        work.flat[i] = x.flat[i]
        grad.flat[i] = (jp - jm) / (2.0 * fd_step)
    return grad


def admissibility_oracle(bundle):
    """The per-control norm loop admissibility_value replaced."""
    total = 0.0
    for c in bundle.cells:
        total += float(np.sum(np.linalg.norm(c, axis=1)) * bundle.grid.dt)
    return total


def cost_oracle(traj, controls, spec):
    """cost_J as it was: a cumulative sum per control, then np.trapezoid."""
    if controls.grid != traj.grid:
        raise DomainError("cost requires trajectory and controls on one grid")
    return cost_oracle_arrays(traj.coeffs, controls.cells, traj.grid.dt, spec)


def cost_oracle_arrays(u, cells, dt, spec):
    """cost_oracle on the arrays optctrl._cost takes."""
    state = np.sum(u ** 2, axis=1)
    inner = np.zeros(len(u))
    for c in cells:
        inner[1:] += np.cumsum(np.sum(c ** 2, axis=1)) * dt
    integrand = spec.state_weight * state + spec.control_weight * inner
    return float(np.trapezoid(integrand, dx=dt))


def hypothesis_check_oracle(problem, trials=50, seed=0):
    """The sampled hypothesis check that the closed forms replaced: one
    eval_f call per seeded field, and one more for the previous field of
    each Lipschitz quotient.  Its quotients are lower estimates of the
    suprema that the certified constants bound."""
    o = problem.order
    aq = o.alpha * o.q
    paq = o.p * o.alpha * (1.0 - o.q)
    report = {
        "alpha_q": {"value": aq, "passed": aq < 1.0},
        "p_alpha_one_minus_q": {"value": paq, "passed": paq > 1.0},
    }
    rng = np.random.default_rng(seed)
    n = problem.mode_count
    growth = 0.0
    lipschitz = 0.0
    if problem.nonlinearity.gain != 0.0:
        prev = None
        for _ in range(trials):
            u = rng.standard_normal(n)
            fu = eval_f(problem, 0.0, u)
            growth = max(growth, np.linalg.norm(fu) / (1.0 + norm_q(u, o.q)))
            if prev is not None:
                fv = eval_f(problem, 0.0, prev)
                du = norm_q(u - prev, o.q)
                if du > 0:
                    lipschitz = max(lipschitz, np.linalg.norm(fu - fv) / du)
            prev = u
    report["nonlinearity"] = {
        "declared_a_f": problem.nonlinearity.a_f,
        "measured_growth": growth,
        "measured_lipschitz": lipschitz,
    }
    k1 = float(sum(c for c, _ in problem.nonlocal_terms))
    sup_norm = 0.0
    for _ in range(trials):
        u = rng.standard_normal(n)
        sup_norm = max(sup_norm, norm_q(u, o.q))
    report["nonlocal"] = {
        "k1": k1,
        "k2": k1 * sup_norm,
        "term_count": len(problem.nonlocal_terms),
    }
    report["cost_structure"] = {"psi": 0.0, "d": 0.0, "form": "quadratic"}
    report["passed"] = report["alpha_q"]["passed"] and (
        problem.control_count == 0 or report["p_alpha_one_minus_q"]["passed"])
    return report


class TestCost:
    def test_all_zero(self, grid):
        traj = Trajectory(grid, np.zeros((65, 8)))
        bundle = zero_bundle(grid, 1, 4)
        assert cost_J(traj, bundle, CostSpec()) == 0.0

    def test_unit_constant_control(self, grid):
        # zero state, one control pinned to the first basis mode on [0, 1]:
        # J = int_0^1 t dt = 1/2
        traj = Trajectory(grid, np.zeros((65, 8)))
        x = np.zeros((1, 64, 4))
        x[0, :, 0] = 1.0
        got = cost_J(traj, ControlBundle(x, grid), CostSpec())
        assert abs(got - 0.5) <= 1e-6

    def test_nonnegative_on_random_inputs(self, grid):
        rng = np.random.default_rng(0)
        for _ in range(100):
            traj = Trajectory(grid, rng.standard_normal((65, 8)))
            bundle = ControlBundle(rng.standard_normal((2, 64, 4)), grid)
            assert cost_J(traj, bundle, CostSpec()) >= 0.0

    def test_quadratic_scaling(self, grid):
        rng = np.random.default_rng(1)
        traj = Trajectory(grid, rng.standard_normal((65, 8)))
        bundle = ControlBundle(rng.standard_normal((1, 64, 4)), grid)
        j1 = cost_J(traj, bundle, CostSpec())
        j4 = cost_J(Trajectory(grid, 2.0 * traj.coeffs), bundle.scaled(2.0),
                    CostSpec())
        assert abs(j4 - 4.0 * j1) <= 1e-10 * max(1.0, j4)

    def test_grid_mismatch(self, grid):
        traj = Trajectory(TimeGrid(1.0, 32), np.zeros((33, 8)))
        bundle = zero_bundle(grid, 1, 4)
        with pytest.raises(DomainError):
            cost_J(traj, bundle, CostSpec())

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            CostSpec(0.0, 0.0)
        with pytest.raises(DomainError):
            CostSpec(-1.0, 1.0)

    def test_weights_must_be_finite(self):
        # refused when built, not blamed on the trajectory at the first adjoint
        for weights in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(DomainError, match="^cost weights must be finite$"):
                CostSpec(*weights)


class TestAdmissibility:
    def test_admissible_returned_unchanged(self, grid):
        x = np.zeros((1, 64, 4))
        x[0, :, 0] = 0.5
        assert _project(x, grid.dt, 1.0) is x

    def test_violating_bundle_rescaled(self, grid):
        x = np.zeros((1, 64, 4))
        x[0, :, 0] = 2.0
        bundle = ControlBundle(x, grid)
        assert abs(admissibility_value(bundle) - 2.0) <= 1e-12
        projected = ControlBundle(_project(x, grid.dt, 1.0), grid)
        assert abs(admissibility_value(projected) - 1.0) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_projection_meets_its_optimality_conditions(self, grid, seed):
        # KKT: y_c = x_c max(0, 1 - theta / a_c) with a_c = dt ||x_c||, so
        # every kept cell's a_c shrinks by one common theta > 0, every
        # dropped one has a_c <= theta, and y lies on the sphere
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 64, 3)) * rng.uniform(0.5, 4.0, (2, 64, 1))
        projected = ControlBundle(_project(x, grid.dt, 0.3), grid, 0.3)
        y = projected.cells
        a = grid.dt * np.linalg.norm(x, axis=2)
        b = grid.dt * np.linalg.norm(y, axis=2)
        kept = b > 0.0
        assert kept.any() and not kept.all()
        theta = a[kept] - b[kept]
        assert theta.min() > 0.0 and np.ptp(theta) <= 1e-12
        assert np.all(a[~kept] <= theta.max() + 1e-12)
        assert np.max(np.abs(y[kept] - x[kept] * (b / a)[kept][:, None])) <= 1e-12
        assert abs(admissibility_value(projected) - 0.3) <= 1e-12

    def test_projection_matches_a_brute_force_minimisation(self):
        # min ||y - x||^2 over the ball by SLSQP, given both analytic
        # Jacobians, on a case where the projection drops whole cells
        grid = TimeGrid(1.0, 3)
        x = np.random.default_rng(1).standard_normal((2, 3, 2))
        bundle = ControlBundle(x, grid, 0.5)
        y = _project(x, grid.dt, 0.5)
        start = bundle.scaled(0.5 / admissibility_value(bundle)).cells

        def constraint_jacobian(v):
            # -dt y_c / ||y_c|| per cell, and the subgradient 0 at a dropped cell
            cells = v.reshape(-1, x.shape[2])
            norms = np.linalg.norm(cells, axis=1, keepdims=True)
            return -grid.dt * np.divide(cells, norms, out=np.zeros_like(cells),
                                        where=norms > 0.0).ravel()

        result = minimize(
            lambda v: np.sum((v - x.ravel()) ** 2), start.ravel(), method="SLSQP",
            jac=lambda v: 2.0 * (v - x.ravel()),
            constraints=[{"type": "ineq", "fun": lambda v: 0.5 - admissibility_value(
                ControlBundle(v.reshape(x.shape), grid, 0.5)), "jac": constraint_jacobian}],
            options={"ftol": 1e-15, "maxiter": 1000})
        assert result.success
        assert np.count_nonzero(np.linalg.norm(y, axis=2) == 0.0) == 2
        assert np.max(np.abs(result.x.reshape(x.shape) - y)) <= 1e-5
        assert np.sum((y - x) ** 2) <= result.fun + 1e-8

    def test_idempotent(self, grid):
        rng = np.random.default_rng(2)
        once = _project(rng.standard_normal((2, 64, 3)), grid.dt, 1.0)
        twice = _project(once, grid.dt, 1.0)
        assert np.max(np.abs(once - twice)) <= 1e-12

    def test_node_view(self, grid):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 64, 3))
        bundle = ControlBundle(x, grid)
        assert len(bundle.controls) == 2
        for j, ctrl in enumerate(bundle.controls):
            assert ctrl.grid == grid
            assert ctrl.coeffs.shape == (65, 3)
            assert np.array_equal(ctrl.coeffs[:-1], bundle.cells[j])
            assert np.array_equal(ctrl.coeffs[-1], bundle.cells[j, -1])


def within_summation_error(got, want, roundings):
    """Whether two evaluations of one sum of nonnegative terms agree: each
    lies within gamma_n S of the exact sum S when no term's path has more
    than n roundings (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1), and S <= want / (1 - gamma_n)."""
    u = np.finfo(float).eps / 2
    gamma = roundings * u / (1 - roundings * u)
    return abs(got - want) <= 2 * gamma / (1 - gamma) * want


class TestLeanHelpers:
    """admissibility_value and cost_J against the loops they replaced,
    within the summation error of their term counts."""

    @staticmethod
    def bundles(seed, count):
        """Seeded bundles of 1-3 controls on grids of 2-64 steps, with
        1-8 control modes (below and at the 8 state modes of the cost
        test) and zero cells; each one outside its ball is followed by
        its rescaling onto the ball, and the last is all zero."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            grid = TimeGrid(float(rng.uniform(0.1, 3.0)), int(rng.integers(2, 65)))
            shape = (int(rng.integers(1, 4)), grid.step_count, int(rng.integers(1, 9)))
            cells = rng.standard_normal(shape) * rng.uniform(0.0, 4.0)
            cells[rng.random(shape[:2]) < 0.2] = 0.0
            bundle = ControlBundle(cells, grid, float(rng.uniform(0.1, 2.0)))
            yield grid, bundle
            projected = _project(bundle.cells, grid.dt, bundle.radius)
            if projected is not bundle.cells:
                yield grid, ControlBundle(projected, grid, bundle.radius)
        yield grid, zero_bundle(grid, 3, 8)

    def test_admissibility_value_matches_the_loop(self):
        # both sum the k M cell norms, each times dt: at most modes + 1
        # roundings in a norm (square, sum over modes, root) and k M after
        # it (times dt, then the sum; the loop's 1 + M - 1 + k - 1 is no more)
        count = 0
        for _, bundle in self.bundles(seed=5, count=200):
            k, m, modes = bundle.cells.shape
            assert within_summation_error(admissibility_value(bundle),
                                          admissibility_oracle(bundle), modes + 1 + k * m)
            count += 1
        assert count > 200

    def test_cost_J_matches_the_trapezoid_rule(self):
        # roundings on one term's path, in either form: the square 1, the
        # sums over the N state modes or over the k controls' modes (the
        # loop's modes - 1 + k is no more than k modes) N + k modes, the
        # running sum M - 1, dt and the weight 2, state plus control 1,
        # then the trapezoid's pair sum 1, dt 1 and outer sum M - 1
        rng = np.random.default_rng(6)
        for grid, bundle in self.bundles(seed=7, count=200):
            k, m, modes = bundle.cells.shape
            traj = Trajectory(grid, rng.standard_normal((m + 1, 8)))
            roundings = 8 + k * modes + 2 * m + 4
            for spec in (CostSpec(), CostSpec(0.0, 1.0), CostSpec(1.0, 0.0),
                         CostSpec(*rng.uniform(0.1, 3.0, 2))):
                assert within_summation_error(cost_J(traj, bundle, spec),
                                              cost_oracle(traj, bundle, spec), roundings)

    @pytest.mark.parametrize("radius", [1.0, 0.05])
    def test_optimizer_unchanged_under_the_oracles(self, monkeypatch, radius):
        # the acceptance problem from zero, and with the ball binding
        problem = reference_problem()
        init = zero_bundle(problem.grid, 2, 4, radius)
        runs, calls = [], []

        def counted(cost):
            def call(*args):
                calls.append(cost)
                return cost(*args)
            return call

        # _cost is the one cost helper the descent calls, once per inner
        # solve: _project sums its cell weights itself
        for cost in (optctrl._cost, cost_oracle_arrays):
            monkeypatch.setattr(optctrl, "_cost", counted(cost))
            runs.append(optimize_controls(problem, CostSpec(), init, budget=200))
        (bundle, traj, log), (bundle_ref, traj_ref, log_ref) = runs
        assert calls.count(cost_oracle_arrays) == log_ref.inner_solves
        assert log == log_ref
        assert len(log.cost_values) > 2
        assert np.array_equal(bundle.cells, bundle_ref.cells)
        assert np.array_equal(traj.coeffs, traj_ref.coeffs)


class TestControlBundle:
    def test_cells_are_read_only_copies(self, grid):
        x = np.zeros((1, 64, 2))
        bundle = ControlBundle(x, grid)
        x[0, 0, 0] = 1.0
        assert bundle.cells[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            bundle.cells[0, 0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(1, 63, 2), (1, 65, 2), (64, 2)])
    def test_wrong_cell_count(self, grid, shape):
        with pytest.raises(DomainError, match="shape"):
            ControlBundle(np.zeros(shape), grid)

    def test_nan_cell(self, grid):
        x = np.zeros((2, 64, 2))
        x[1, 17, 1] = np.nan
        with pytest.raises(DomainError, match="finite"):
            ControlBundle(x, grid)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_nonpositive_radius(self, grid, radius):
        with pytest.raises(DomainError, match="radius"):
            ControlBundle(np.zeros((1, 64, 2)), grid, radius)


class TestHypothesisCheck:
    def test_reproduced_exponent_computation(self):
        report = hypothesis_check(reference_problem())
        assert report["alpha_q"]["value"] == 0.2
        assert report["alpha_q"]["passed"]
        assert abs(report["p_alpha_one_minus_q"]["value"] - 1.2) <= 1e-12
        assert report["p_alpha_one_minus_q"]["passed"]
        assert report["passed"]

    def test_failing_exponents_reported(self):
        n = 4
        prob = ProblemSpec(FracOrder(0.9, q=0.9, p=1.1), 1.0, n, 8,
                           np.zeros(n), np.zeros(n),
                           control_count=1)
        report = hypothesis_check(prob)
        assert abs(report["alpha_q"]["value"] - 0.81) <= 1e-12
        assert report["alpha_q"]["passed"]
        assert abs(report["p_alpha_one_minus_q"]["value"] - 0.099) <= 1e-12
        assert not report["p_alpha_one_minus_q"]["passed"]
        assert not report["passed"]

    def test_passed_exactly_when_the_solve_admits(self):
        # one exponent rule: over seeded orders, with and without controls,
        # the report passes exactly the instances picard_solve accepts
        rng = np.random.default_rng(29)
        orders = [FracOrder(1.0, q=0.5, p=2.0), FracOrder(0.5, q=0.5, p=4.0)]  # paq = 1
        orders += [FracOrder(float(rng.choice([0.3, 0.5, 0.8, 1.0])),
                             q=float(rng.uniform(0.05, 0.95)), p=float(rng.uniform(1.01, 5.0)))
                   for _ in range(30)]
        seen = set()
        for order in orders:
            for controls in (0, 1, 2):
                prob = ProblemSpec(order, 1.0, 4, 8, np.eye(4)[0],
                                   np.eye(4)[0], control_count=controls)
                bundle = zero_bundle(prob.grid, controls, 2) if controls else None
                try:
                    picard_solve(prob, controls=bundle)
                    admitted = True
                except RejectedInstanceError:
                    admitted = False
                assert hypothesis_check(prob)["passed"] == admitted
                seen.add((controls > 0, admitted))
        # both verdicts occur, and every uncontrolled instance is admitted
        assert seen == {(False, True), (True, True), (True, False)}

    def test_nonlocal_constants(self):
        prob = reference_problem()
        report = hypothesis_check(prob)
        assert report["nonlocal"] == {"k1": 0.3, "term_count": 1}

    def test_nonlinearity_budgets_sampled(self):
        n = 8
        u0 = np.zeros(n)
        prob = ProblemSpec(FracOrder(0.8, q=0.25, p=2.0), 1.0, n, 16, u0, u0,
                           nonlinearity=Nonlinearity(0.1))
        nl = hypothesis_check(prob)["nonlinearity"]
        assert set(nl) == {"kind", "declared_a_f", "lipschitz_bound"}
        sampled = hypothesis_check_oracle(prob)["nonlinearity"]
        assert 0.0 < sampled["measured_growth"] <= nl["declared_a_f"]
        assert 0.0 < sampled["measured_lipschitz"] <= nl["lipschitz_bound"]

    def test_readme_lipschitz_bound(self):
        # the README problem (N = 16, q = 0.25, sin_grad:0.1): 1.6016
        report = hypothesis_check(reference_problem(
            n=16, m=512, nonlinearity=Nonlinearity(0.1)))
        assert report["nonlinearity"]["lipschitz_bound"] == pytest.approx(
            0.1 * 16 * (257 / 256) ** 0.25, rel=1e-15)
        zero = hypothesis_check(reference_problem(n=16, m=512))["nonlinearity"]
        assert zero["declared_a_f"] == zero["lipschitz_bound"] == 0.0

    @pytest.mark.parametrize("q", [0.05, 0.25, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 16, 64])
    @pytest.mark.parametrize("gain", [0.1, 2.0, 40.0])
    def test_certified_bounds_hold(self, gain, n, q):
        u0 = np.zeros(n)
        prob = ProblemSpec(FracOrder(0.5, q=q, p=2.0), 1.0, n, 4, u0, u0,
                           nonlinearity=Nonlinearity(gain))
        nl = hypothesis_check(prob)["nonlinearity"]
        sampled = hypothesis_check_oracle(prob)["nonlinearity"]
        assert sampled["measured_growth"] <= nl["declared_a_f"]
        assert sampled["measured_lipschitz"] <= nl["lipschitz_bound"]
        # the bound from the sweep's own matrices, |gain| ||P||_2 ||D W_q^-1||_2
        matrix_bound = gain * (
            np.linalg.norm(collocation_maps(n)[2], 2)
            * np.linalg.norm(collocation_maps(n)[1] / q_weights(n, q), 2))
        assert nl["lipschitz_bound"] >= matrix_bound * (1 - 1e-14)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_projection_norm_closed_form(self, n):
        # discrete sine orthogonality: P P^T = (pi/K) I, K = 4N + 1
        k = 4 * n + 1
        p = collocation_maps(n)[2]
        assert p.shape == (n, 4 * n)
        assert np.allclose(p @ p.T, math.pi / k * np.eye(n), rtol=0.0, atol=1e-14)
        assert np.linalg.norm(p, 2) == pytest.approx(math.sqrt(math.pi / k), rel=1e-13)


class TestOptimizer:
    def test_pure_control_penalty_reaches_zero(self):
        prob = reference_problem(m=32, controls=1)
        rng = np.random.default_rng(3)
        start = ControlBundle(rng.uniform(-1.0, 1.0, size=(1, 32, 2)), prob.grid)
        init = start.scaled(0.5 / admissibility_value(start))
        bundle, traj, log = optimize_controls(
            prob, CostSpec(state_weight=0.0), init, budget=120, grad_tol=1e-6)
        assert log.cost_values[-1] <= 1e-6
        assert log.converged

    def test_descent_is_monotone_and_stationary(self):
        prob = reference_problem()
        init = zero_bundle(TimeGrid(1.0, 64), 2, 4)
        bundle, traj, log = optimize_controls(prob, CostSpec(), init,
                                              budget=60, grad_tol=1e-4)
        vals = log.cost_values
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))
        assert log.converged and log.stop_reason == "converged"
        assert log.stationarity <= 1e-4
        assert admissibility_value(bundle) <= bundle.radius + 1e-10

    def test_stop_reason_no_descent_step(self, monkeypatch):
        # J is convex, so along the ascent direction only trial steps too
        # short to move J past rounding pass the Armijo test, and the
        # descent runs out of them well inside its budget
        real = optctrl._adjoint_gradient
        monkeypatch.setattr(optctrl, "_adjoint_gradient", lambda *a: -real(*a))
        prob = reference_problem(m=16)
        _, _, log = optimize_controls(prob, CostSpec(), zero_bundle(prob.grid, 2, 4))
        assert log.stop_reason == "no descent step" and not log.converged
        assert len(log.gradient_norms) < 60
        assert log.cost_values[-1] >= log.cost_values[0] * (1.0 - 1e-12)

    def test_budget_flag(self):
        prob = reference_problem(m=16)
        rng = np.random.default_rng(9)
        start = ControlBundle(rng.uniform(-1.0, 1.0, size=(2, 16, 2)), prob.grid)
        init = start.scaled(0.8 / admissibility_value(start))
        bundle, traj, log = optimize_controls(prob, CostSpec(), init, budget=1,
                                              grad_tol=1e-12)
        assert log.stop_reason == "budget"
        assert not log.converged

    def test_binding_ball_converges(self):
        # at radius 0.05 the acceptance problem's optimum lies on the sphere
        prob = reference_problem()
        init = zero_bundle(prob.grid, 2, 4, radius=0.05)
        bundle, traj, log = optimize_controls(prob, CostSpec(), init)
        assert log.converged
        assert log.stationarity <= 1e-4
        assert admissibility_value(bundle) <= 0.05 + 1e-10
        tight = optimize_controls(prob, CostSpec(), init, budget=200, grad_tol=1e-9)[2]
        assert tight.converged
        assert abs(log.cost_values[-1] - tight.cost_values[-1]) <= 1e-7
        rng = np.random.default_rng(11)
        for _ in range(100):
            cand = random_admissible_bundle(prob.grid, 2, 4, rng, radius=0.05)
            cand_traj, _ = picard_solve(prob, controls=cand, tol=1e-9)
            assert log.cost_values[-1] <= cost_J(cand_traj, cand, CostSpec())

    def test_initial_bundle_on_another_grid(self):
        # the initial bundle is solved as given, so its cells cannot be
        # relabelled onto the problem's grid
        prob = reference_problem(m=16, controls=1)
        with pytest.raises(DomainError, match="control grid"):
            optimize_controls(prob, CostSpec(), zero_bundle(TimeGrid(2.0, 16), 1, 2))

    def test_workspace_of_another_problem_refused(self):
        # the solve context is the problem's own: one built at another
        # alpha, or for an equal copy, is refused before any solve
        prob = reference_problem(m=16, controls=1)
        for other in (dataclasses.replace(prob, order=FracOrder(0.5, q=0.25, p=2.0)),
                      dataclasses.replace(prob)):
            with pytest.raises(DomainError,
                               match="^the workspace was built for another problem$"):
                optimize_controls(prob, CostSpec(), zero_bundle(prob.grid, 1, 2),
                                  workspace=_SweepWorkspace(other))

    def test_given_workspace_is_the_only_one(self, monkeypatch):
        # a workspace passed in serves every solve: the optimizer builds
        # none of its own, and its run is the one it builds otherwise
        prob = reference_problem(m=16, controls=1, nonlinearity=Nonlinearity(0.1))
        init = zero_bundle(prob.grid, 1, 2)
        own = optimize_controls(prob, CostSpec(), init, budget=5)
        workspace = _SweepWorkspace(prob, 200)
        built = []
        workspace_init = _SweepWorkspace.__init__

        def record(self, *args, **kwargs):
            built.append(self)
            workspace_init(self, *args, **kwargs)

        monkeypatch.setattr(_SweepWorkspace, "__init__", record)
        bundle, traj, log = optimize_controls(prob, CostSpec(), init, budget=5,
                                              workspace=workspace)
        assert built == []
        assert log == own[2]
        assert np.array_equal(bundle.cells, own[0].cells)
        assert np.array_equal(traj.coeffs, own[1].coeffs)

    def test_exponent_precondition(self):
        bad = ProblemSpec(FracOrder(0.9, q=0.9, p=1.1), 1.0, 4, 8,
                          np.zeros(4), np.zeros(4),
                          control_count=1)
        with pytest.raises(DomainError):
            optimize_controls(bad, CostSpec(), zero_bundle(TimeGrid(1.0, 8), 1, 2))

    def test_exponent_rejection_matches_the_solve(self):
        # the README problem at p = 1.1: p*alpha*(1-q) = 0.66
        bad = dataclasses.replace(reference_problem(m=16, controls=1),
                                  order=FracOrder(0.8, q=0.25, p=1.1))
        init = zero_bundle(bad.grid, 1, 2)
        messages = []
        for call in (lambda: picard_solve(bad, controls=init),
                     lambda: optimize_controls(bad, CostSpec(), init)):
            with pytest.raises(RejectedInstanceError) as err:
                call()
            messages.append(str(err.value))
        assert messages == ["p*alpha*(1-q) = 0.6600000000000001 must exceed 1 "
                            "for controlled instances"] * 2


# acceptance optimize config (f = 0) and a small sin_grad instance, each
# also at a nonlocal weight plain Picard iteration cannot solve
GRADIENT_CASES = {
    "linear": (dict(n=8, m=64), 4),
    "sin_grad": (dict(n=8, m=32, nonlinearity=Nonlinearity(0.1)), 2),
    "linear_c3": (dict(n=8, m=64, nonlocal_terms=((3.0, 0.5),)), 4),
    "sin_grad_c3": (dict(n=8, m=32, nonlinearity=Nonlinearity(0.1),
                         nonlocal_terms=((3.0, 0.5),)), 2),
}


class TestAdjointGradient:
    @pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
    @pytest.mark.parametrize("start", ["zero", "random"])
    def test_matches_finite_differences(self, case, start):
        kw, control_modes = GRADIENT_CASES[case]
        problem = reference_problem(controls=2, **kw)
        grid = problem.grid
        cache = SolutionOperatorCache(problem.order, problem.mode_count)
        if start == "zero":
            bundle = zero_bundle(grid, 2, control_modes)
        else:
            bundle = random_admissible_bundle(grid, 2, control_modes,
                                              np.random.default_rng(11))
        x = bundle.cells
        traj, _ = picard_solve(problem, cache=cache, controls=bundle, tol=1e-12)
        got = _adjoint_gradient(_gradient_rows(CostSpec(), grid), x, traj.coeffs,
                                _SweepWorkspace(problem), 1e-12, MAX_ITER)
        want = fd_gradient(problem, CostSpec(), x, cache)
        assert np.linalg.norm(want) > 0.0
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    def test_gradient_check_reported(self):
        prob = reference_problem(m=32, controls=1)
        init = zero_bundle(TimeGrid(1.0, 32), 1, 2)
        _, _, log = optimize_controls(prob, CostSpec(), init, budget=3)
        check = log.gradient_check
        assert check["fd_step"] == 1e-4
        assert check["relative_residual"] <= 1e-3
        assert log.adjoint_solves == len(log.gradient_norms)


class TestRandomBundles:
    def test_samples_are_admissible(self):
        rng = np.random.default_rng(4)
        grid = TimeGrid(1.0, 32)
        for _ in range(50):
            bundle = random_admissible_bundle(grid, 2, 3, rng)
            assert admissibility_value(bundle) <= bundle.radius + 1e-10


def reference_optimize(problem, cost, init, budget=60, grad_tol=1e-4, fd_step=1e-4,
                       solve_tol=1e-9, workspace=None, max_iter=MAX_ITER):
    """optimize_controls as it was, the slow reference of the array
    descent: every trial point a checked ControlBundle, every solve a
    picard_solve with its report and Trajectory, and every cost through
    cost_J.  The gradient rows are its own, in the descent's operation
    order, so a reordering of _gradient_rows' factors shows on a grid
    whose step is not dyadic."""
    defect = problem.exponent_defect()
    if defect:
        raise RejectedInstanceError(defect)
    workspace = _workspace(problem, None, workspace)
    grid, radius = problem.grid, init.radius
    dt, m = grid.dt, grid.step_count
    trapezoid = np.full(m + 1, dt)
    trapezoid[0] = trapezoid[-1] = 0.5 * dt
    later = (m - 0.5 - np.arange(m))[:, None]
    log = optctrl.DescentLog()

    def objective(bundle, tol=solve_tol):
        try:
            traj, _ = picard_solve(problem, controls=bundle, tol=tol, max_iter=max_iter,
                                   workspace=workspace)
        except NonConvergenceError as exc:
            raise OptimizationError(
                f"inner solve diverged for a candidate bundle: {exc}") from exc
        log.inner_solves += 1
        return cost_J(traj, bundle, cost), traj

    def gradient(arr, traj):
        weight = 2.0 * cost.state_weight * trapezoid[:, None] * traj.coeffs
        try:
            state = _adjoint(workspace, traj.coeffs, weight, solve_tol, max_iter)
        except NonConvergenceError as exc:
            raise OptimizationError(
                f"adjoint solve diverged for a candidate bundle: {exc}") from exc
        log.adjoint_solves += 1
        return state[None, :, :arr.shape[2]] + 2.0 * cost.control_weight * dt * dt * later * arr

    def project(bundle):
        cells = _project(bundle.cells, dt, radius)
        return bundle if cells is bundle.cells else ControlBundle(cells, grid, radius)

    current = project(init)
    x = current.cells
    j_cur, traj_cur = objective(current)
    log.cost_values.append(j_cur)
    prev_x = prev_grad = checked = None
    step = 1.0
    for _ in range(budget):
        grad = gradient(x, traj_cur)
        checked = current, grad
        stationarity = float(np.linalg.norm(
            x - project(ControlBundle(x - grad, grid, radius)).cells))
        log.gradient_norms.append(stationarity)
        log.stationarity = stationarity
        if stationarity <= grad_tol:
            log.converged, log.stop_reason = True, "converged"
            break
        if prev_grad is not None:
            s = (x - prev_x).reshape(-1)
            y = (grad - prev_grad).reshape(-1)
            sy = float(s @ y)
            if sy > 0.0:
                step = float(s @ s) / sy
        gamma = min(max(step, 1e-8), 1e8)
        accepted = False
        while gamma > 1e-14:
            candidate = project(ControlBundle(x - gamma * grad, grid, radius))
            jn, traj_n = objective(candidate)
            decrease = optctrl._ARMIJO_SIGMA / gamma * float(((x - candidate.cells) ** 2).sum())
            if jn <= j_cur - decrease:
                accepted = True
                break
            gamma *= 0.5
        if not accepted:
            log.stop_reason = "no descent step"
            break
        prev_x, prev_grad = x, grad
        current, j_cur, traj_cur = candidate, jn, traj_n
        x = current.cells
        log.cost_values.append(j_cur)
    else:
        log.stop_reason = "budget"

    if checked is not None:
        bundle, grad = checked
        adjoint = float(np.linalg.norm(grad))
        finite_difference = residual = math.nan
        if adjoint > 0.0:
            direction = grad / adjoint
            tol = min(solve_tol, optctrl._CHECK_TOL)
            try:
                j_plus, _ = objective(
                    ControlBundle(bundle.cells + fd_step * direction, grid, radius), tol=tol)
                j_minus, _ = objective(
                    ControlBundle(bundle.cells - fd_step * direction, grid, radius), tol=tol)
            except OptimizationError:
                pass
            else:
                finite_difference = (j_plus - j_minus) / (2.0 * fd_step)
                residual = abs(finite_difference - adjoint) / adjoint
        log.gradient_check = {"fd_step": fd_step, "adjoint": adjoint,
                              "finite_difference": finite_difference,
                              "relative_residual": residual}
    return current, traj_cur, log


def readme_block(**edits):
    """The README config block, each key=value edit replacing its one line."""
    text = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    for key, value in edits.items():
        text, count = re.subn(rf"(?m)^{key} = \S+", f"{key} = {value}", text)
        assert count == 1, key
    return text


def perfbench_optimize_config(seed=1):
    """The perfbench optimize_linear workload's config at seed, from
    perfbench/workloads.py imported without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads_for_optctrl",
                                                  PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[spec.name]
    return next(module.WORKLOADS["optimize_linear"].configs(seed, "out", 1))


README = Path(__file__).resolve().parent.parent / "README.md"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the README block's nonlocal term moved off the grid: 0.4 = 51.2 dt at
# M = 128 (`nonlocal` is a keyword, so the edit is a dict)
OFF_GRID = {"nonlocal": "0.3@0.4"}

# the descent's configs: f = 0 at the acceptance size, the README problem
# at M = 128, whose adjoint runs through the slope of sin_grad:0.1, and
# that problem with the ball binding, from a random start and at alpha = 1;
# and at M = 96 with control_weight 0.3, where dt is not dyadic and cw not
# a power of two, so the order of the control term's factors shows; and
# one that runs out of budget, so the gradient check is at the point
# before the last step; and the README problem with its nonlocal time off
# the grid, where h reads two nodes
DESCENT_CASES = {
    "perfbench-optimize": perfbench_optimize_config,
    "readme-m128": lambda: readme_block(steps=128),
    "readme-m128-radius-0.05": lambda: readme_block(steps=128, radius=0.05),
    "readme-m128-random": lambda: readme_block(steps=128, init="random"),
    "readme-m128-alpha-1": lambda: readme_block(steps=128, alpha="1.0"),
    "readme-m96-cw-0.3": lambda: readme_block(steps=96, control_weight=0.3),
    "readme-m128-budget-3": lambda: readme_block(steps=128, budget=3),
    "readme-m128-offgrid": lambda: readme_block(steps=128, **OFF_GRID),
}


def descent_arguments(text):
    """optimize_controls's arguments as `sobfrac optimize` builds them from
    a config text, with a fresh workspace per call."""
    config = cli.parse_config(text, "optimize")
    problem = config.problem
    k = problem.control_count
    if config.init_kind == "zero":
        init = zero_bundle(problem.grid, k, config.control_modes, config.radius)
    else:
        init = random_admissible_bundle(problem.grid, k, config.control_modes,
                                        np.random.default_rng(config.seed), config.radius)
    kwargs = dict(budget=config.budget, grad_tol=config.grad_tol, fd_step=config.fd_step,
                  solve_tol=config.solver_tol, max_iter=config.solver_max_iter)
    return problem, config.cost, init, kwargs, lambda: _SweepWorkspace(problem,
                                                                       config.quad_nodes)


class TestArrayDescent:
    """optimize_controls, run on arrays, against reference_optimize."""

    @pytest.mark.parametrize("case", sorted(DESCENT_CASES))
    def test_matches_the_record_loop(self, case):
        problem, cost, init, kwargs, workspace = descent_arguments(DESCENT_CASES[case]())
        bundle, traj, log = optimize_controls(problem, cost, init, workspace=workspace(),
                                              **kwargs)
        bundle_ref, traj_ref, log_ref = reference_optimize(problem, cost, init,
                                                           workspace=workspace(), **kwargs)
        assert np.array_equal(bundle.cells, bundle_ref.cells)
        assert np.array_equal(traj.coeffs, traj_ref.coeffs)
        assert log == log_ref
        assert bundle.grid == traj.grid == problem.grid and bundle.radius == init.radius
        assert len(log.cost_values) > 2
        assert math.isfinite(log.gradient_check["relative_residual"])
        if case.endswith("radius-0.05"):
            assert admissibility_value(bundle) == pytest.approx(0.05, rel=1e-12)

    def test_each_cost_is_a_function_of_the_cells(self):
        # every forward solve starts from the data term, so the last cost
        # recorded is the one a fresh solve of the returned bundle gives
        problem, cost, init, kwargs, workspace = descent_arguments(readme_block(steps=128))
        ws = workspace()
        bundle, traj, log = optimize_controls(problem, cost, init, workspace=ws, **kwargs)
        solved, _ = picard_solve(problem, controls=bundle, tol=kwargs["solve_tol"],
                                 max_iter=kwargs["max_iter"], workspace=ws)
        assert np.array_equal(solved.coeffs, traj.coeffs)
        assert log.cost_values[-1] == cost_J(solved, bundle, cost)

    def test_off_grid_nonlocal_gradient_checks(self):
        # the adjoint through the two-node transposed elimination against
        # its central difference
        problem, cost, init, kwargs, workspace = descent_arguments(
            readme_block(steps=128, **OFF_GRID))
        _, _, log = optimize_controls(problem, cost, init, workspace=workspace(), **kwargs)
        assert log.converged
        assert log.gradient_check["relative_residual"] <= 1e-5

    # at most 1.5 times the 72 and 101 gradients these runs take
    @pytest.mark.parametrize("steps, gradients", [(128, 108), (512, 152)])
    def test_tight_stationarity_is_reached(self, steps, gradients):
        text = readme_block(steps=steps, tol="1e-11", grad_tol="1e-9", budget=500)
        problem, cost, init, kwargs, workspace = descent_arguments(text)
        _, _, log = optimize_controls(problem, cost, init, workspace=workspace(), **kwargs)
        assert log.converged and log.stationarity <= 1e-9
        assert len(log.gradient_norms) <= gradients

    @pytest.mark.parametrize("setting, value, rule", [
        ("fd_step", 0.0, "must be positive and finite"),
        ("fd_step", -1e-4, "must be positive and finite"),
        ("fd_step", math.nan, "must be positive and finite"),
        ("fd_step", math.inf, "must be positive and finite"),
        ("grad_tol", math.nan, "must be >= 0"),
        ("grad_tol", -1e-4, "must be >= 0"),
        ("budget", 0, "must be >= 1"),
        ("budget", -2, "must be >= 1"),
    ])
    def test_descent_settings_refused_before_any_solve(self, monkeypatch, setting, value,
                                                       rule):
        prob = reference_problem(m=16, controls=1)
        # a sweep would raise TypeError
        monkeypatch.setattr(_SweepWorkspace, "sweep", None)
        with pytest.raises(DomainError, match=f"^{re.escape(f'{setting} {rule}, got {value}')}$"):
            optimize_controls(prob, CostSpec(), zero_bundle(prob.grid, 1, 2),
                              **{setting: value})

    def test_an_admissible_start_that_never_moves_is_returned_itself(self):
        # one gradient at an optimum already: the bundle returned is init
        prob = reference_problem(m=16, controls=1)
        init = zero_bundle(prob.grid, 1, 2)
        got = optimize_controls(prob, CostSpec(), init, grad_tol=1e9)
        want = reference_optimize(prob, CostSpec(), init, grad_tol=1e9)
        assert got[0] is init and want[0] is init
        assert got[2] == want[2] and got[2].converged

    @staticmethod
    def refusals(monkeypatch, problem, init, cost=CostSpec(), **kwargs):
        """The exception type and message of the descent on (problem, init)
        and the forward sweeps it ran before raising, the same for both
        loops."""
        sweeps = []
        sweep = _SweepWorkspace.sweep
        monkeypatch.setattr(_SweepWorkspace, "sweep",
                            lambda self, *a: sweeps.append(1) or sweep(self, *a))
        out = []
        for descent in (optimize_controls, reference_optimize):
            before = len(sweeps)
            with pytest.raises(SobfracError) as err:
                descent(problem, cost, init, **kwargs)
            out.append((type(err.value), str(err.value), len(sweeps) - before))
        assert out[0] == out[1]
        return out[0]

    def test_a_non_finite_trial_point(self, monkeypatch):
        # both descents reach the adjoint's state term through
        # mild_solver._control_forcing_adjoint
        real = mild_solver._control_forcing_adjoint
        monkeypatch.setattr(mild_solver, "_control_forcing_adjoint",
                            lambda *args: np.full_like(real(*args), np.inf))
        prob = reference_problem(m=16, controls=1)
        kind, message, _ = self.refusals(monkeypatch, prob, zero_bundle(prob.grid, 1, 2))
        assert (kind, message) == (DomainError, "control cells must be finite")

    def test_inner_solve_divergence(self, monkeypatch):
        prob = reference_problem(m=32, nonlinearity=Nonlinearity(40.0))
        kind, message, sweeps = self.refusals(monkeypatch, prob, zero_bundle(prob.grid, 2, 2))
        assert sweeps == 80
        assert kind is OptimizationError
        assert message.startswith("inner solve diverged for a candidate bundle: "
                                  "Picard iteration did not reach tol=1e-09 in 80 sweeps")

    def test_adjoint_solve_divergence(self, monkeypatch):
        # a large state weight scales the adjoint's source, so at 20 sweeps
        # the forward solves converge and the first adjoint solve does not
        prob = reference_problem(m=32, nonlinearity=Nonlinearity(5.0))
        kind, message, _ = self.refusals(monkeypatch, prob, zero_bundle(prob.grid, 2, 2),
                                         cost=CostSpec(1e6, 1.0), max_iter=20)
        assert kind is OptimizationError
        assert message.startswith("adjoint solve diverged for a candidate bundle: "
                                  "adjoint iteration did not reach tol=1e-09 in 20 sweeps")

    def test_exponent_defect_before_any_solve(self, monkeypatch):
        bad = dataclasses.replace(reference_problem(m=16, controls=1),
                                  order=FracOrder(0.8, q=0.25, p=1.1))
        assert self.refusals(monkeypatch, bad, zero_bundle(bad.grid, 1, 2)) == (
            RejectedInstanceError,
            "p*alpha*(1-q) = 0.6600000000000001 must exceed 1 for controlled instances", 0)

    def test_workspace_of_another_problem(self, monkeypatch):
        prob = reference_problem(m=16, controls=1)
        got = self.refusals(monkeypatch, prob, zero_bundle(prob.grid, 1, 2),
                            workspace=_SweepWorkspace(dataclasses.replace(prob)))
        assert got == (DomainError, "the workspace was built for another problem", 0)

    @pytest.mark.parametrize("init, message", [
        (lambda grid: zero_bundle(TimeGrid(2.0, 16), 1, 2),
         "control grid does not match the problem grid"),
        (lambda grid: zero_bundle(grid, 2, 2), "bundle supplies 2 controls, spec declares 1"),
        (lambda grid: zero_bundle(grid, 1, 9), "control has 9 modes, the problem 8"),
    ])
    def test_init_refused_before_any_solve(self, monkeypatch, init, message):
        prob = reference_problem(m=16, controls=1)
        assert self.refusals(monkeypatch, prob, init(prob.grid)) == (DomainError, message, 0)

    def test_sweep_budget_below_one(self, monkeypatch):
        prob = reference_problem(m=16, controls=1)
        assert self.refusals(monkeypatch, prob, zero_bundle(prob.grid, 1, 2), max_iter=0) == (
            DomainError, "max_iter must be >= 1, got 0", 0)
