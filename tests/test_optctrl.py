"""Admissible set, cost functional, and projected-gradient optimizer."""

import math

import numpy as np
import pytest

from sobfrac.errors import DomainError
from sobfrac.fracops import TimeGrid
from sobfrac.mild_solver import (ProblemSpec, Trajectory, _SweepWorkspace,
                                 eval_f, picard_solve, sin_gradient)
from sobfrac.optctrl import (ControlBundle, CostSpec, adjoint_gradient,
                             admissibility_value, cost_J, hypothesis_check,
                             optimize_controls, project_admissible,
                             random_admissible_bundle, zero_bundle)
from sobfrac.solution_ops import SolutionOperatorCache
from sobfrac.specfun import FracOrder
from sobfrac.spectral import SpectralField, norm_q


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(1.0, 64)


def reference_problem(n=8, m=64, controls=2, nonlocal_terms=((0.3, 0.5),), **kw):
    u0 = SpectralField(np.array([0.5, 0.2] + [0.0] * (n - 2)))
    v0 = SpectralField.unit(n, 1)
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


def hypothesis_check_oracle(problem, trials=50, seed=0):
    """The per-sample hypothesis check that the batched one replaced: one
    eval_f call per field, and one more for the previous field of each
    Lipschitz quotient."""
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
    if problem.nonlinearity.kind != "zero":
        prev = None
        for _ in range(trials):
            u = SpectralField(rng.standard_normal(n))
            fu = eval_f(problem, 0.0, u)
            growth = max(growth, fu.norm() / (1.0 + norm_q(u, o.q)))
            if prev is not None:
                fv = eval_f(problem, 0.0, prev)
                du = norm_q(u - prev, o.q)
                if du > 0:
                    lipschitz = max(lipschitz, (fu - fv).norm() / du)
            prev = u
    report["nonlinearity"] = {
        "kind": problem.nonlinearity.kind,
        "declared_a_f": problem.nonlinearity.a_f,
        "measured_growth": growth,
        "measured_lipschitz": lipschitz,
    }
    k1 = float(sum(c for c, _ in problem.nonlocal_terms))
    sup_norm = 0.0
    for _ in range(trials):
        u = SpectralField(rng.standard_normal(n))
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
        traj = Trajectory.zero(grid, 8)
        bundle = zero_bundle(grid, 1, 4)
        assert cost_J(traj, bundle, CostSpec()) == 0.0

    def test_unit_constant_control(self, grid):
        # zero state, one control pinned to the first basis mode on [0, 1]:
        # J = int_0^1 t dt = 1/2
        traj = Trajectory.zero(grid, 8)
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
        traj = Trajectory.zero(TimeGrid(1.0, 32), 8)
        bundle = zero_bundle(grid, 1, 4)
        with pytest.raises(DomainError):
            cost_J(traj, bundle, CostSpec())

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            CostSpec(0.0, 0.0)
        with pytest.raises(DomainError):
            CostSpec(-1.0, 1.0)


class TestAdmissibility:
    def test_admissible_returned_unchanged(self, grid):
        x = np.zeros((1, 64, 4))
        x[0, :, 0] = 0.5
        bundle = ControlBundle(x, grid)
        assert project_admissible(bundle) is bundle

    def test_violating_bundle_rescaled(self, grid):
        x = np.zeros((1, 64, 4))
        x[0, :, 0] = 2.0
        bundle = ControlBundle(x, grid)
        assert abs(admissibility_value(bundle) - 2.0) <= 1e-12
        projected = project_admissible(bundle)
        assert abs(admissibility_value(projected) - 1.0) <= 1e-10

    def test_idempotent(self, grid):
        rng = np.random.default_rng(2)
        bundle = ControlBundle(rng.standard_normal((2, 64, 3)), grid)
        once = project_admissible(bundle)
        twice = project_admissible(once)
        assert np.max(np.abs(once.cells - twice.cells)) <= 1e-12

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
                           SpectralField.zero(n), SpectralField.zero(n),
                           control_count=1)
        report = hypothesis_check(prob)
        assert abs(report["alpha_q"]["value"] - 0.81) <= 1e-12
        assert report["alpha_q"]["passed"]
        assert abs(report["p_alpha_one_minus_q"]["value"] - 0.099) <= 1e-12
        assert not report["p_alpha_one_minus_q"]["passed"]
        assert not report["passed"]

    def test_nonlocal_constants(self):
        prob = reference_problem()
        report = hypothesis_check(prob)
        assert report["nonlocal"]["k1"] == 0.3
        assert report["nonlocal"]["k2"] > 0.0

    @pytest.mark.parametrize("nonlinearity", [
        sin_gradient(0.1),
        None,
    ], ids=["sin_grad", "zero"])
    def test_matches_per_sample_oracle_bitwise(self, nonlinearity):
        # the README problem (N = 16, M = 512), with its f swapped
        kw = {} if nonlinearity is None else {"nonlinearity": nonlinearity}
        problem = reference_problem(n=16, m=512, **kw)
        assert hypothesis_check(problem) == hypothesis_check_oracle(problem)

    def test_nonlinearity_budgets_sampled(self):
        n = 8
        u0 = SpectralField.zero(n)
        prob = ProblemSpec(FracOrder(0.8, q=0.25, p=2.0), 1.0, n, 16, u0, u0,
                           nonlinearity=sin_gradient(0.1))
        report = hypothesis_check(prob)
        nl = report["nonlinearity"]
        assert nl["measured_growth"] <= nl["declared_a_f"] * (1 + 1e-9)
        assert nl["measured_lipschitz"] > 0.0


class TestOptimizer:
    def test_pure_control_penalty_reaches_zero(self):
        prob = reference_problem(m=32, controls=1)
        rng = np.random.default_rng(3)
        init = random_admissible_bundle(TimeGrid(1.0, 32), 1, 2, rng, fill=0.5)
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
        assert log.converged
        assert log.stationarity <= 1e-4
        assert admissibility_value(bundle) <= bundle.radius + 1e-10

    def test_budget_flag(self):
        prob = reference_problem(m=16)
        rng = np.random.default_rng(9)
        init = random_admissible_bundle(TimeGrid(1.0, 16), 2, 2, rng, fill=0.8)
        bundle, traj, log = optimize_controls(prob, CostSpec(), init, budget=1,
                                              grad_tol=1e-12)
        assert log.budget_exhausted
        assert not log.converged

    def test_exponent_precondition(self):
        bad = ProblemSpec(FracOrder(0.9, q=0.9, p=1.1), 1.0, 4, 8,
                          SpectralField.zero(4), SpectralField.zero(4),
                          control_count=1)
        with pytest.raises(DomainError):
            optimize_controls(bad, CostSpec(), zero_bundle(TimeGrid(1.0, 8), 1, 2))


# acceptance optimize config (f = 0) and a small sin_grad instance, each
# also at a nonlocal weight plain Picard iteration cannot solve
GRADIENT_CASES = {
    "linear": (dict(n=8, m=64), 4),
    "sin_grad": (dict(n=8, m=32, nonlinearity=sin_gradient(0.1)), 2),
    "linear_c3": (dict(n=8, m=64, nonlocal_terms=((3.0, 0.5),)), 4),
    "sin_grad_c3": (dict(n=8, m=32, nonlinearity=sin_gradient(0.1),
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
        got = adjoint_gradient(problem, CostSpec(), x, traj,
                               _SweepWorkspace(problem, cache), solve_tol=1e-12)
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
