"""Lagrange optimal multi-integral control over the admissible ball.

Controls are piecewise constant in time on the solver grid with a small
number of spatial modes.  The optimizer is projected gradient descent
with exact adjoint-state gradients of the discrete cost (one adjoint
solve each) and Armijo backtracking; admissibility is restored after
every step by uniform rescaling.  Rescaling lands on the integral-norm
ball, but it is not the Euclidean projection onto it, so the
stationarity measure x - P(x - grad) is not a first-order optimality
test when the ball binds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonConvergenceError, OptimizationError
from .fracops import TimeGrid
from .mild_solver import (MAX_ITER, ProblemSpec, Trajectory, _SweepWorkspace,
                          _workspace, adjoint_solve, f_modes, picard_solve)
from .solution_ops import SolutionOperatorCache
from .spectral import q_weights

# sufficient-decrease constant of the Armijo test
_ARMIJO_SIGMA = 1e-4
# random fields per sampled hypothesis budget
_TRIALS = 50


@dataclass(frozen=True)
class ControlBundle:
    """k piecewise-constant-in-time spectral controls plus the ball radius.

    cells has shape (k, M, modes): cells[j, m] is control j on the cell
    [t_m, t_{m+1}) of grid.
    """

    cells: np.ndarray
    grid: TimeGrid
    radius: float = 1.0

    def __post_init__(self):
        c = np.array(self.cells, dtype=float)
        if c.ndim != 3 or c.shape[1] != self.grid.step_count:
            raise DomainError(
                f"cells must have shape (k, {self.grid.step_count}, modes), "
                f"got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise DomainError("control cells must be finite")
        if not self.radius > 0.0:
            raise DomainError(f"radius must be positive, got {self.radius}")
        c.setflags(write=False)
        object.__setattr__(self, "cells", c)

    @property
    def controls(self) -> tuple:
        """Per-control node trajectories: node m is cell m, and the final
        node repeats the last cell."""
        return tuple(Trajectory(self.grid, np.vstack([c, c[-1:]]))
                     for c in self.cells)

    def scaled(self, factor: float) -> "ControlBundle":
        return ControlBundle(self.cells * factor, self.grid, self.radius)


def zero_bundle(grid: TimeGrid, k: int, control_modes: int,
                radius: float = 1.0) -> ControlBundle:
    return ControlBundle(np.zeros((k, grid.step_count, control_modes)),
                         grid, radius)


def admissibility_value(bundle: ControlBundle) -> float:
    """sum_j int_0^a ||u_j(s)|| ds, exact for piecewise-constant controls."""
    total = 0.0
    for c in bundle.cells:
        total += float(np.sum(np.linalg.norm(c, axis=1)) * bundle.grid.dt)
    return total


def project_admissible(bundle: ControlBundle) -> ControlBundle:
    """Uniformly rescale onto the ball when the constraint is violated."""
    value = admissibility_value(bundle)
    if value <= bundle.radius:
        return bundle
    return bundle.scaled(bundle.radius / value)


@dataclass(frozen=True)
class CostSpec:
    """Weights of the quadratic running cost."""

    state_weight: float = 1.0
    control_weight: float = 1.0

    def __post_init__(self):
        if self.state_weight < 0.0 or self.control_weight < 0.0:
            raise DomainError("cost weights must be nonnegative")
        if self.state_weight == 0.0 and self.control_weight == 0.0:
            raise DomainError("cost weights must not both vanish")


def cost_J(traj: Trajectory, controls: ControlBundle, spec: CostSpec) -> float:
    """int_0^a [ sw ||u(t)||^2 + cw int_0^t sum_j ||u_j(s)||^2 ds ] dt.

    The inner integrals of the piecewise-constant controls accumulate
    exactly; the outer integral uses the trapezoid rule.
    """
    if controls.grid != traj.grid:
        raise DomainError("cost requires trajectory and controls on one grid")
    dt = traj.grid.dt
    state = np.sum(traj.coeffs ** 2, axis=1)
    inner = np.zeros(traj.grid.step_count + 1)
    for c in controls.cells:
        inner[1:] += np.cumsum(np.sum(c ** 2, axis=1)) * dt
    integrand = spec.state_weight * state + spec.control_weight * inner
    return float(np.trapezoid(integrand, dx=dt))


def adjoint_gradient(problem: ProblemSpec, cost: CostSpec, x: np.ndarray,
                     traj: Trajectory, workspace: _SweepWorkspace,
                     solve_tol: float = 1e-9, max_iter: int = MAX_ITER) -> np.ndarray:
    """Exact gradient of x -> J(u*(x), x) over cell values x of shape
    (k, M, modes), given the solved state traj = u*(x).

    One adjoint solve gives the state term; every control sees the same
    state term because the controls enter only through their sum.  The
    control term is explicit: cell l is counted by the outer trapezoid at
    the M - 1 - l interior nodes after it and half the final node.
    """
    dt = problem.grid.dt
    m = problem.step_count
    trapezoid = np.full(m + 1, dt)
    trapezoid[[0, -1]] *= 0.5
    weight = 2.0 * cost.state_weight * trapezoid[:, None] * traj.coeffs
    grad_total = adjoint_solve(problem, traj, weight, workspace, tol=solve_tol,
                               max_iter=max_iter)
    state = grad_total[:, :x.shape[2]]
    later = (m - 0.5 - np.arange(m))[:, None]
    return state[None] + 2.0 * cost.control_weight * dt * dt * later * x


@dataclass
class DescentLog:
    """Per-accepted-iteration record of the projected-gradient run.

    inner_solves counts forward solves, adjoint_solves the gradients.
    gradient_check compares the final adjoint gradient's directional
    derivative with a central difference of step fd_step along it.
    """

    cost_values: list = field(default_factory=list)
    gradient_norms: list = field(default_factory=list)
    stationarity: float = math.nan
    converged: bool = False
    budget_exhausted: bool = False
    inner_solves: int = 0
    adjoint_solves: int = 0
    gradient_check: dict = field(default_factory=dict)


def optimize_controls(problem: ProblemSpec, cost: CostSpec, init: ControlBundle,
                      budget: int = 60, grad_tol: float = 1e-4,
                      fd_step: float = 1e-4, solve_tol: float = 1e-9,
                      cache: SolutionOperatorCache | None = None,
                      max_iter: int = MAX_ITER):
    """Projected-gradient descent on the control coefficients.

    Gradients come from adjoint_gradient (one adjoint solve each).  Each
    iteration takes a Barzilai-Borwein trial step, halves it under the
    Armijo test, and projects back onto the admissible ball, so accepted
    cost values never increase.  After the descent, one central
    difference of step fd_step along the last gradient (two solves)
    checks it.  Every forward and adjoint solve stops after max_iter
    sweeps.  Returns (bundle, trajectory, DescentLog); the log's
    budget_exhausted flag marks a best-so-far return.
    """
    ok_aq, ok_paq = problem.exponents_ok()
    if not (ok_aq and ok_paq):
        raise DomainError(
            "optimize_controls requires alpha*q < 1 and p*alpha*(1-q) > 1")
    workspace = _workspace(problem, cache, None)
    grid = problem.grid

    x = project_admissible(init).cells
    radius = init.radius
    log = DescentLog()

    def objective(arr, warm=None, tol=solve_tol):
        bundle = ControlBundle(arr, grid, radius)
        try:
            traj, _ = picard_solve(problem, controls=bundle, tol=tol,
                                   max_iter=max_iter, initial=warm,
                                   workspace=workspace)
        except NonConvergenceError as exc:
            raise OptimizationError(
                f"inner solve diverged for a candidate bundle: {exc}") from exc
        log.inner_solves += 1
        return cost_J(traj, bundle, cost), traj

    def gradient(arr, traj):
        try:
            grad = adjoint_gradient(problem, cost, arr, traj, workspace,
                                    solve_tol=solve_tol, max_iter=max_iter)
        except NonConvergenceError as exc:
            raise OptimizationError(
                f"adjoint solve diverged for a candidate bundle: {exc}") from exc
        log.adjoint_solves += 1
        return grad

    def project_array(arr):
        return project_admissible(ControlBundle(arr, grid, radius)).cells

    j_cur, traj_cur = objective(x)
    log.cost_values.append(j_cur)
    prev_x = prev_grad = checked = None
    step = 1.0

    for _ in range(budget):
        grad = gradient(x, traj_cur)
        checked = x, traj_cur, grad
        mapped = x - project_array(x - grad)
        stationarity = float(np.linalg.norm(mapped))
        log.gradient_norms.append(stationarity)
        log.stationarity = stationarity
        if stationarity <= grad_tol:
            log.converged = True
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
            xn = project_array(x - gamma * grad)
            jn, traj_n = objective(xn, warm=traj_cur)
            decrease = _ARMIJO_SIGMA / gamma * float(np.sum((x - xn) ** 2))
            if jn <= j_cur - decrease:
                accepted = True
                break
            gamma *= 0.5
        if not accepted:
            # no admissible descent step left at this gradient resolution
            log.converged = stationarity <= grad_tol
            break
        prev_x, prev_grad = x, grad
        x, j_cur, traj_cur = xn, jn, traj_n
        log.cost_values.append(j_cur)

    else:
        log.budget_exhausted = True

    if checked is not None:
        log.gradient_check = _gradient_check(objective, *checked, fd_step, solve_tol)
    return ControlBundle(x, grid, radius), traj_cur, log


# Forward-solve tolerance of the gradient check.  Near a stationary point
# J moves by about |grad| * fd_step over the step, which a solve at the
# descent's own tolerance blurs; the check's reference has to be sharper
# than the gradient it checks.
_CHECK_TOL = 1e-12


def _gradient_check(objective, x, traj, grad, fd_step, solve_tol) -> dict:
    """Central difference of J along the normalised gradient against the
    adjoint directional derivative |grad|.  NaN where undefined: at
    grad = 0, or when a check solve does not converge."""
    adjoint = float(np.linalg.norm(grad))
    finite_difference = residual = math.nan
    if adjoint > 0.0:
        direction = grad / adjoint
        tol = min(solve_tol, _CHECK_TOL)
        try:
            j_plus, _ = objective(x + fd_step * direction, warm=traj, tol=tol)
            j_minus, _ = objective(x - fd_step * direction, warm=traj, tol=tol)
        except OptimizationError:
            pass
        else:
            finite_difference = (j_plus - j_minus) / (2.0 * fd_step)
            residual = abs(finite_difference - adjoint) / adjoint
    return {"fd_step": fd_step, "adjoint": adjoint,
            "finite_difference": finite_difference, "relative_residual": residual}


def random_admissible_bundle(grid: TimeGrid, k: int, control_modes: int,
                             rng: np.random.Generator, radius: float = 1.0,
                             fill: float | None = None) -> ControlBundle:
    """Uniform-direction sample rescaled to a uniform fraction of the ball."""
    x = rng.uniform(-1.0, 1.0, size=(k, grid.step_count, control_modes))
    bundle = ControlBundle(x, grid, radius)
    value = admissibility_value(bundle)
    target = (fill if fill is not None else rng.uniform(0.0, 1.0)) * radius
    if value > 0.0:
        bundle = bundle.scaled(target / value)
    return bundle


def hypothesis_check(problem: ProblemSpec) -> dict:
    """Exponent conditions plus sampled nonlinearity and nonlocal budgets.

    Reports alpha*q and p*alpha*(1-q) with pass/fail, the measured growth
    and Lipschitz quotients of the configured f over random fields, and
    the nonlocal map's Lipschitz/boundedness constants, each from 50
    seeded fields (the Lipschitz quotients over consecutive fields).
    """
    o = problem.order
    aq = o.alpha * o.q
    paq = o.p * o.alpha * (1.0 - o.q)
    report = {
        "alpha_q": {"value": aq, "passed": aq < 1.0},
        "p_alpha_one_minus_q": {"value": paq, "passed": paq > 1.0},
    }

    rng = np.random.default_rng(0)
    n = problem.mode_count
    weights = q_weights(n, o.q)

    def q_norms(rows):
        # one norm per row: a norm along an axis sums in another order
        return [float(np.linalg.norm(weights * row)) for row in rows]

    growth = 0.0
    lipschitz = 0.0
    fields = rng.standard_normal((_TRIALS, n))
    if problem.nonlinearity.kind != "zero":
        f = f_modes(problem, [0.0] * _TRIALS, fields)
        f_norms = [float(np.linalg.norm(row)) for row in f]
        # f reads one derivative of u, so its growth is measured against 1 + |u|_q
        growth = max(fn / (1.0 + un) for fn, un in zip(f_norms, q_norms(fields)))
        for df, du in zip(np.diff(f, axis=0), q_norms(np.diff(fields, axis=0))):
            if du > 0:
                lipschitz = max(lipschitz, float(np.linalg.norm(df)) / du)
        # the nonlocal bound samples fields that f has not seen
        fields = rng.standard_normal((_TRIALS, n))
    report["nonlinearity"] = {
        "kind": problem.nonlinearity.kind,
        "declared_a_f": problem.nonlinearity.a_f,
        "measured_growth": growth,
        "measured_lipschitz": lipschitz,
    }

    k1 = float(sum(c for c, _ in problem.nonlocal_terms))
    report["nonlocal"] = {
        "k1": k1,
        "k2": k1 * max(q_norms(fields)),
        "term_count": len(problem.nonlocal_terms),
    }
    # the quadratic running cost is coercive by construction; the lower-bound
    # constants are structural, not user data
    report["cost_structure"] = {"psi": 0.0, "d": 0.0, "form": "quadratic"}
    report["passed"] = report["alpha_q"]["passed"] and (
        problem.control_count == 0 or report["p_alpha_one_minus_q"]["passed"])
    return report
