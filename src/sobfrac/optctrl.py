"""Lagrange optimal multi-integral control over the admissible ball.

Controls are piecewise constant in time on the solver grid with a small
number of spatial modes.  The optimizer is projected gradient descent
with exact adjoint-state gradients of the discrete cost (one adjoint
solve each) and Armijo backtracking; after every step the Euclidean
projection onto the integral-norm ball restores admissibility, so the
stationarity measure x - P(x - grad) is a first-order optimality test
whether or not the ball binds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, NonConvergenceError, OptimizationError,
                     RejectedInstanceError, frozen_array)
from .fracops import TimeGrid
from .mild_solver import (MAX_ITER, ProblemSpec, Trajectory, _adjoint, _cell_forcing,
                          _control_forcing, _forward, _SweepWorkspace, _workspace)

# sufficient-decrease constant of the Armijo test
_ARMIJO_SIGMA = 1e-4


@dataclass(frozen=True, eq=False)
class ControlBundle:
    """k piecewise-constant-in-time spectral controls plus the ball radius.

    cells has shape (k, M, modes): cells[j, m] is control j on the cell
    [t_m, t_{m+1}) of grid.
    """

    cells: np.ndarray
    grid: TimeGrid
    radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "cells", frozen_array(
            self.cells, ("k", self.grid.step_count, "modes"), "control cells"))
        if not self.radius > 0.0:
            raise DomainError(f"radius must be positive, got {self.radius}")

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


def _cell_weights(cells: np.ndarray, dt: float) -> np.ndarray:
    """a_jc = dt ||x_jc|| of every cell, in one reduction over all controls."""
    return dt * np.sqrt(np.add.reduce(cells * cells, axis=2))


def admissibility_value(bundle: ControlBundle) -> float:
    """sum_j int_0^a ||u_j(s)|| ds, exact for piecewise-constant controls:
    the sum of the cell weights."""
    return float(_cell_weights(bundle.cells, bundle.grid.dt).sum())


def _project(cells: np.ndarray, dt: float, radius: float) -> np.ndarray:
    """The Euclidean projection of cells (k, M, modes) onto the ball
    {y : sum_j sum_c dt ||y_jc|| <= radius}: cells itself when admissible.

    With a_c = dt ||x_c|| per cell, every a_c is soft-thresholded by one
    theta >= 0 with sum_c max(0, a_c - theta) = radius, found from a sort
    (the l1-ball projection of Duchi, Shalev-Shwartz, Singer and Chandra,
    ICML 2008), and cell c is scaled by max(0, 1 - theta / a_c).
    """
    a = _cell_weights(cells, dt)
    if a.sum() <= radius:
        return cells
    desc = np.sort(a, axis=None)[::-1]
    thetas = (np.cumsum(desc) - radius) / np.arange(1, desc.size + 1)
    theta = thetas[np.flatnonzero(desc > thetas)[-1]]
    with np.errstate(divide="ignore"):
        scale = np.maximum(1.0 - theta / a, 0.0)
    return cells * scale[:, :, None]


@dataclass(frozen=True)
class CostSpec:
    """Weights of the quadratic running cost."""

    state_weight: float = 1.0
    control_weight: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.state_weight) and math.isfinite(self.control_weight)):
            raise DomainError("cost weights must be finite")
        if self.state_weight < 0.0 or self.control_weight < 0.0:
            raise DomainError("cost weights must be nonnegative")
        if self.state_weight == 0.0 and self.control_weight == 0.0:
            raise DomainError("cost weights must not both vanish")


def cost_J(traj: Trajectory, controls: ControlBundle, spec: CostSpec) -> float:
    """int_0^a [ sw ||u(t)||^2 + cw int_0^t sum_j ||u_j(s)||^2 ds ] dt,
    through _cost; DomainError unless traj and controls share a grid."""
    if controls.grid != traj.grid:
        raise DomainError("cost requires trajectory and controls on one grid")
    return _cost(traj.coeffs, controls.cells, traj.grid.dt, spec)


def _cost(u: np.ndarray, cells: np.ndarray, dt: float, spec: CostSpec) -> float:
    """cost_J on arrays: coefficients u (M+1, N) and cells (k, M, modes).

    The inner integral of the piecewise-constant controls accumulates
    exactly, in one reduction over all controls; the outer integral uses
    the trapezoid rule.
    """
    state = (u * u).sum(axis=1)
    inner = np.zeros(len(u))
    inner[1:] = (cells * cells).sum(axis=(0, 2)).cumsum() * dt
    y = spec.state_weight * state + spec.control_weight * inner
    # np.trapezoid(y, dx=dt), without its argument handling
    return float((dt * (y[1:] + y[:-1]) / 2.0).sum())


def _gradient_rows(cost: CostSpec, grid: TimeGrid) -> tuple:
    """The weights _adjoint_gradient scales by: 2 sw times the outer
    trapezoid's node weights, (M+1, 1), and 2 cw dt^2 times each cell's
    count of later nodes, (M, 1)."""
    dt, m = grid.dt, grid.step_count
    trapezoid = np.full(m + 1, dt)
    trapezoid[0] = trapezoid[-1] = 0.5 * dt
    later = (m - 0.5 - np.arange(m))[:, None]
    return (2.0 * cost.state_weight * trapezoid[:, None],
            2.0 * cost.control_weight * dt * dt * later)


def _adjoint_gradient(rows: tuple, x: np.ndarray, coeffs: np.ndarray,
                      workspace: _SweepWorkspace, tol: float, max_iter: int) -> np.ndarray:
    """Exact gradient of x -> J(u*(x), x) over cell values x of shape
    (k, M, modes), given the workspace problem's solved coefficients
    coeffs = u*(x) and cost's _gradient_rows.

    One adjoint solve gives the state term; every control sees the same
    state term because the controls enter only through their sum.  The
    control term is explicit: cell l is counted by the outer trapezoid at
    the M - 1 - l interior nodes after it and half the final node.
    """
    state_rows, control_rows = rows
    grad_total = _adjoint(workspace, coeffs, state_rows * coeffs, tol, max_iter)
    return grad_total[None, :, :x.shape[2]] + control_rows * x


@dataclass
class DescentLog:
    """Per-accepted-iteration record of the projected-gradient run.

    inner_solves counts forward solves, adjoint_solves the gradients.
    stop_reason says why the descent stopped: "converged" (stationarity
    <= grad_tol), "budget" (budget iterations taken) or "no descent
    step" (no Armijo trial step decreased J).  gradient_check compares
    the final adjoint gradient's directional derivative with a central
    difference of step fd_step along it.
    """

    cost_values: list = field(default_factory=list)
    gradient_norms: list = field(default_factory=list)
    stationarity: float = math.nan
    converged: bool = False
    stop_reason: str = ""
    inner_solves: int = 0
    adjoint_solves: int = 0
    gradient_check: dict = field(default_factory=dict)


def optimize_controls(problem: ProblemSpec, cost: CostSpec, init: ControlBundle,
                      budget: int = 60, grad_tol: float = 1e-4,
                      fd_step: float = 1e-4, solve_tol: float = 1e-9,
                      workspace: _SweepWorkspace | None = None,
                      max_iter: int = MAX_ITER):
    """Projected-gradient descent on the control coefficients.

    Gradients come from _adjoint_gradient (one adjoint solve each).  Each
    iteration takes a Barzilai-Borwein trial step, halves it under the
    Armijo test, and projects back onto the admissible ball, so accepted
    cost values never increase.  After the descent, one central
    difference of step fd_step along the last gradient (two solves)
    checks it.  Every forward and adjoint solve runs in workspace (one
    built for problem, else DomainError; None builds one) and stops after
    max_iter sweeps, and every forward solve starts from the data term, so
    each cost is a function of the cells alone.  Returns (bundle,
    trajectory, DescentLog), the log's stop_reason saying why it stopped;
    unless it is "converged", the return is the best point so far.
    Before any solve, budget < 1, a NaN or negative grad_tol, or an
    fd_step that is not positive and finite raises DomainError, and a
    failed exponent hypothesis raises picard_solve's RejectedInstanceError.

    The problem, the workspace and init are checked once, as picard_solve
    checks them; the descent then runs on the cells and the trajectory
    coefficients, through the array cores of picard_solve and cost_J, the
    gradient _adjoint_gradient and the projection _project, and builds
    its two records at return.  A trial point that is not finite raises the DomainError
    of a bundle holding it.
    """
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    if not grad_tol >= 0.0:
        raise DomainError(f"grad_tol must be >= 0, got {grad_tol}")
    if not (math.isfinite(fd_step) and fd_step > 0.0):
        raise DomainError(f"fd_step must be positive and finite, got {fd_step}")
    defect = problem.exponent_defect()
    if defect:
        raise RejectedInstanceError(defect)
    workspace = _workspace(problem, None, workspace)
    _control_forcing(problem, init)  # refuses init as picard_solve would
    grid, radius = init.grid, init.radius
    dt, mode_count = grid.dt, problem.mode_count
    rows = _gradient_rows(cost, grid)
    log = DescentLog()

    def objective(arr, tol=solve_tol):
        try:
            coeffs, _ = _forward(workspace, _cell_forcing(arr, dt, mode_count), tol, max_iter)
        except NonConvergenceError as exc:
            raise OptimizationError(
                f"inner solve diverged for a candidate bundle: {exc}") from exc
        log.inner_solves += 1
        return _cost(coeffs, arr, dt, cost), coeffs

    def gradient(arr, coeffs):
        try:
            grad = _adjoint_gradient(rows, arr, coeffs, workspace, solve_tol, max_iter)
        except NonConvergenceError as exc:
            raise OptimizationError(
                f"adjoint solve diverged for a candidate bundle: {exc}") from exc
        log.adjoint_solves += 1
        return grad

    def project(arr):
        return _project(_finite_cells(arr), dt, radius)

    # the current point: its cells, which are init's own while init is admissible
    x = _project(init.cells, dt, radius)
    j_cur, u_cur = objective(x)
    log.cost_values.append(j_cur)
    prev_x = prev_grad = checked = None
    step = 1.0

    for _ in range(budget):
        grad = gradient(x, u_cur)
        checked = x, grad
        mapped = x - project(x - grad)
        stationarity = float(np.linalg.norm(mapped))
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
            candidate = project(x - gamma * grad)
            jn, u_n = objective(candidate)
            decrease = _ARMIJO_SIGMA / gamma * float(((x - candidate) ** 2).sum())
            if jn <= j_cur - decrease:
                accepted = True
                break
            gamma *= 0.5
        if not accepted:
            # no admissible descent step left at this gradient resolution
            log.stop_reason = "no descent step"
            break
        prev_x, prev_grad = x, grad
        x, j_cur, u_cur = candidate, jn, u_n
        log.cost_values.append(j_cur)

    else:
        log.stop_reason = "budget"

    if checked is not None:
        log.gradient_check = _gradient_check(objective, *checked, fd_step, solve_tol)
    bundle = init if x is init.cells else ControlBundle(x, grid, radius)
    return bundle, Trajectory(grid, u_cur), log


def _finite_cells(arr: np.ndarray) -> np.ndarray:
    """arr, or the DomainError of a ControlBundle holding a non-finite cell."""
    if not np.isfinite(arr).all():
        raise DomainError("control cells must be finite")
    return arr


# Forward-solve tolerance of the gradient check.  Near a stationary point
# J moves by about |grad| * fd_step over the step, which a solve at the
# descent's own tolerance blurs; the check's reference has to be sharper
# than the gradient it checks.
_CHECK_TOL = 1e-12


def _gradient_check(objective, x, grad, fd_step, solve_tol) -> dict:
    """Central difference of J along the normalised gradient against the
    adjoint directional derivative |grad|, at cells x.  NaN where
    undefined: at grad = 0, or when a check solve does not converge."""
    adjoint = float(np.linalg.norm(grad))
    finite_difference = residual = math.nan
    if adjoint > 0.0:
        direction = grad / adjoint
        tol = min(solve_tol, _CHECK_TOL)
        try:
            j_plus, _ = objective(_finite_cells(x + fd_step * direction), tol=tol)
            j_minus, _ = objective(_finite_cells(x - fd_step * direction), tol=tol)
        except OptimizationError:
            pass
        else:
            finite_difference = (j_plus - j_minus) / (2.0 * fd_step)
            residual = abs(finite_difference - adjoint) / adjoint
    return {"fd_step": fd_step, "adjoint": adjoint,
            "finite_difference": finite_difference, "relative_residual": residual}


def random_admissible_bundle(grid: TimeGrid, k: int, control_modes: int,
                             rng: np.random.Generator,
                             radius: float = 1.0) -> ControlBundle:
    """Cells drawn uniformly from [-1, 1], rescaled so that the
    admissibility value is a fraction of radius drawn uniformly from [0, 1)."""
    x = rng.uniform(-1.0, 1.0, size=(k, grid.step_count, control_modes))
    bundle = ControlBundle(x, grid, radius)
    value = admissibility_value(bundle)
    target = rng.uniform(0.0, 1.0) * radius
    if value > 0.0:
        bundle = bundle.scaled(target / value)
    return bundle


def hypothesis_check(problem: ProblemSpec) -> dict:
    """Exponent conditions plus the certified nonlinearity and nonlocal
    constants, all in closed form.

    Reports alpha*q and p*alpha*(1-q) with pass/fail; the growth bound
    a_f and the Lipschitz bound of f in the q-norm (see Nonlinearity);
    and k1 = sum c of the nonlocal map h(u) = sum c u(t_eta).  h is
    linear, so ||h(u)||_q <= k1 sup_t ||u(t)||_q and no bound holds on
    the whole space: on the ball of radius r the bound is k1 r.
    """
    aq, paq = problem.exponents()
    nl = problem.nonlinearity
    return {
        "alpha_q": {"value": aq, "passed": aq < 1.0},
        "p_alpha_one_minus_q": {"value": paq, "passed": paq > 1.0},
        "nonlinearity": {
            "kind": "zero" if nl.gain == 0.0 else "sin_gradient",
            "declared_a_f": nl.a_f,
            "lipschitz_bound": nl.lipschitz_bound(problem.mode_count,
                                                  problem.order.q),
        },
        "nonlocal": {
            "k1": float(sum(c for c, _ in problem.nonlocal_terms)),
            "term_count": len(problem.nonlocal_terms),
        },
        # the quadratic running cost is coercive by construction; the
        # lower-bound constants are structural, not user data
        "cost_structure": {"psi": 0.0, "d": 0.0, "form": "quadratic"},
        "passed": problem.exponent_defect() is None,
    }
