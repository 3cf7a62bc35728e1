"""Fixed-point assembly and solve of the mild-solution equation.

The paper's solution map P evaluates, on every grid node,

    (Pu)(t) = S(t) [data smoothing] [v0 + t^(1-a)/Gamma(2-a) (u0 + h(u))]
              + int_0^t (t-s)^(a-1) T(t-s) [f(s, W(s)) + int_0^s controls] ds

with the weakly singular kernel integrated exactly per cell against the
left-endpoint piecewise-constant integrand, and h(u) the weighted sum of
trajectory values at the fixed nonlocal times.  Every operator is
diagonal per mode, so the trajectory depends on h only through the term
S(t) [smoothing] t^(1-a)/Gamma(2-a) h, and h solves one scalar equation
per mode.  The solver's sweep eliminates it in closed form: it builds
the response r without h, sets h_n = sum c r_n(t_eta) / d_n with
d_n = 1 - sum c (S [smoothing] kappa)_n(t_eta) >= 1, and adds the h term.
Fixed-point iteration of that sweep runs over f only, so a linear solve
is exact after one sweep and stops there; apply_P stays the plain map,
with h read from the iterate, as the oracle.  The adjoint solve runs the
transposed linearised sweep, with the transposed elimination, through
the same loop; it gives the exact gradient of a linear functional of the solution
with respect to the controls at the cost of one extra solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, EvaluationError, NonConvergenceError,
                     RejectedInstanceError)
from .fracops import TimeGrid, power_increments
from .solution_ops import SolutionOperatorCache
from .specfun import FracOrder
from .spectral import (SpectralField, data_smoothing_symbol,
                       default_collocation_size, derivative_matrix,
                       projection_matrix, q_weights)

_SQRT_PI = math.sqrt(math.pi)

# sweep budget of a forward or adjoint fixed-point solve
MAX_ITER = 80


@dataclass(frozen=True)
class Nonlinearity:
    """The state nonlinearity f(t, W) = gain sin(W), W = d_x u on the
    collocation grid, with slope gain cos(W): "zero" (f = 0) or the
    bounded-Lipschitz family "sin_gradient".
    """

    kind: str = "zero"
    gain: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "sin_gradient"):
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")
        if not math.isfinite(self.gain):
            raise DomainError(f"nonlinearity gain must be finite, got {self.gain}")

    @property
    def a_f(self) -> float:
        # sup |sin| <= 1, so the L2[0, pi] norm is capped by gain*sqrt(pi)
        return abs(self.gain) * _SQRT_PI if self.kind == "sin_gradient" else 0.0


ZERO_NONLINEARITY = Nonlinearity("zero")


def sin_gradient(gain: float) -> Nonlinearity:
    return Nonlinearity("sin_gradient", gain=gain)


@dataclass(frozen=True)
class ProblemSpec:
    """Full instance description of the evolution problem."""

    order: FracOrder
    horizon: float
    mode_count: int
    step_count: int
    u0: SpectralField
    v0: SpectralField
    nonlocal_terms: tuple = ()           # (c_eta, t_eta) pairs
    nonlinearity: Nonlinearity = ZERO_NONLINEARITY
    control_count: int = 0

    def __post_init__(self):
        if self.mode_count < 1:
            raise DomainError("mode_count must be >= 1")
        if self.u0.mode_count != self.mode_count or self.v0.mode_count != self.mode_count:
            raise DomainError("u0/v0 mode counts must match mode_count")
        if self.control_count < 0:
            raise DomainError("control_count must be >= 0")
        prev = 0.0
        for c, t_eta in self.nonlocal_terms:
            if not c > 0.0:
                raise DomainError(f"nonlocal weight must be positive, got {c}")
            if not prev < t_eta < self.horizon:
                raise DomainError(
                    f"nonlocal times must be increasing in (0, horizon), got {t_eta}")
            prev = t_eta

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.step_count)

    def exponents_ok(self) -> tuple[bool, bool]:
        o = self.order
        return (o.alpha * o.q < 1.0,
                o.p * o.alpha * (1.0 - o.q) > 1.0)


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed spectral fields on a uniform grid; coeffs is (M+1, N)."""

    grid: TimeGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2 or c.shape[0] != self.grid.step_count + 1:
            raise DomainError(
                f"coeffs must have shape (M+1, N), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise DomainError("trajectory coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def mode_count(self) -> int:
        return self.coeffs.shape[1]

    @staticmethod
    def zero(grid: TimeGrid, mode_count: int) -> "Trajectory":
        return Trajectory(grid, np.zeros((grid.step_count + 1, mode_count)))


@dataclass
class SolveReport:
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    converged: bool = False
    contraction_ratio: float = math.nan
    snapped_nonlocal_times: list = field(default_factory=list)
    nonlocal_denominator_min: float = 1.0


def snap_nonlocal_indices(spec: ProblemSpec) -> list:
    """Grid indices of the nonlocal times, snapped to the nearest node."""
    dt = spec.grid.dt
    out = []
    for c, t_eta in spec.nonlocal_terms:
        idx = int(round(t_eta / dt))
        snapped = idx * dt
        off = abs(snapped - t_eta)
        if off > 1e-12 * spec.horizon:
            warnings.warn(
                f"nonlocal time {t_eta} snapped to grid node {snapped}",
                stacklevel=2)
        out.append((c, idx, off))
    return out


def f_modes(spec: ProblemSpec, ts, coeffs: np.ndarray) -> np.ndarray:
    """Mode coefficients of f at each row of coeffs (the field at the
    matching time in ts), through the collocation grid; (len(ts), N).
    Each row gets its own matrix-vector products (a stacked matmul), so
    its bits do not depend on the rows that share the call."""
    nl = spec.nonlinearity
    n_modes = spec.mode_count
    if nl.kind == "zero":
        return np.zeros((len(ts), n_modes))
    n_x = default_collocation_size(n_modes)
    gradients = np.matmul(derivative_matrix(1, n_modes, n_x), coeffs[:, :, None])
    return np.matmul(projection_matrix(n_modes, n_x),
                     nl.gain * np.sin(gradients))[:, :, 0]


def eval_f(spec: ProblemSpec, t: float, u_field: SpectralField) -> SpectralField:
    """f's mode coefficients at one field: the one-row case of f_modes."""
    return SpectralField(f_modes(spec, [t], u_field.coeffs[None, :])[0])


def _control_forcing(spec: ProblemSpec, controls) -> np.ndarray:
    """Exact integral from 0 to each node of the summed piecewise-constant
    controls: node m collects the cells l < m."""
    out = np.zeros((spec.step_count + 1, spec.mode_count))
    if controls is None:
        return out
    nc = controls.cells.shape[2]
    if controls.grid != spec.grid:
        raise DomainError("control grid does not match the problem grid")
    if nc > spec.mode_count:
        raise DomainError(
            f"control has {nc} modes, the problem {spec.mode_count}")
    out[1:, :nc] = np.cumsum(spec.grid.dt * controls.cells.sum(axis=0), axis=0)
    return out


def _control_forcing_adjoint(spec: ProblemSpec, grad_forcing: np.ndarray) -> np.ndarray:
    """Transpose of _control_forcing: gradient with respect to the summed
    control cells, shape (M, N), given the gradient with respect to its
    output; cell l collects the rows m > l."""
    return spec.grid.dt * np.cumsum(grad_forcing[:0:-1], axis=0)[::-1]


def fftconvolve(kernel_spectrum: np.ndarray, signal: np.ndarray, n: int) -> np.ndarray:
    """First len(signal) rows of the causal convolution of a kernel with
    signal along axis 0, per column.

    kernel_spectrum is the kernel's length-n rFFT along axis 0; n is at
    least the kernel length plus len(signal) - 1, so the circular product
    does not wrap around.
    """
    rows = signal.shape[0]
    return np.fft.irfft(kernel_spectrum * np.fft.rfft(signal, n, axis=0),
                        n, axis=0)[:rows]


class _SweepWorkspace:
    """Grid-static arrays shared by every sweep of one solve context.

    D maps coefficients to the first derivative on the collocation grid
    (n_x x N), P maps collocation values back to coefficients (N x n_x);
    the forward sweep and its adjoint both go through them.
    """

    def __init__(self, spec: ProblemSpec, cache: SolutionOperatorCache):
        n_modes = spec.mode_count
        alpha = spec.order.alpha
        ts = spec.grid.nodes()
        self.spec = spec
        self.lm = data_smoothing_symbol(n_modes)
        self.kappa = ts ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        self.snaps = snap_nonlocal_indices(spec)
        # S rows at every node; the kernel's T rows at the lags d*dt, nodes 1..M
        s_table, t_table = cache.multiplier_table(ts)
        self.s_lm = s_table[:, :n_modes] * self.lm[None, :]
        # the data term without h, and the trajectory's response to h
        self.data = self.s_lm * (spec.v0.coeffs[None, :]
                                 + self.kappa[:, None] * spec.u0.coeffs[None, :])
        self.feedback = self.s_lm * self.kappa[:, None]
        # d_n = 1 - sum c (s_lm kappa)_n(t_eta).  ProblemSpec keeps c > 0,
        # the data-smoothing symbol is < 0, S >= 0 and kappa >= 0, so
        # d_n = 1 + sum c |s_lm kappa|_n(t_eta) >= 1: the division by it
        # needs no guard.
        self.denominator = 1.0 - self.nonlocal_sum(self.feedback)
        self.kernel = ((power_increments(spec.grid, alpha) / alpha)[:, None]
                       * t_table[1:, :n_modes])
        self.nfft = 2 * spec.step_count
        self.kernel_spectrum = np.fft.rfft(self.kernel, self.nfft, axis=0)
        n_x = default_collocation_size(n_modes)
        self.D = derivative_matrix(1, n_modes, n_x)
        self.P = projection_matrix(n_modes, n_x)
        self.q_scale = q_weights(n_modes, spec.order.q)

    def nonlocal_sum(self, coeffs: np.ndarray) -> np.ndarray:
        """h = sum c_eta coeffs(t_eta), per mode."""
        h = np.zeros(coeffs.shape[1])
        for c, idx, _ in self.snaps:
            h += c * coeffs[idx]
        return h

    def response(self, coeffs: np.ndarray, ctrl_forcing: np.ndarray) -> np.ndarray:
        """The solution map at coeffs without its h term: the data term
        S(t) [smoothing] (v0 + kappa u0) plus the kernel convolution of
        the forcing."""
        spec = self.spec
        out = self.data.copy()
        # the last node's forcing never enters the convolution
        forcing = ctrl_forcing[:-1]
        nl = spec.nonlinearity
        if nl.kind != "zero":
            # plain products, not f_modes' stacked ones: the trajectory
            # bytes depend on their rounding
            forcing = forcing + (nl.gain * np.sin(coeffs[:-1] @ self.D.T)) @ self.P.T
        if np.any(forcing):
            out[1:] += fftconvolve(self.kernel_spectrum, forcing, self.nfft)
        return out

    def sweep(self, coeffs: np.ndarray, ctrl_forcing: np.ndarray) -> np.ndarray:
        """The solution map at coeffs with h eliminated: the response r
        plus s_lm kappa h, where h = sum c r(t_eta) / d solves
        h = sum c (r + s_lm kappa h)(t_eta) mode by mode."""
        out = self.response(coeffs, ctrl_forcing)
        if self.snaps:
            out += self.feedback * (self.nonlocal_sum(out) / self.denominator)
        return _finite(out)

    def slope(self, coeffs: np.ndarray) -> np.ndarray | None:
        """f' on the collocation grid at nodes 0..M-1 (None when f = 0)."""
        nl = self.spec.nonlinearity
        if nl.kind == "zero":
            return None
        return nl.gain * np.cos(coeffs[:-1] @ self.D.T)

    def adjoint_sweep(self, lam: np.ndarray, source: np.ndarray,
                      slope: np.ndarray | None) -> np.ndarray:
        """source plus the transposed linearised response applied to lam,
        then the h elimination transposed: g = sum_t s_lm kappa out / d,
        added at each nonlocal node with its weight c."""
        out = source.copy()
        if slope is not None:
            out[:-1] += ((self.correlate(lam) @ self.P) * slope) @ self.D
        if self.snaps:
            g = np.sum(self.feedback * out, axis=0) / self.denominator
            for c, idx, _ in self.snaps:
                out[idx] += c * g
        return _finite(out)

    def correlate(self, lam: np.ndarray) -> np.ndarray:
        """Transpose of the sweep's convolution: forcing rows 0..M-1 from
        trajectory rows 0..M (anti-causal, through the same spectrum)."""
        return fftconvolve(self.kernel_spectrum, lam[:0:-1], self.nfft)[::-1]

    def initial(self) -> np.ndarray:
        return self.s_lm * self.spec.v0.coeffs[None, :]

    def residual(self, new: np.ndarray, old: np.ndarray) -> float:
        return float(np.max(np.linalg.norm((new - old) * self.q_scale[None, :],
                                           axis=1)))


def _finite(out: np.ndarray) -> np.ndarray:
    bad = ~np.all(np.isfinite(out), axis=1)
    if np.any(bad):
        raise EvaluationError(f"non-finite trajectory value at node {int(np.argmax(bad))}")
    return out


def apply_P(spec: ProblemSpec, cache: SolutionOperatorCache, u_traj: Trajectory,
            controls=None) -> Trajectory:
    """One application of the paper's solution map to a trajectory
    iterate, with h read from the iterate (the solver's sweep eliminates
    it instead)."""
    ws = _workspace(spec, cache, None)
    coeffs = u_traj.coeffs
    out = ws.response(coeffs, _control_forcing(spec, controls))
    out += ws.feedback * ws.nonlocal_sum(coeffs)
    return Trajectory(spec.grid, _finite(out))


def picard_solve(spec: ProblemSpec, cache: SolutionOperatorCache | None = None,
                 controls=None, tol: float = 1e-8, max_iter: int = MAX_ITER,
                 initial: Trajectory | None = None,
                 workspace: "_SweepWorkspace | None" = None) -> tuple[Trajectory, SolveReport]:
    """Iterate the sweep (the solution map with h eliminated) to a fixed
    point in the sup q-norm.  Only f feeds back, so an instance with
    f = 0 is exact after one sweep and stops there, with a recorded step
    of exactly 0; the report's contraction_ratio measures the f-loop
    alone, and nonlocal_denominator_min is the smallest d_n (1.0 without
    nonlocal terms).

    Raises RejectedInstanceError when the exponent preconditions fail and
    NonConvergenceError (with the residual history) when the budget runs
    out, rather than returning a best-effort trajectory.
    """
    ok_aq, ok_paq = spec.exponents_ok()
    if not ok_aq:
        raise RejectedInstanceError(
            f"alpha*q = {spec.order.alpha * spec.order.q} must be < 1")
    k = 0 if controls is None else len(controls.cells)
    if (spec.control_count > 0 or k) and not ok_paq:
        raise RejectedInstanceError(
            f"p*alpha*(1-q) = {spec.order.p * spec.order.alpha * (1 - spec.order.q)} "
            "must exceed 1 for controlled instances")
    if k and k != spec.control_count:
        raise DomainError(f"bundle supplies {k} controls, "
                          f"spec declares {spec.control_count}")

    workspace = _workspace(spec, cache, workspace)
    report = SolveReport()
    report.snapped_nonlocal_times = list(workspace.snaps)
    report.nonlocal_denominator_min = float(np.min(workspace.denominator))
    ctrl_forcing = _control_forcing(spec, controls)
    current = _fixed_point(
        lambda c: workspace.sweep(c, ctrl_forcing),
        initial.coeffs if initial is not None else workspace.initial(),
        workspace.residual, report, "Picard iteration", tol, max_iter,
        constant=spec.nonlinearity.kind == "zero")
    return Trajectory(spec.grid, current), report


def adjoint_solve(spec: ProblemSpec, traj: Trajectory, weight: np.ndarray,
                  workspace: _SweepWorkspace, tol: float = 1e-8,
                  max_iter: int = MAX_ITER) -> np.ndarray:
    """Gradient of <weight, u> at the solution traj with respect to the
    summed control cells (the per-cell sum of the bundle's cells,
    zero-padded to N modes); shape (M, N).

    The adjoint state solves lam = E^T (weight + J^T lam), where J is the
    linearised response and E the h elimination, with the fixed-point
    loop, tolerance and sweep budget of picard_solve; like it, the loop
    runs over f only (f = 0 takes one sweep) and contracts at the rate of
    the forward f-loop.  Raises NonConvergenceError like picard_solve.
    """
    slope = workspace.slope(traj.coeffs)
    lam = _fixed_point(lambda lam: workspace.adjoint_sweep(lam, weight, slope),
                       weight, workspace.residual, SolveReport(), "adjoint iteration",
                       tol, max_iter, constant=slope is None)
    grad_forcing = np.zeros_like(lam)
    grad_forcing[:-1] = workspace.correlate(lam)
    return _control_forcing_adjoint(spec, grad_forcing)


def _workspace(spec, cache, workspace) -> _SweepWorkspace:
    if workspace is not None:
        return workspace
    if cache is None:
        cache = SolutionOperatorCache(spec.order, spec.mode_count)
    if cache.mode_count < spec.mode_count:
        raise DomainError("cache has fewer modes than the problem")
    return _SweepWorkspace(spec, cache)


def _fixed_point(sweep, current, distance, report, what, tol, max_iter,
                 constant=False):
    """Iterate sweep until the step's distance is <= tol; fills report.
    A constant sweep (one that ignores its input, as with f = 0) is at its
    fixed point after one call: the next step would be exactly 0, so that
    step is recorded without running it."""
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    for it in range(1, max_iter + 1):
        new = sweep(current)
        residual = 0.0 if constant else distance(new, current)
        report.residual_history.append(residual)
        report.iterations = it
        current = new
        if residual <= tol:
            report.converged = True
            break

    if not report.converged:
        raise NonConvergenceError(
            f"{what} did not reach tol={tol} in {max_iter} sweeps "
            f"(last residual {report.residual_history[-1]:.3e})",
            residual_history=report.residual_history)

    hist = report.residual_history
    if len(hist) >= 2 and hist[-2] > 0.0:
        report.contraction_ratio = hist[-1] / hist[-2]
    else:
        report.contraction_ratio = 0.0
    return current
