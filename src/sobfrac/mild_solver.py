"""Fixed-point assembly and Picard solve of the mild-solution equation.

One application of the solution map evaluates, on every grid node,

    (Pu)(t) = S(t) [data smoothing] [v0 + t^(1-a)/Gamma(2-a) (u0 + h(u))]
              + int_0^t (t-s)^(a-1) T(t-s) [f(s, W(s)) + int_0^s controls] ds

with the weakly singular kernel integrated exactly per cell against the
left-endpoint piecewise-constant integrand, and h(u) the weighted sum of
trajectory values at the fixed nonlocal times.  Picard iteration runs
that map to a fixed point in the sup q-norm.  The adjoint solve runs the
transposed linearised map through the same loop; it gives the exact
gradient of a linear functional of the solution with respect to the
controls at the cost of one extra solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, EvaluationError, NonConvergenceError,
                     RejectedInstanceError)
from .fracops import TimeGrid
from .solution_ops import SolutionOperatorCache
from .specfun import FracOrder
from .spectral import (SpectralField, apply_Bi, default_collocation_size,
                       derivative_matrix, grid_to_field, projection_matrix)

_SQRT_PI = math.sqrt(math.pi)

# sweep budget of a forward or adjoint fixed-point solve
MAX_ITER = 80


@dataclass(frozen=True)
class Nonlinearity:
    """Descriptor of the state nonlinearity f(t, W) with declared budgets.

    Built-ins: "zero" and the bounded-Lipschitz family gain*sin(d_x u).
    A custom callable receives (t, [grids of the requested derivatives])
    and returns collocation values; its growth and Lipschitz budgets are
    declared here and spot-checked, not proven.
    """

    kind: str = "zero"
    gain: float = 0.0
    b_orders: tuple = (1,)
    growth_gain: float | None = None
    lipschitz_budget: float | None = None
    fn: object = None

    def __post_init__(self):
        if self.kind not in ("zero", "sin_gradient", "custom"):
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "custom" and self.fn is None:
            raise DomainError("custom nonlinearity requires fn")

    @property
    def a_f(self) -> float:
        if self.growth_gain is not None:
            return self.growth_gain
        # sup |sin| <= 1, so the L2[0, pi] norm is capped by gain*sqrt(pi)
        return abs(self.gain) * _SQRT_PI if self.kind == "sin_gradient" else 0.0


ZERO_NONLINEARITY = Nonlinearity("zero")


def sin_gradient(gain: float) -> Nonlinearity:
    return Nonlinearity("sin_gradient", gain=gain, b_orders=(1,))


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
    r_max: int = 2

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
        for i in self.nonlinearity.b_orders:
            if not 1 <= i <= self.r_max:
                raise DomainError(
                    f"derivative order {i} outside 1..r_max={self.r_max}")

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

    def field(self, m: int) -> SpectralField:
        return SpectralField(self.coeffs[m])

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


def data_smoothing_symbol(mode_count: int) -> np.ndarray:
    """Per-mode symbol of the L-after-M composition applied to the data.

    The inverse in the initial-data map must be the bounded compact
    smoothing operator (symbol -1/n^2); composing it with L gives
    -(1+n^2)/n^2, which keeps the nonlocal feedback a contraction.
    """
    n = np.arange(1, mode_count + 1, dtype=float)
    return -(1.0 + n * n) / (n * n)


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


def _f_on_grid(nl: Nonlinearity, ts, grids: list) -> np.ndarray:
    """Nonlinearity values at the collocation nodes, one row per time in ts.

    grids holds one (len(ts), n_x) array per derivative order in b_orders.
    """
    if nl.kind == "sin_gradient":
        values = nl.gain * np.sin(grids[0])
    else:
        values = np.array([nl.fn(t, [g[j] for g in grids]) for j, t in enumerate(ts)],
                          dtype=float)
    bad = ~np.all(np.isfinite(values), axis=1)
    if np.any(bad):
        raise EvaluationError(
            f"nonlinearity returned non-finite values at t={ts[int(np.argmax(bad))]}")
    return values


def eval_f(spec: ProblemSpec, t: float, u_field: SpectralField) -> SpectralField:
    """Evaluate the nonlinearity on the collocation grid, project back."""
    nl = spec.nonlinearity
    if nl.kind == "zero":
        return SpectralField.zero(spec.mode_count)
    grids = [apply_Bi(i, u_field, r_max=spec.r_max)[None, :] for i in nl.b_orders]
    return grid_to_field(_f_on_grid(nl, [t], grids)[0], spec.mode_count)


def nonlocal_bracket(spec: ProblemSpec, u_traj: Trajectory, t_node: int) -> SpectralField:
    """Bracketed data term at grid node t_node for the current iterate.

    The integrand u0 + h(u) does not depend on the integration variable,
    so the exact per-cell kernel integrals telescope to the closed form
    t^(1-a)/Gamma(2-a).
    """
    t = t_node * spec.grid.dt
    alpha = spec.order.alpha
    kappa = t ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    h = np.zeros(spec.mode_count)
    for c, idx, _ in snap_nonlocal_indices(spec):
        h += c * u_traj.coeffs[idx]
    return SpectralField(spec.v0.coeffs + kappa * (spec.u0.coeffs + h))


def _kernel_weights(alpha: float, step_count: int, dt: float) -> np.ndarray:
    d = np.arange(1, step_count + 1, dtype=float)
    return dt ** alpha * (d ** alpha - (d - 1.0) ** alpha) / alpha


def _control_forcing(spec: ProblemSpec, controls) -> np.ndarray:
    """Cumulative trapezoid of the summed injected controls, per node."""
    m1 = spec.step_count + 1
    out = np.zeros((m1, spec.mode_count))
    if controls is None or not controls.controls:
        return out
    dt = spec.grid.dt
    total = np.zeros((m1, spec.mode_count))
    for traj in controls.controls:
        nc = traj.mode_count
        if traj.grid.step_count != spec.step_count:
            raise DomainError("control grid does not match the problem grid")
        total[:, :nc] += traj.coeffs
    out[1:] = np.cumsum(0.5 * dt * (total[:-1] + total[1:]), axis=0)
    return out


def _control_forcing_adjoint(spec: ProblemSpec, grad_forcing: np.ndarray) -> np.ndarray:
    """Transpose of _control_forcing: gradient with respect to the summed
    control node values, given the gradient with respect to its output."""
    half_dt = 0.5 * spec.grid.dt
    # out[m] sums the trapezoid cells l < m, so cell l collects rows m > l
    cells = np.cumsum(grad_forcing[:0:-1], axis=0)[::-1]
    out = np.zeros_like(grad_forcing)
    out[:-1] += half_dt * cells
    out[1:] += half_dt * cells
    return out


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

    D[i] maps coefficients to the i-th derivative on the collocation grid
    (n_x x N), P maps collocation values back to coefficients (N x n_x);
    the forward sweep and its adjoint both go through them.
    """

    def __init__(self, spec: ProblemSpec, cache: SolutionOperatorCache):
        n_modes = spec.mode_count
        dt = spec.grid.dt
        alpha = spec.order.alpha
        ts = spec.grid.nodes()
        self.spec = spec
        self.ts = ts
        self.lm = data_smoothing_symbol(n_modes)
        self.kappa = ts ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        self.snaps = snap_nonlocal_indices(spec)
        self.s_rows = np.stack([cache.multiplier_rows(t)[0][:n_modes] for t in ts])
        self.s_lm = self.s_rows * self.lm[None, :]
        t_rows = np.stack([cache.multiplier_rows(d * dt)[1][:n_modes]
                           for d in range(1, spec.step_count + 1)])
        self.kernel = _kernel_weights(alpha, spec.step_count, dt)[:, None] * t_rows
        self.nfft = 2 * spec.step_count
        self.kernel_spectrum = np.fft.rfft(self.kernel, self.nfft, axis=0)
        n_x = default_collocation_size(n_modes)
        self.D = {i: derivative_matrix(i, n_modes, n_x)
                  for i in spec.nonlinearity.b_orders}
        self.P = projection_matrix(n_modes, n_x)
        nq = np.arange(1, n_modes + 1, dtype=float)
        lam = nq * nq / (1.0 + nq * nq)
        self.q_scale = lam ** spec.order.q

    def sweep(self, coeffs: np.ndarray, ctrl_forcing: np.ndarray) -> np.ndarray:
        spec = self.spec
        h = np.zeros(spec.mode_count)
        for c, idx, _ in self.snaps:
            h += c * coeffs[idx]
        bracket = spec.v0.coeffs[None, :] + self.kappa[:, None] * (spec.u0.coeffs + h)[None, :]
        out = self.s_lm * bracket
        # the last node's forcing never enters the convolution
        forcing = ctrl_forcing[:-1]
        nl = spec.nonlinearity
        if nl.kind != "zero":
            states = coeffs[:-1]
            grids = [states @ self.D[i].T for i in nl.b_orders]
            forcing = forcing + _f_on_grid(nl, self.ts[:-1], grids) @ self.P.T
        if np.any(forcing):
            out[1:] += fftconvolve(self.kernel_spectrum, forcing, self.nfft)
        return _finite(out)

    def slope(self, coeffs: np.ndarray) -> np.ndarray | None:
        """f' on the collocation grid at nodes 0..M-1 (None when f = 0)."""
        nl = self.spec.nonlinearity
        if nl.kind == "zero":
            return None
        if nl.kind != "sin_gradient":
            raise DomainError(
                f"{nl.kind} nonlinearity declares no derivative; the adjoint "
                "solve needs one")
        return nl.gain * np.cos(coeffs[:-1] @ self.D[nl.b_orders[0]].T)

    def adjoint_sweep(self, lam: np.ndarray, source: np.ndarray,
                      slope: np.ndarray | None) -> np.ndarray:
        """source plus the transposed linearised sweep applied to lam."""
        out = source.copy()
        if self.snaps:
            feedback = np.sum(self.s_lm * self.kappa[:, None] * lam, axis=0)
            for c, idx, _ in self.snaps:
                out[idx] += c * feedback
        if slope is not None:
            d = self.D[self.spec.nonlinearity.b_orders[0]]
            out[:-1] += ((self.correlate(lam) @ self.P) * slope) @ d
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
    """One application of the solution map to a trajectory iterate."""
    ws = _SweepWorkspace(spec, cache)
    return Trajectory(spec.grid, ws.sweep(u_traj.coeffs,
                                          _control_forcing(spec, controls)))


def initial_guess(spec: ProblemSpec, cache: SolutionOperatorCache) -> Trajectory:
    """Nodewise S(t) applied to the smoothed v0; exact when u0 = h = f = 0."""
    ws = _SweepWorkspace(spec, cache)
    return Trajectory(spec.grid, ws.initial())


def picard_solve(spec: ProblemSpec, cache: SolutionOperatorCache | None = None,
                 controls=None, tol: float = 1e-8, max_iter: int = MAX_ITER,
                 initial: Trajectory | None = None,
                 workspace: "_SweepWorkspace | None" = None) -> tuple[Trajectory, SolveReport]:
    """Iterate the solution map to a fixed point in the sup q-norm.

    Raises RejectedInstanceError when the exponent preconditions fail and
    NonConvergenceError (with the residual history) when the budget runs
    out, rather than returning a best-effort trajectory.
    """
    ok_aq, ok_paq = spec.exponents_ok()
    if not ok_aq:
        raise RejectedInstanceError(
            f"alpha*q = {spec.order.alpha * spec.order.q} must be < 1")
    has_controls = controls is not None and getattr(controls, "controls", ())
    if (spec.control_count > 0 or has_controls) and not ok_paq:
        raise RejectedInstanceError(
            f"p*alpha*(1-q) = {spec.order.p * spec.order.alpha * (1 - spec.order.q)} "
            "must exceed 1 for controlled instances")
    if has_controls and len(controls.controls) != spec.control_count:
        raise DomainError(
            f"bundle supplies {len(controls.controls)} controls, "
            f"spec declares {spec.control_count}")

    workspace = _workspace(spec, cache, workspace)
    report = SolveReport()
    report.snapped_nonlocal_times = list(workspace.snaps)
    ctrl_forcing = _control_forcing(spec, controls)
    current = _fixed_point(
        lambda c: workspace.sweep(c, ctrl_forcing),
        initial.coeffs if initial is not None else workspace.initial(),
        workspace.residual, report, "Picard iteration", tol, max_iter)
    return Trajectory(spec.grid, current), report


def adjoint_solve(spec: ProblemSpec, traj: Trajectory, weight: np.ndarray,
                  workspace: _SweepWorkspace, tol: float = 1e-8,
                  max_iter: int = MAX_ITER) -> np.ndarray:
    """Gradient of <weight, u> at the solution traj with respect to the
    summed control node values (the per-node sum of the bundle's control
    coefficients, zero-padded to N modes); shape (M+1, N).

    The adjoint state solves lam = weight + (linearised sweep)^T lam with
    the fixed-point loop, tolerance and sweep budget of picard_solve; it
    contracts at the same rate.  Raises DomainError for a nonlinearity
    without a declared derivative and NonConvergenceError like
    picard_solve.
    """
    slope = workspace.slope(traj.coeffs)
    lam = _fixed_point(lambda lam: workspace.adjoint_sweep(lam, weight, slope),
                       weight, workspace.residual, SolveReport(), "adjoint iteration",
                       tol, max_iter)
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


def _fixed_point(sweep, current, distance, report, what, tol, max_iter):
    """Iterate sweep until the step's distance is <= tol; fills report."""
    for it in range(1, max_iter + 1):
        new = sweep(current)
        residual = distance(new, current)
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
