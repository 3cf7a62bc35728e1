"""Fixed-point assembly and solve of the mild-solution equation.

The paper's solution map P evaluates, on every grid node,

    (Pu)(t) = S(t) [data smoothing] [v0 + t^(1-a)/Gamma(2-a) (u0 + h(u))]
              + int_0^t (t-s)^(a-1) T(t-s) [f(s, W(s)) + int_0^s controls] ds

with the weakly singular kernel integrated exactly per cell against the
left-endpoint piecewise-constant integrand: over the lag cell
[(d-1) dt, d dt] its integral is (S((d-1) dt) - S(d dt)) / lambda_n, so
the one S table gives both terms.  h(u) is the weighted sum of
trajectory values at the fixed nonlocal times, which
nonlocal_node_weights places on the grid once.  Every operator is
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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, EvaluationError, NonConvergenceError,
                     RejectedInstanceError, frozen_array)
from .fracops import FracOrder, TimeGrid
from .solution_ops import _DEFAULT_NODES, SolutionOperatorCache
from .spectral import collocation_maps, data_smoothing_symbol, generator_symbol, q_weights

_SQRT_PI = math.sqrt(math.pi)

# sweep budget of a forward or adjoint fixed-point solve
MAX_ITER = 80


@dataclass(frozen=True)
class Nonlinearity:
    """The state nonlinearity f(t, W) = gain sin(W), W = d_x u on the
    collocation grid, with slope gain cos(W); gain = 0 is f = 0.

    Its hypothesis constants are certified in closed form from three
    facts about the N-mode discrete sine transform on the 4N interior
    nodes, K = 4N + 1, with f(u) = P (gain sin(D u)):
    - P P^T = (pi/K) I, so ||P||_2 = sqrt(pi/K);
    - D^T D = (2/pi) diag(n) ((K/2) I - E) diag(n), with E the all-ones
      block on each parity class of n, which is positive semidefinite;
      so D^T D <= (K/pi) diag(n^2);
    - |sin a - sin b| <= |a - b| and |sin a| <= 1.
    """

    gain: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.gain):
            raise DomainError(f"nonlinearity gain must be finite, got {self.gain}")

    @property
    def a_f(self) -> float:
        """Growth bound: ||f(u)|| <= sqrt(pi/K) |gain| sqrt(4N)
        < |gain| sqrt(pi), whatever u."""
        return abs(self.gain) * _SQRT_PI

    def lipschitz_bound(self, mode_count: int, q: float) -> float:
        """L with ||f(u) - f(v)|| <= L ||u - v||_q on mode_count modes:
        |gain| max_n n / lambda_n^q = |gain| N (1 + 1/N^2)^q, since
        n / lambda_n^q = n^(1-2q) (1 + n^2)^q grows with n for q < 1."""
        return abs(self.gain) * mode_count * (1.0 + 1.0 / mode_count ** 2) ** q


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Full instance description of the evolution problem.

    u0 and v0 are the initial fields' sine coefficients, each held as a
    read-only float copy of shape (mode_count,); another length or a
    non-finite entry raises DomainError.  A problem compares and hashes
    by identity, as every record holding an array does.
    """

    order: FracOrder
    horizon: float
    mode_count: int
    step_count: int
    u0: np.ndarray
    v0: np.ndarray
    nonlocal_terms: tuple = ()           # (c_eta, t_eta) pairs
    nonlinearity: Nonlinearity = Nonlinearity()
    control_count: int = 0

    def __post_init__(self):
        TimeGrid(self.horizon, self.step_count)  # refuses horizon <= 0, step_count < 2
        if self.mode_count < 1:
            raise DomainError("mode_count must be >= 1")
        for name in ("u0", "v0"):
            object.__setattr__(self, name, frozen_array(
                getattr(self, name), (self.mode_count,), name))
        if self.control_count < 0:
            raise DomainError("control_count must be >= 0")
        prev = 0.0
        for c, t_eta in self.nonlocal_terms:
            if not c > 0.0:
                raise DomainError(f"nonlocal weight must be positive, got {c}")
            if not math.isfinite(c):
                raise DomainError(f"nonlocal weight must be finite, got {c}")
            if not prev < t_eta < self.horizon:
                raise DomainError(
                    f"nonlocal times must be increasing in (0, horizon), got {t_eta}")
            prev = t_eta

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.step_count)

    def exponents(self) -> tuple[float, float]:
        """The paper's exponents alpha*q and p*alpha*(1-q)."""
        o = self.order
        return o.alpha * o.q, o.p * o.alpha * (1.0 - o.q)

    def exponent_defect(self) -> str | None:
        """Why the paper's exponent hypothesis fails for this problem, or
        None when it holds.  alpha*q < 1 holds on FracOrder's domain;
        p*alpha*(1-q) must exceed 1 once controls are declared."""
        paq = self.exponents()[1]
        if self.control_count > 0 and not paq > 1.0:
            return f"p*alpha*(1-q) = {paq} must exceed 1 for controlled instances"
        return None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed spectral fields on a uniform grid; coeffs is (M+1, N)."""

    grid: TimeGrid
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", frozen_array(
            self.coeffs, (self.grid.step_count + 1, "N"), "trajectory coefficients"))


@dataclass
class SolveReport:
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    converged: bool = False
    contraction_ratio: float = math.nan
    nonlocal_node_weights: list = field(default_factory=list)   # [node, weight] pairs
    nonlocal_denominator_min: float = 1.0


def nonlocal_node_weights(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of h(u) = sum weights u(nodes), in term order: c
    on the node within 1e-12 horizon of t_eta, else linear interpolation,
    c (1 - theta) on node i and c theta on node i + 1, theta = t_eta/dt - i
    (t_eta < horizon keeps i + 1 on the grid)."""
    dt, placed = spec.grid.dt, []
    for c, t_eta in spec.nonlocal_terms:
        i = round(t_eta / dt)
        if abs(i * dt - t_eta) <= 1e-12 * spec.horizon:
            placed.append((i, c))
        else:
            i = math.floor(t_eta / dt)
            theta = t_eta / dt - i
            placed += [(i, c * (1.0 - theta)), (i + 1, c * theta)]
    return (np.array([i for i, _ in placed], dtype=np.intp),
            np.array([w for _, w in placed], dtype=float))


def eval_f(spec: ProblemSpec, t: float, u: np.ndarray) -> np.ndarray:
    """f's mode coefficients at the field with coefficients u, P (gain
    sin(D u)) through the collocation grid; f is autonomous, so t is not
    read."""
    nl = spec.nonlinearity
    n_modes = spec.mode_count
    if nl.gain == 0.0:
        return np.zeros(n_modes)
    _, d1, p = collocation_maps(n_modes)
    return p @ (nl.gain * np.sin(d1 @ u))


def _control_forcing(spec: ProblemSpec, controls) -> np.ndarray:
    """Exact integral from 0 to each node of the summed piecewise-constant
    controls (zero for None), through _cell_forcing.  The solver's one
    reader of a bundle: DomainError unless it has spec's control count,
    grid and at most its modes."""
    if controls is None:
        return np.zeros((spec.step_count + 1, spec.mode_count))
    cells, grid = controls.cells, spec.grid
    k, _, nc = cells.shape
    if k != spec.control_count:
        raise DomainError(f"bundle supplies {k} controls, "
                          f"spec declares {spec.control_count}")
    if controls.grid != grid:
        raise DomainError("control grid does not match the problem grid")
    if nc > spec.mode_count:
        raise DomainError(
            f"control has {nc} modes, the problem {spec.mode_count}")
    return _cell_forcing(cells, grid.dt, spec.mode_count)


def _cell_forcing(cells: np.ndarray, dt: float, mode_count: int) -> np.ndarray:
    """_control_forcing of checked cells (k, M, at most mode_count modes)
    on a grid of step dt: node m collects the cells l < m."""
    out = np.zeros((cells.shape[1] + 1, mode_count))
    out[1:, :cells.shape[2]] = (dt * cells.sum(axis=0)).cumsum(axis=0)
    return out


def _control_forcing_adjoint(dt: float, grad_forcing: np.ndarray) -> np.ndarray:
    """Transpose of _cell_forcing on a grid of step dt: gradient with
    respect to the summed control cells, shape (M, N), given the gradient
    with respect to its output; cell l collects the rows m > l."""
    return dt * grad_forcing[:0:-1].cumsum(axis=0)[::-1]


def _trajectory_coeffs(spec: ProblemSpec, traj: Trajectory) -> np.ndarray:
    """The solver's one reader of a trajectory handed in: its coefficients,
    or DomainError unless it has spec's grid and modes."""
    if traj.grid != spec.grid or traj.coeffs.shape[1] != spec.mode_count:
        raise DomainError("trajectory does not match the problem's grid and modes")
    return traj.coeffs


def fftconvolve(kernel_spectrum: np.ndarray, signal: np.ndarray,
                spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """First len(signal) rows of the causal convolution of a kernel with
    signal along axis 0, per column, as a view of out.

    kernel_spectrum is the kernel's length-n rFFT along axis 0, with n =
    len(out) at least the kernel length plus len(signal) - 1, so the
    circular product does not wrap around; spectrum (n // 2 + 1 rows,
    complex) and out are overwritten.
    """
    n = out.shape[0]
    np.fft.rfft(signal, n, axis=0, out=spectrum)
    np.multiply(kernel_spectrum, spectrum, out=spectrum)
    return np.fft.irfft(spectrum, n, axis=0, out=out)[:signal.shape[0]]


class _Kernel:
    """The time kernel (t-s)^(alpha-1) T(t-s), integrated exactly per
    cell: its causal convolution and the transpose.  The spectrum is the
    grid-static memo's, shared and read-only; the FFT buffers are the
    kernel's own, and both methods return a view of their output, valid
    until the next call, so one kernel serves one solve at a time."""

    def __init__(self, spectrum: np.ndarray):
        self.spectrum = spectrum
        self.product = np.empty(spectrum.shape, dtype=complex)
        self.out = np.empty((2 * (spectrum.shape[0] - 1), spectrum.shape[1]))

    def apply(self, forcing: np.ndarray) -> np.ndarray:
        """Trajectory rows 1..M from forcing rows 0..M-1."""
        return fftconvolve(self.spectrum, forcing, self.product, self.out)

    def apply_T(self, lam: np.ndarray) -> np.ndarray:
        """Transpose of apply: forcing rows 0..M-1 from trajectory rows
        0..M, anti-causal, through the same spectrum."""
        return fftconvolve(self.spectrum, lam[:0:-1], self.product, self.out)[::-1]


# discretisations whose grid-static sweep state one process keeps
GRID_STATIC_MEMO = 8


@functools.lru_cache(maxsize=GRID_STATIC_MEMO)
def _grid_static(alpha: float, mode_count: int, grid: TimeGrid, node_count: int) -> tuple:
    """The sweep state that reads only the discretisation, read-only:
    (kappa, s_lm, feedback, kernel spectrum).

    The key is what the state reads, so not q, which only the
    workspace's q-weights read; node_count is the psi-rule size, and
    alpha = 1 builds no rule.  The kernel comes from the S rows:
    tau^(a-1) E_{a,a}(-lambda tau^a) is
    -(1/lambda) d/dtau E_a(-lambda tau^a), so the kernel's integral over
    the lag cell [(d-1) dt, d dt] is (S_{d-1} - S_d) / lambda_n, at every
    alpha.  The table is built here for these modes, so an entry depends
    on its key alone.
    """
    cache = SolutionOperatorCache(FracOrder(alpha), mode_count, node_count)
    s_table = cache.grid_table(grid)
    kappa = grid.nodes() ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    s_lm = s_table * data_smoothing_symbol(mode_count)[None, :]
    spectrum = np.fft.rfft((s_table[:-1] - s_table[1:]) / generator_symbol(mode_count),
                           2 * grid.step_count, axis=0)
    arrays = (kappa, s_lm, s_lm * kappa[:, None], spectrum)
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class _SweepWorkspace:
    """The solve context: one problem at one psi-rule size, and its sweeps' arrays.

    The grid-static arrays come from _grid_static, built once per
    discretisation, and D and P from spectral.collocation_maps; the
    nonlocal node weights, the denominators and the data term are built
    per workspace.  A sweep convolves exactly when its forcing is nonzero, so
    a linear uncontrolled solve never does.  D maps coefficients to the
    first derivative on the collocation grid (4N x N), P maps collocation
    values back to coefficients (N x 4N); both sweeps go through them.

    The workspace owns the scratch its sweeps write, allocated once: an
    (M+1) x N block for the h elimination, its transpose and the
    residual; the collocation values and the forcing (when f != 0); and
    the kernel with its FFT buffers.  So it serves one solve at a time and
    is not shared between threads.  sweep and adjoint_sweep return fresh
    arrays.
    """

    def __init__(self, spec: ProblemSpec, node_count: int = _DEFAULT_NODES):
        self.spec = spec
        self.dt = spec.grid.dt
        self.nodes, self.weights = nonlocal_node_weights(spec)
        # feedback is the trajectory's response to h
        self.kappa, self.s_lm, self.feedback, spectrum = _grid_static(
            spec.order.alpha, spec.mode_count, spec.grid, node_count)
        self.q_scale = q_weights(spec.mode_count, spec.order.q)
        _, self.D, self.P = collocation_maps(spec.mode_count)
        self.kernel = _Kernel(spectrum)
        # the data term without h
        self.data = self.s_lm * (spec.v0[None, :] + self.kappa[:, None] * spec.u0[None, :])
        # d_n = 1 - sum w (s_lm kappa)_n(node).  The weights are > 0, the
        # data-smoothing symbol is < 0, S >= 0 and kappa >= 0, so
        # d_n = 1 + sum w |s_lm kappa|_n(node) >= 1: the division by it
        # needs no guard.
        self.denominator = 1.0 - self.nonlocal_sum(self.feedback)
        m, n_modes = spec.step_count, spec.mode_count
        self.scratch = np.empty((m + 1, n_modes))
        if spec.nonlinearity.gain != 0.0:
            self.colloc = np.empty((m, self.D.shape[0]))
            self.forcing = np.empty((m, n_modes))

    def nonlocal_sum(self, coeffs: np.ndarray) -> np.ndarray:
        """h = sum w coeffs(node), per mode, added from zeros in term order."""
        return np.add.reduce(self.weights[:, None] * coeffs[self.nodes], axis=0, initial=0.0)

    def response(self, coeffs: np.ndarray, ctrl_forcing: np.ndarray) -> np.ndarray:
        """The solution map at coeffs without its h term: the data term
        S(t) [smoothing] (v0 + kappa u0) plus the kernel convolution of
        the forcing, skipped when the forcing is zero."""
        out = self.data.copy()
        # the last node's forcing never enters the convolution
        forcing = ctrl_forcing[:-1]
        gain = self.spec.nonlinearity.gain
        if gain != 0.0:
            colloc = np.matmul(coeffs[:-1], self.D.T, out=self.colloc)
            np.sin(colloc, out=colloc)
            colloc *= gain
            forcing = np.matmul(colloc, self.P.T, out=self.forcing)
            forcing += ctrl_forcing[:-1]
        if forcing.any():
            out[1:] += self.kernel.apply(forcing)
        return out

    def sweep(self, coeffs: np.ndarray, ctrl_forcing: np.ndarray) -> np.ndarray:
        """The solution map at coeffs with h eliminated: the response r
        plus s_lm kappa h, where h = sum c r(t_eta) / d solves
        h = sum c (r + s_lm kappa h)(t_eta) mode by mode."""
        out = self.response(coeffs, ctrl_forcing)
        if self.nodes.size:
            h = self.nonlocal_sum(out)
            h /= self.denominator
            out += np.multiply(self.feedback, h, out=self.scratch)
        return self.finite(out)

    def slope(self, coeffs: np.ndarray) -> np.ndarray | None:
        """f' on the collocation grid at nodes 0..M-1 (None when f = 0)."""
        gain = self.spec.nonlinearity.gain
        if gain == 0.0:
            return None
        slope = coeffs[:-1] @ self.D.T
        np.cos(slope, out=slope)
        slope *= gain
        return slope

    def adjoint_sweep(self, lam: np.ndarray, source: np.ndarray,
                      slope: np.ndarray | None) -> np.ndarray:
        """source plus the transposed linearised response applied to lam,
        then the h elimination transposed: g = sum_t s_lm kappa out / d,
        added at each nonlocal node with its weight, in term order."""
        out = source.copy()
        if slope is not None:
            colloc = np.matmul(self.kernel.apply_T(lam), self.P, out=self.colloc)
            colloc *= slope
            out[:-1] += np.matmul(colloc, self.D, out=self.forcing)
        if self.nodes.size:
            g = np.sum(np.multiply(self.feedback, out, out=self.scratch), axis=0)
            g /= self.denominator
            np.add.at(out, self.nodes, np.multiply.outer(self.weights, g))
        return self.finite(out)

    def initial(self) -> np.ndarray:
        return self.s_lm * self.spec.v0[None, :]

    def residual(self, new: np.ndarray, old: np.ndarray) -> float:
        """Sup over nodes of the q-norm of new - old.  sqrt is monotone and
        correctly rounded, so the square root of the largest row sum is
        the largest row norm bit for bit."""
        diff = np.subtract(new, old, out=self.scratch)
        diff *= self.q_scale
        diff *= diff
        return math.sqrt(float(np.max(np.sum(diff, axis=1))))

    def finite(self, out: np.ndarray) -> np.ndarray:
        """out, or EvaluationError naming its first node with a nan or an
        infinity."""
        ok = np.isfinite(out)
        if not ok.all():
            node = int(np.argmin(ok.all(axis=1)))
            raise EvaluationError(f"non-finite trajectory value at node {node}")
        return out


def apply_P(spec: ProblemSpec, cache: SolutionOperatorCache, u_traj: Trajectory,
            controls=None) -> Trajectory:
    """One application of the paper's solution map to a trajectory
    iterate, with h read from the iterate (the solver's sweep eliminates
    it instead); it reads controls and the iterate as picard_solve does."""
    ctrl_forcing = _control_forcing(spec, controls)
    coeffs = _trajectory_coeffs(spec, u_traj)
    ws = _workspace(spec, cache, None)
    out = ws.response(coeffs, ctrl_forcing)
    out += ws.feedback * ws.nonlocal_sum(coeffs)
    return Trajectory(spec.grid, ws.finite(out))


def picard_solve(spec: ProblemSpec, cache: SolutionOperatorCache | None = None,
                 controls=None, tol: float = 1e-8, max_iter: int = MAX_ITER,
                 workspace: "_SweepWorkspace | None" = None) -> tuple[Trajectory, SolveReport]:
    """Iterate the sweep (the solution map with h eliminated) from the data
    term to a fixed point in the sup q-norm.  Only f feeds back, so an instance with
    f = 0 is exact after one sweep and stops there, with a recorded step
    of exactly 0; the report's contraction_ratio measures the f-loop
    alone, and nonlocal_denominator_min is the smallest d_n (1.0 without
    nonlocal terms).  A workspace passed in must be built for spec itself,
    and cache is then not passed (DomainError).

    Raises RejectedInstanceError with spec.exponent_defect() when the
    exponent hypothesis fails, DomainError for a bundle _control_forcing
    refuses or a tol that is NaN or negative, and NonConvergenceError (with the
    residual history) when the budget runs out, rather than returning a
    best-effort trajectory.
    """
    defect = spec.exponent_defect()
    if defect:
        raise RejectedInstanceError(defect)
    ctrl_forcing = _control_forcing(spec, controls)
    workspace = _workspace(spec, cache, workspace)
    current, history = _forward(workspace, ctrl_forcing, tol, max_iter)
    # the last step over the one before it, 0.0 after one sweep or an exact step
    ratio = history[-1] / history[-2] if len(history) >= 2 and history[-2] > 0.0 else 0.0
    report = SolveReport(iterations=len(history), residual_history=history, converged=True,
                         contraction_ratio=ratio,
                         nonlocal_node_weights=list(map(list, zip(
                             workspace.nodes.tolist(), workspace.weights.tolist()))),
                         nonlocal_denominator_min=float(workspace.denominator.min()))
    return Trajectory(spec.grid, current), report


def _forward(workspace: _SweepWorkspace, ctrl_forcing: np.ndarray,
             tol: float, max_iter: int) -> tuple[np.ndarray, list]:
    """picard_solve on arrays: the fixed point of the workspace problem's
    sweep under ctrl_forcing from the data term workspace.initial(), and
    the residual history."""
    return _fixed_point(lambda c: workspace.sweep(c, ctrl_forcing), workspace.initial(),
                        workspace.residual, "Picard iteration", tol, max_iter,
                        constant=workspace.spec.nonlinearity.gain == 0.0)


def _adjoint(workspace: _SweepWorkspace, coeffs: np.ndarray, weight: np.ndarray,
             tol: float, max_iter: int) -> np.ndarray:
    """Gradient of <weight, u>, for a finite (M+1, N) weight, at the
    workspace problem's solved coefficients coeffs (M+1, N) with respect
    to the summed control cells (the per-cell sum of the bundle's cells,
    zero-padded to N modes); shape (M, N).

    The adjoint state solves lam = E^T (weight + J^T lam), where J is the
    linearised response and E the h elimination, with the fixed-point
    loop of picard_solve to tol in at most max_iter sweeps; like it, the
    loop runs over f only (f = 0 takes one sweep), contracts at the rate
    of the forward f-loop and raises NonConvergenceError.  With
    f = 0 and no controls declared it is the gradient of the problem's
    twin that declares one control.
    """
    slope = workspace.slope(coeffs)
    lam, _ = _fixed_point(lambda lam: workspace.adjoint_sweep(lam, weight, slope),
                          weight, workspace.residual, "adjoint iteration",
                          tol, max_iter, constant=slope is None)
    grad_forcing = np.zeros_like(lam)
    grad_forcing[:-1] = workspace.kernel.apply_T(lam)
    return _control_forcing_adjoint(workspace.dt, grad_forcing)


def _workspace(spec, cache, workspace) -> _SweepWorkspace:
    """spec's solve context: workspace if built for spec and no cache is
    passed beside it (else DomainError), or a new one at cache's rule size."""
    if workspace is not None:
        if cache is not None:
            raise DomainError("pass a cache or a workspace, not both")
        if workspace.spec is not spec:
            raise DomainError("the workspace was built for another problem")
        return workspace
    if cache is not None and cache.order.alpha != spec.order.alpha:
        raise DomainError(f"cache alpha {cache.order.alpha} differs from the "
                          f"problem's alpha {spec.order.alpha}")
    return _SweepWorkspace(spec, _DEFAULT_NODES if cache is None else cache.node_count)


def _fixed_point(sweep, current, distance, what, tol, max_iter, constant=False):
    """Iterate sweep until the step's distance is <= tol; returns the
    fixed point and the residual history, or raises NonConvergenceError
    with that history.  A constant sweep (one that ignores its input, as
    with f = 0) is at its fixed point after one call: the next step would
    be exactly 0, so that step is recorded without running it.  A tol
    that is NaN or negative, or max_iter < 1, is refused before any sweep."""
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    if not tol >= 0.0:
        raise DomainError(f"tol must be >= 0, got {tol}")
    history = []
    for _ in range(max_iter):
        new = sweep(current)
        residual = 0.0 if constant else distance(new, current)
        history.append(residual)
        current = new
        if residual <= tol:
            return current, history
    raise NonConvergenceError(
        f"{what} did not reach tol={tol} in {max_iter} sweeps "
        f"(last residual {history[-1]:.3e})", residual_history=history)
