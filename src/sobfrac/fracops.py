"""Discrete fractional calculus on uniformly sampled scalar functions.

Fractional integral by product integration (exact kernel moments against
the piecewise-constant left-endpoint interpolant), Caputo and
Riemann-Liouville derivatives built on top of it, and an independent
Grunwald-Letnikov discretization for cross-validation.  The fractional
order triple and the gamma function, which every layer reads, live here
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, frozen_array


@dataclass(frozen=True)
class FracOrder:
    """Fractional order triple (alpha, q, p).

    alpha is the time-derivative order in (0, 1], q the fractional power
    exponent in (0, 1), p the integrability exponent in (1, inf).  The
    paper's alpha*q < 1 follows from this domain; p*alpha*(1-q) > 1, which
    controlled problems need, is ProblemSpec.exponent_defect's to check.
    """

    alpha: float
    q: float = 0.5
    p: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
        if not self.p > 1.0:
            raise DomainError(f"p must exceed 1, got {self.p}")


def gamma(x: float) -> float:
    """Gamma function for positive arguments only."""
    if not x > 0.0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on J = [0, a] with nodes t_m = m*a/M."""

    horizon: float
    step_count: int

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        if self.step_count < 2:
            raise DomainError(f"step_count must be at least 2, got {self.step_count}")

    @property
    def dt(self) -> float:
        return self.horizon / self.step_count

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.step_count + 1)


@dataclass(frozen=True, eq=False)
class SampledFn:
    """Real-valued function sampled at every node of a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        # rl_deriv flags its t = 0 node with a signed infinity
        object.__setattr__(self, "values", frozen_array(
            self.values, (self.grid.step_count + 1,), "values", finite=False))


def _check_alpha(alpha, upper_inclusive):
    hi_ok = alpha <= 1.0 if upper_inclusive else alpha < 1.0
    if not (0.0 < alpha and hi_ok):
        rng = "(0, 1]" if upper_inclusive else "(0, 1)"
        raise DomainError(f"order must lie in {rng}, got {alpha}")


def power_increments(grid: TimeGrid, alpha: float) -> np.ndarray:
    """Increments of s^alpha over the cells [(d-1) dt, d dt], d = 1..M: over
    alpha, the cell integrals of the kernel s^(alpha-1) that the solver
    reads; over Gamma(alpha+1), the weights of frac_integral."""
    d = np.arange(1, grid.step_count + 1, dtype=float)
    return grid.dt ** alpha * (d ** alpha - (d - 1.0) ** alpha)


def frac_integral(f: SampledFn, alpha: float) -> SampledFn:
    """Riemann-Liouville fractional integral I^alpha from 0.

    The kernel (t-s)^(alpha-1) is integrated exactly over each cell
    against the left-endpoint piecewise-constant interpolant of f, so
    the weights form a convolution in the node index.
    """
    _check_alpha(alpha, upper_inclusive=True)
    m = f.grid.step_count
    w = power_increments(f.grid, alpha) / math.gamma(alpha + 1.0)
    out = np.zeros(m + 1)
    out[1:] = np.convolve(f.values[:-1], w)[:m]
    return SampledFn(f.grid, out)


def caputo_deriv(f: SampledFn, alpha: float) -> SampledFn:
    """Caputo derivative as I^(1-alpha) of the first derivative.

    The derivative uses second-order central differences with one-sided
    stencils at the ends, so constants are annihilated exactly.
    """
    _check_alpha(alpha, upper_inclusive=False)
    if f.grid.step_count < 4:
        raise DomainError("caputo_deriv needs at least 4 steps")
    fp = np.gradient(f.values, f.grid.dt, edge_order=2)
    return frac_integral(SampledFn(f.grid, fp), 1.0 - alpha)


def rl_deriv(f: SampledFn, alpha: float) -> SampledFn:
    """Riemann-Liouville derivative as d/dt of I^(1-alpha) f.

    At t = 0 the derivative of a non-vanishing f genuinely blows up like
    t^(-alpha); that node is flagged with a signed infinity rather than
    extrapolated.
    """
    _check_alpha(alpha, upper_inclusive=False)
    if f.grid.step_count < 4:
        raise DomainError("rl_deriv needs at least 4 steps")
    g = frac_integral(f, 1.0 - alpha)
    out = np.gradient(g.values, f.grid.dt, edge_order=2)
    if f.values[0] != 0.0:
        out[0] = math.copysign(math.inf, f.values[0])
    return SampledFn(f.grid, out)


def gl_deriv(f: SampledFn, alpha: float) -> SampledFn:
    """Grunwald-Letnikov discretization of the Riemann-Liouville derivative.

    dt^(-alpha) * sum_j (-1)^j C(alpha, j) f(t - j dt), with the binomial
    weights generated by the standard recurrence.
    """
    _check_alpha(alpha, upper_inclusive=False)
    m = f.grid.step_count
    c = np.empty(m + 1)
    c[0] = 1.0
    for j in range(1, m + 1):
        c[j] = c[j - 1] * (j - 1.0 - alpha) / j
    out = np.convolve(f.values, c)[: m + 1] * f.grid.dt ** (-alpha)
    return SampledFn(f.grid, out)
