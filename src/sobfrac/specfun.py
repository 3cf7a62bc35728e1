"""Special functions for the subordination formulas.

Evaluates the Wright-type tail series, the Mainardi probability density
on (0, inf), its fractional moments, and the Mittag-Leffler function used
as an independent per-mode oracle, plus a quadrature rule for integrals
against the density.

The density has two representations, one per range of theta: the
Wright tail series converges quickly for small argument, and a
positive-integrand stable-law integral, which never cancels, covers
the rest.  The public entry point switches between them at theta = 0.5.
mpmath serves only the Mittag-Leffler oracle, which stays independent
of the density.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError, EvaluationError
from .fracops import gamma

_MAX_TERMS = 500
# The Mittag-Leffler oracle keeps its own, larger budget: for small alpha
# the series passes its hump only after ~|z|^(1/alpha) terms.
_ML_MAX_TERMS = 2500
_CONSECUTIVE_SMALL = 3
_THETA_SWITCH = 0.5  # below: tail series; above: stable-law integral
# Closest approach of alpha to 1 that mainardi_density serves: r = 1/(1-alpha)
# multiplies the ~1e-16 error of log(sin(a phi)/sin(phi)) in the stable
# integral.  The measured mass defect is <= 2e-9 at 1 - alpha = 1e-8, up to
# 3.5e-9 at 1e-9, and 1.2e-8 or more at 1e-10 (theta_quadrature allows 1e-8).
# From about 1 - 1e-7 the integral's error check already refuses theta in
# (0.5, 1) at tol 1e-10: its peak there is a few ulps wide next to pi.
_ALPHA_GAP = 1e-8
# The stable integral splits each interval between its breakpoints into
# _PANEL_SPLIT equal sub-panels and sums them with Gauss-Legendre rules of
# both orders; the gap between the two estimates its error.
_PANEL_SPLIT = 8
_PANEL_ORDERS = (20, 16)
# Sub-panels per block of thetas in the stable integral: bounds its
# temporaries at about _PANEL_CHUNK * max(_PANEL_ORDERS) points, whatever
# the theta count.
_PANEL_CHUNK = 512
# theta_quadrature: 20 graded panels of the 10-node Gauss-Legendre rule
_THETA_PANELS = 20
_THETA_PANEL_ORDER = 10


def _sinpi(z: float) -> float:
    # sin(pi*z) with exact argument reduction; math.sin(math.pi*z) loses
    # accuracy for large z.
    r = z - round(z)
    s = math.sin(math.pi * r)
    return -s if round(z) % 2 else s


def _density_tail_series(alpha: float, thetas: np.ndarray, tol: float) -> np.ndarray:
    """Density via the Wright-type sine series of the stable law, at every
    theta of a 1-D array at once.

    zeta_a(theta) = (1/a) theta^(-1-1/a) * w_a(theta^(-1/a)) with
    w_a(phi) = (1/pi) sum (-1)^(n-1) phi^(-a*n-1) Gamma(n*a+1)/n! sin(n*pi*a).
    Convergent without cancellation when phi = theta^(-1/a) is not small,
    i.e. for small theta.  Each row sums its terms in order and stops after
    _CONSECUTIVE_SMALL consecutive terms below tol/10.  The terms come in
    blocks that double until every row has stopped, their lgamma and sinpi
    coefficients computed once for all rows; a row-wise cumsum reproduces
    the sequential sum up to each row's stopping term.
    """
    with np.errstate(over="ignore"):
        log_phi = np.log(thetas ** (-1.0 / alpha))
    terms = np.empty((thetas.size, 0))
    while True:
        ks = range(terms.shape[1] + 1, min(max(2 * terms.shape[1], 32), _MAX_TERMS) + 1)
        n = np.array(ks)
        log_coeff = np.array([math.lgamma(k * alpha + 1.0) - math.lgamma(k + 1.0)
                              for k in ks])
        sines = np.array([_sinpi(k * alpha) for k in ks])
        block = np.exp(log_coeff - (alpha * n + 1.0) * log_phi[:, None]) * sines / math.pi
        terms = np.concatenate([terms, np.where(n % 2 == 0, -block, block)], axis=1)
        count = terms.shape[1]
        small = np.abs(terms) < tol / 10.0
        run = small[:, :count - _CONSECUTIVE_SMALL + 1]
        for lag in range(1, _CONSECUTIVE_SMALL):
            run = run & small[:, lag:count - _CONSECUTIVE_SMALL + 1 + lag]
        stopped = run.any(axis=1)
        if stopped.all():
            break
        if count == _MAX_TERMS:
            i = int(np.argmin(stopped))
            raise EvaluationError(
                f"Wright tail series did not converge in {_MAX_TERMS} terms "
                f"(alpha={alpha}, theta={thetas[i]})")
    last = np.argmax(run, axis=1) + _CONSECUTIVE_SMALL - 1
    s = np.cumsum(terms, axis=1)[np.arange(thetas.size), last]
    with np.errstate(over="ignore", invalid="ignore"):
        values = s * thetas ** (-1.0 - 1.0 / alpha) / alpha
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise EvaluationError(
            f"Wright tail series left the double range (alpha={alpha}, "
            f"theta={thetas[i]})")
    return values


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _density_stable_integral(alpha: float,
                             thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Density via the positive stable-law integral (Zolotarev's form), at
    every theta of a 1-D array at once.

    zeta_a(theta) = 1/(pi (1-a) theta) int_0^pi g exp(-g) dphi with
    g(phi) = theta^r A(phi), r = 1/(1-a), and, since a r + 1 = r,
    A(phi) = (sin(a phi)/sin(phi))^(r-1) sin((1-a) phi)/sin(phi).
    The integrand is nonnegative, so nothing cancels at any theta.  It is
    formed from log(g), so r -> inf as alpha -> 1 neither overflows nor
    underflows.  g rises from 0 to inf, so g exp(-g) peaks where g = 1,
    in a window about 1/log(g)' wide that shrinks as alpha nears 1;
    breakpoints at the peak and at geometrically growing distances from
    it bound the fixed Gauss-Legendre panels, so none steps over it.
    The bisection for the peaks runs on all thetas in step; the sub-panels
    of blocks of thetas are stacked and evaluated together, about
    _PANEL_CHUNK at a time, so no temporary array grows with the number
    of thetas.
    Returns (values, error estimates): an estimate is the gap between the
    two panel orders in _PANEL_ORDERS plus a bound on node rounding.
    """
    r = 1.0 / (1.0 - alpha)
    log_c = r * np.log(thetas)

    def log_g(phi, log_c):
        s = np.sin(phi)
        return (log_c + (r - 1.0) * np.log(np.sin(alpha * phi) / s)
                + np.log(np.sin((1.0 - alpha) * phi) / s))

    def integrand(phi, log_c):
        lg = log_g(phi, log_c)
        live = (lg > -745.0) & (lg < 6.6)   # elsewhere g exp(-g) underflows
        g = np.exp(np.where(live, lg, 0.0))
        return np.where(live, g * np.exp(-g), 0.0)

    lo, hi = np.zeros_like(thetas), np.full_like(thetas, math.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = log_g(mid, log_c) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    peak = 0.5 * (lo + hi)
    slope = ((r - 1.0) * (alpha / np.tan(alpha * peak) - 1.0 / np.tan(peak))
             + (1.0 - alpha) / np.tan((1.0 - alpha) * peak) - 1.0 / np.tan(peak))
    step = np.divide(1.0, slope, out=np.full_like(slope, math.pi), where=slope > 0.0)
    # breakpoints 0, peak, pi and peak -+ step * 4^k inside (0, pi); the
    # others (all of the last rung, which is >= pi) become NaN and sort to
    # the end of their row
    ladder = [step]
    while np.any(ladder[-1] < math.pi):
        ladder.append(ladder[-1] * 4.0)
    ladder = np.stack(ladder, axis=1)
    points = np.concatenate([peak[:, None] - ladder, peak[:, None] + ladder], axis=1)
    points = np.where((points > 0.0) & (points < math.pi), points, np.nan)
    cuts = np.sort(np.concatenate([np.zeros((thetas.size, 1)), peak[:, None],
                                   np.full((thetas.size, 1), math.pi), points],
                                  axis=1), axis=1)
    # every interval between consecutive cuts in _PANEL_SPLIT equal
    # sub-panels, evaluated for blocks of whole thetas that start within
    # the same _PANEL_CHUNK sub-panels
    live = ~np.isnan(cuts[:, 1:])
    counts = _PANEL_SPLIT * live.sum(axis=1)
    block = (np.cumsum(counts) - counts) // _PANEL_CHUNK
    firsts = np.flatnonzero(np.diff(block, prepend=-1))
    split = np.arange(_PANEL_SPLIT) / _PANEL_SPLIT
    rules = [_gauss_legendre(order) for order in _PANEL_ORDERS]
    sums = np.empty((len(rules), thetas.size))
    top = np.empty(thetas.size)
    for first, end in zip(firsts, [*firsts[1:], thetas.size]):
        rows = slice(first, end)
        lo, hi = cuts[rows, :-1][live[rows]], cuts[rows, 1:][live[rows]]
        left = lo[:, None] + (hi - lo)[:, None] * split
        right = np.concatenate([left[:, 1:], hi[:, None]], axis=1)
        half = (0.5 * (right - left)).ravel()
        mid = left.ravel() + half
        panel_log_c = np.repeat(log_c[rows], counts[rows])[:, None]
        starts = np.cumsum(counts[rows]) - counts[rows]
        for k, (x, w) in enumerate(rules):
            f = integrand(mid[:, None] + half[:, None] * x, panel_log_c)
            sums[k, rows] = np.add.reduceat(half * (f @ w), starts)
            if k == 0:
                top[rows] = np.maximum.reduceat(f.max(axis=1), starts)
    fine, coarse = sums
    # Nodes round to floats ulp(peak) apart, which moves the sum by up to
    # ulp(peak)/2 times the integrand's total variation, 2 max g exp(-g).
    # Near alpha = 1 the peak narrows to a few ulps and this term dominates.
    rounding = (np.nextafter(peak, math.inf) - peak) * top   # ulp(peak) * top
    scale = math.pi * (1.0 - alpha) * thetas
    return fine / scale, (np.abs(fine - coarse) + rounding) / scale


def _density_values(alpha: float, thetas: np.ndarray, tol: float) -> np.ndarray:
    """The density at every theta of a 1-D array, each representation on
    its own side of _THETA_SWITCH.  Refuses at the first theta whose error
    estimate exceeds tol or whose value lies below -tol; values in
    [-tol, 0) become 0."""
    values = np.empty_like(thetas)
    errors = np.zeros_like(thetas)
    low = thetas <= _THETA_SWITCH
    if np.any(low):
        values[low] = _density_tail_series(alpha, thetas[low], tol)
    if not np.all(low):
        values[~low], errors[~low] = _density_stable_integral(alpha, thetas[~low])
    bad = ~(errors <= tol) | (values < -tol)
    if np.any(bad):
        i = int(np.argmax(bad))
        if not errors[i] <= tol:
            message = f"stable-integral error estimate {errors[i]:.3e} exceeds tol {tol:g}"
        else:
            message = f"density evaluation returned {values[i]} < -tol"
        raise EvaluationError(f"{message} (alpha={alpha}, theta={thetas[i]})")
    return np.where(values < 0.0, 0.0, values)


@functools.lru_cache(maxsize=200_000)
def _density_cached(alpha: float, theta: float, tol: float) -> float:
    return float(_density_values(alpha, np.array([theta]), tol)[0])


def mainardi_density(alpha: float, theta, tol: float = 1e-10):
    """Mainardi density zeta_alpha at theta > 0, absolute error <= tol.

    theta is a float, answered through a cache of single values, or a 1-D
    array, evaluated in one batched pass and answered with an array.
    alpha = 1 is rejected: the density degenerates to a Dirac delta at 1
    and callers that support alpha = 1 bypass the theta integration.
    So is alpha within _ALPHA_GAP of 1, where the evaluation loses accuracy.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0 - _ALPHA_GAP:
        raise DomainError(
            f"mainardi_density requires 0 < alpha <= 1 - {_ALPHA_GAP:g}, got {alpha}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if np.ndim(theta) == 0:
        if not theta > 0.0:
            raise DomainError(f"theta must be positive, got {theta}")
        return _density_cached(alpha, float(theta), float(tol))
    thetas = np.asarray(theta, dtype=float)
    if thetas.ndim != 1:
        raise DomainError(f"theta must be a float or a 1-D array, got shape {thetas.shape}")
    bad = ~(thetas > 0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DomainError(f"theta must be positive, got {thetas[i]} at index {i}")
    return _density_values(alpha, thetas, float(tol))


def mainardi_moment(alpha: float, v: float) -> float:
    """Closed-form fractional moment: int theta^v zeta_alpha = G(1+v)/G(1+alpha v)."""
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"moment exponent v must lie in [0, 1], got {v}")
    return gamma(1.0 + v) / gamma(1.0 + alpha * v)


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler E_{alpha,beta}(z) for z <= 0.

    Power series, re-summed at elevated precision when alternating
    cancellation would exceed the 1e-10 relative-error contract.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"mittag_leffler requires alpha in (0, 1], got {alpha}")
    if not beta > 0.0:
        raise DomainError(f"mittag_leffler requires beta > 0, got {beta}")
    if z > 0.0:
        raise DomainError(f"mittag_leffler only supports z <= 0, got {z}")
    if z == 0.0:
        return 1.0 / gamma(beta)
    return _ml_cached(float(alpha), float(beta), float(z))


@functools.lru_cache(maxsize=200_000)
def _ml_cached(alpha: float, beta: float, z: float) -> float:
    log_az = math.log(-z)

    # Budget scan in log space (overflow-free): the series must fall below
    # the smallest possible value scale, exp(-|z|), within the term cap.
    log_floor = -abs(z) - 30.0
    log_mx = -math.inf
    small = 0
    converged = False
    for k in range(_ML_MAX_TERMS + 1):
        log_mag = k * log_az - math.lgamma(alpha * k + beta)
        log_mx = max(log_mx, log_mag)
        if log_mag < log_floor:
            small += 1
            if small >= _CONSECUTIVE_SMALL:
                converged = True
                break
        else:
            small = 0
    if not converged:
        raise EvaluationError(
            f"Mittag-Leffler series budget of {_ML_MAX_TERMS} terms exceeded "
            f"(alpha={alpha}, beta={beta}, z={z})")

    s = math.nan
    if log_mx < 690.0:
        s = 0.0
        mx = 0.0
        small = 0
        for k in range(_ML_MAX_TERMS + 1):
            mag = math.exp(k * log_az - math.lgamma(alpha * k + beta))
            s += -mag if k % 2 else mag
            mx = max(mx, mag)
            if mag < max(abs(s), 1e-300) * 1e-13:
                small += 1
                if small >= _CONSECUTIVE_SMALL:
                    break
            else:
                small = 0
        if mx * 5.0e-16 <= max(abs(s), 1e-300) * 1e-10:
            return s

    # Cancellation (or overflow) beyond the double budget: re-sum at a
    # precision sized from the hump height, never from the noisy sum.
    # Imported here: no solve or optimize run needs mpmath's import time.
    import mpmath

    with mpmath.workdps(50 + max(0, int(log_mx / math.log(10.0)))):
        a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        acc = mpmath.mpf(0)
        small = 0
        for k in range(_ML_MAX_TERMS + 1):
            term = zz ** k / mpmath.gamma(a * k + b)
            acc += term
            if abs(term) < max(abs(acc), mpmath.mpf(1e-300)) * mpmath.mpf(1e-20):
                small += 1
                if small >= _CONSECUTIVE_SMALL:
                    break
            else:
                small = 0
        return float(acc)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrals over (0, inf) against zeta_alpha.

    density_values caches zeta_alpha at the nodes; the weights are plain
    d-theta weights, so the normalization statement is
    sum(weights * density_values) == 1 within the construction tolerance.
    """

    nodes: np.ndarray
    weights: np.ndarray
    alpha: float
    density_values: np.ndarray

    def normalization_defect(self) -> float:
        return abs(float(self.weights @ self.density_values) - 1.0)

    def integrate(self, values: np.ndarray) -> float:
        """Integrate f(theta) * zeta_alpha(theta) given f at the nodes."""
        return float(self.weights @ (self.density_values * np.asarray(values)))


def _decay_constant(alpha: float) -> float:
    # zeta_alpha(theta) ~ exp(-b * theta^(1/(1-alpha))) with
    # b = (1-alpha) * alpha^(alpha/(1-alpha)).
    return (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))


def theta_support_cut(alpha: float) -> float:
    """Theta beyond which the density mass is negligible (exp(-34) scale)."""
    return (34.0 / _decay_constant(alpha)) ** (1.0 - alpha)


@functools.lru_cache(maxsize=256)
def theta_quadrature(alpha: float) -> QuadratureRule:
    """Composite Gauss-Legendre rule on geometrically graded panels.

    (0, inf) is truncated at the superexponential-decay cutoff and split
    into _THETA_PANELS panels clustered toward 0 (breakpoints ~ (i/K)^4),
    each with the _THETA_PANEL_ORDER-node rule (200 nodes in all), so
    that the weakly singular test integrands theta^v stay accurate.
    Construction fails if the realized normalization defect exceeds 1e-8
    or the first moment misses its closed form by more than 1e-6.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"theta_quadrature requires 0 < alpha < 1, got {alpha}")

    cuts = theta_support_cut(alpha) * (np.arange(_THETA_PANELS + 1) / _THETA_PANELS) ** 4
    x, w = _gauss_legendre(_THETA_PANEL_ORDER)
    lo, half = cuts[:-1, None], 0.5 * (cuts[1:] - cuts[:-1])[:, None]
    nodes = (half * (x + 1.0) + lo).ravel()
    weights = (half * w).ravel()
    dens = mainardi_density(alpha, nodes, tol=1e-12)

    rule = QuadratureRule(nodes=nodes, weights=weights, alpha=alpha,
                          density_values=dens)
    for arr in (rule.nodes, rule.weights, rule.density_values):
        arr.setflags(write=False)

    defect = rule.normalization_defect()
    if defect > 1e-8:
        raise ConstructionError(
            f"normalization defect {defect:.3e} exceeds 1e-8 (alpha={alpha})")
    moment_err = abs(rule.integrate(nodes) - mainardi_moment(alpha, 1.0))
    if moment_err > 1e-6:
        raise ConstructionError(
            f"first-moment defect {moment_err:.3e} exceeds 1e-6 (alpha={alpha})")
    return rule
