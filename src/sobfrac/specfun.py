"""Special functions for the subordination formulas.

Evaluates the gamma function, the Wright-type tail series, the Mainardi
probability density on (0, inf), its fractional moments, and the
Mittag-Leffler function used as an independent per-mode oracle, plus a
quadrature rule for integrals against the density.

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

import mpmath
import numpy as np

from .errors import ConstructionError, DomainError, EvaluationError

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


@dataclass(frozen=True)
class FracOrder:
    """Fractional order triple (alpha, q, p).

    alpha is the time-derivative order in (0, 1], q the fractional power
    exponent in (0, 1), p the integrability exponent in (1, inf).  The
    solver-side conditions alpha*q < 1 and p*alpha*(1-q) > 1 are checked
    where they are actually needed, not here.
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


def _alpha_of(order) -> float:
    return order.alpha if isinstance(order, FracOrder) else float(order)


def gamma(x: float) -> float:
    """Gamma function for positive arguments only."""
    if not x > 0.0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def _sinpi(z: float) -> float:
    # sin(pi*z) with exact argument reduction; math.sin(math.pi*z) loses
    # accuracy for large z.
    r = z - round(z)
    s = math.sin(math.pi * r)
    return -s if round(z) % 2 else s


def _density_tail_series(alpha: float, theta: float, tol: float) -> float:
    """Density via the Wright-type sine series of the stable law.

    zeta_a(theta) = (1/a) theta^(-1-1/a) * w_a(theta^(-1/a)) with
    w_a(phi) = (1/pi) sum (-1)^(n-1) phi^(-a*n-1) Gamma(n*a+1)/n! sin(n*pi*a).
    Convergent without cancellation when phi = theta^(-1/a) is not small,
    i.e. for small theta.
    """
    phi = theta ** (-1.0 / alpha)
    log_phi = math.log(phi)
    s = 0.0
    small = 0
    for n in range(1, _MAX_TERMS + 1):
        mag = math.exp(math.lgamma(n * alpha + 1.0) - math.lgamma(n + 1.0)
                       - (alpha * n + 1.0) * log_phi)
        term = mag * _sinpi(n * alpha) / math.pi
        if n % 2 == 0:
            term = -term
        s += term
        if abs(term) < tol / 10.0:
            small += 1
            if small >= _CONSECUTIVE_SMALL:
                break
        else:
            small = 0
    else:
        raise EvaluationError(
            f"Wright tail series did not converge in {_MAX_TERMS} terms "
            f"(alpha={alpha}, theta={theta})",
            partial=s, terms_used=_MAX_TERMS)
    return s * theta ** (-1.0 - 1.0 / alpha) / alpha


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _density_stable_integral(alpha: float, theta: float) -> tuple[float, float]:
    """Density via the positive stable-law integral (Zolotarev's form).

    zeta_a(theta) = 1/(pi (1-a) theta) int_0^pi g exp(-g) dphi with
    g(phi) = theta^r A(phi), r = 1/(1-a), and, since a r + 1 = r,
    A(phi) = (sin(a phi)/sin(phi))^(r-1) sin((1-a) phi)/sin(phi).
    The integrand is nonnegative, so nothing cancels at any theta.  It is
    formed from log(g), so r -> inf as alpha -> 1 neither overflows nor
    underflows.  g rises from 0 to inf, so g exp(-g) peaks where g = 1,
    in a window about 1/log(g)' wide that shrinks as alpha nears 1;
    breakpoints at the peak and at geometrically growing distances from
    it bound the fixed Gauss-Legendre panels, so none steps over it.
    Returns (value, error estimate): the estimate is the gap between the
    two panel orders in _PANEL_ORDERS plus a bound on node rounding.
    """
    r = 1.0 / (1.0 - alpha)
    log_c = r * math.log(theta)

    def log_g(phi, xp=math):
        s = xp.sin(phi)
        return (log_c + (r - 1.0) * xp.log(xp.sin(alpha * phi) / s)
                + xp.log(xp.sin((1.0 - alpha) * phi) / s))

    def integrand(phi):
        lg = log_g(phi, np)
        live = (lg > -745.0) & (lg < 6.6)   # elsewhere g exp(-g) underflows
        g = np.exp(np.where(live, lg, 0.0))
        return np.where(live, g * np.exp(-g), 0.0)

    lo, hi = 0.0, math.pi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if log_g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    peak = 0.5 * (lo + hi)
    slope = ((r - 1.0) * (alpha / math.tan(alpha * peak) - 1.0 / math.tan(peak))
             + (1.0 - alpha) / math.tan((1.0 - alpha) * peak) - 1.0 / math.tan(peak))
    points = [0.0, peak, math.pi]
    step = 1.0 / slope if slope > 0.0 else math.pi
    while step < math.pi:
        points += [p for p in (peak - step, peak + step) if 0.0 < p < math.pi]
        step *= 4.0
    cuts = np.sort(points)
    split = np.arange(_PANEL_SPLIT) / _PANEL_SPLIT
    edges = np.append(cuts[:-1, None] + np.diff(cuts)[:, None] * split, math.pi)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    rules = [_gauss_legendre(order) for order in _PANEL_ORDERS]
    values = [integrand(mid[:, None] + half[:, None] * x) for x, _ in rules]
    fine, coarse = (float(half @ (f @ w)) for f, (_, w) in zip(values, rules))
    # Nodes round to floats ulp(peak) apart, which moves the sum by up to
    # ulp(peak)/2 times the integrand's total variation, 2 max g exp(-g).
    # Near alpha = 1 the peak narrows to a few ulps and this term dominates.
    rounding = math.ulp(peak) * float(values[0].max())
    scale = math.pi * (1.0 - alpha) * theta
    return fine / scale, (abs(fine - coarse) + rounding) / scale


@functools.lru_cache(maxsize=200_000)
def _density_cached(alpha: float, theta: float, tol: float) -> float:
    if theta <= _THETA_SWITCH:
        value = _density_tail_series(alpha, theta, tol)
    else:
        value, error = _density_stable_integral(alpha, theta)
        if error > tol:
            raise EvaluationError(
                f"stable-integral error estimate {error:.3e} exceeds tol {tol:g} "
                f"(alpha={alpha}, theta={theta})", partial=value)
    if value < 0.0:
        if value < -tol:
            raise EvaluationError(
                f"density evaluation returned {value} < -tol (alpha={alpha}, "
                f"theta={theta})", partial=value)
        value = 0.0
    return value


def mainardi_density(order, theta: float, tol: float = 1e-10) -> float:
    """Mainardi density zeta_alpha at theta > 0, absolute error <= tol.

    alpha = 1 is rejected: the density degenerates to a Dirac delta at 1
    and callers that support alpha = 1 bypass the theta integration.
    So is alpha within _ALPHA_GAP of 1, where the evaluation loses accuracy.
    """
    alpha = _alpha_of(order)
    if not 0.0 < alpha <= 1.0 - _ALPHA_GAP:
        raise DomainError(
            f"mainardi_density requires 0 < alpha <= 1 - {_ALPHA_GAP:g}, got {alpha}")
    if not theta > 0.0:
        raise DomainError(f"theta must be positive, got {theta}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    return _density_cached(alpha, float(theta), float(tol))


def mainardi_moment(order, v: float) -> float:
    """Closed-form fractional moment: int theta^v zeta_alpha = G(1+v)/G(1+alpha v)."""
    alpha = _alpha_of(order)
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
            f"(alpha={alpha}, beta={beta}, z={z})", terms_used=_ML_MAX_TERMS)

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


def theta_support_cut(alpha: float, log_tail: float = 34.0) -> float:
    """Theta beyond which the density mass is negligible (exp(-log_tail) scale)."""
    return (log_tail / _decay_constant(alpha)) ** (1.0 - alpha)


@functools.lru_cache(maxsize=256)
def theta_quadrature(order_alpha, node_count: int = 200) -> QuadratureRule:
    """Composite Gauss-Legendre rule on geometrically graded panels.

    (0, inf) is truncated at the superexponential-decay cutoff and split
    into panels clustered toward 0 (breakpoints ~ (i/K)^4) so that the
    weakly singular test integrands theta^v stay accurate.  Construction
    fails if the realized normalization defect exceeds 1e-8 or the first
    moment misses its closed form by more than 1e-6.
    """
    alpha = _alpha_of(order_alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"theta_quadrature requires 0 < alpha < 1, got {alpha}")
    if node_count < 16:
        raise DomainError(f"node_count must be at least 16, got {node_count}")

    theta_max = theta_support_cut(alpha)
    n_panels = max(2, node_count // 10)
    base = node_count // n_panels
    extra = node_count % n_panels
    orders = [base + (1 if i < extra else 0) for i in range(n_panels)]
    cuts = theta_max * (np.arange(n_panels + 1) / n_panels) ** 4

    nodes = []
    weights = []
    for i, g in enumerate(orders):
        x, w = _gauss_legendre(g)
        lo, hi = cuts[i], cuts[i + 1]
        half = 0.5 * (hi - lo)
        nodes.append(half * (x + 1.0) + lo)
        weights.append(half * w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    dens = np.array([mainardi_density(alpha, t, tol=1e-12) for t in nodes])

    rule = QuadratureRule(nodes=nodes, weights=weights, alpha=alpha,
                          density_values=dens)
    for arr in (rule.nodes, rule.weights, rule.density_values):
        arr.setflags(write=False)

    defect = rule.normalization_defect()
    if defect > 1e-8:
        raise ConstructionError(
            f"normalization defect {defect:.3e} exceeds 1e-8 at "
            f"node_count={node_count} (alpha={alpha})",
            achieved_defect=defect)
    moment_err = abs(rule.integrate(nodes) - mainardi_moment(alpha, 1.0))
    if moment_err > 1e-6:
        raise ConstructionError(
            f"first-moment defect {moment_err:.3e} exceeds 1e-6 at "
            f"node_count={node_count} (alpha={alpha})",
            achieved_defect=moment_err)
    return rule
