"""Special-function tests: density, moments, Mittag-Leffler, quadrature."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from sobfrac import specfun
from sobfrac.errors import (ConstructionError, DomainError, EvaluationError,
                            SobfracError)
from sobfrac.fracops import FracOrder
from sobfrac.specfun import (gamma, mainardi_density, mainardi_moment, mittag_leffler,
                             theta_quadrature, theta_support_cut,
                             _density_stable_integral, _density_tail_series)

ALPHAS = (0.3, 0.5, 0.6, 0.8, 0.9)
NEAR_ONE = (0.99, 0.995, 0.999, 0.9999)


def power_series_oracle(alpha, theta):
    """The density's entire power series,
    sum_k (-theta)^k / (k! Gamma(1 - alpha (k + 1))), summed in mpmath.

    Its alternating terms cancel down to the density's exp(-c theta^r)
    scale, so the working precision is sized from the largest term."""
    log_theta = math.log(theta)

    def log_mag(k):   # log of a bound on |term k|: 1/|Gamma(1-z)| <= Gamma(z)/pi
        return k * log_theta - math.lgamma(k + 1.0) + math.lgamma(alpha * (k + 1.0))

    k_max = 1
    while k_max < theta or log_mag(k_max) > -80.0:
        k_max += 1
    top = max(log_mag(k) for k in range(1, k_max))
    with mpmath.workdps(30 + max(0, int(top / math.log(10.0)))):
        a, th = mpmath.mpf(alpha), mpmath.mpf(theta)
        return float(mpmath.fsum(
            (-th) ** k / mpmath.factorial(k) * mpmath.rgamma(1 - a * (k + 1))
            for k in range(k_max + 1)))


def stable_integral_quad_oracle(alpha, theta):
    """The stable-law integral by scipy's adaptive quad, on the same peak
    breakpoints and with the tolerances the density evaluator used before
    its fixed panels."""
    r = 1.0 / (1.0 - alpha)
    log_c = r * math.log(theta)

    def log_g(phi):
        s = math.sin(phi)
        return (log_c + (r - 1.0) * math.log(math.sin(alpha * phi) / s)
                + math.log(math.sin((1.0 - alpha) * phi) / s))

    def integrand(phi):
        lg = log_g(phi)
        if not -745.0 < lg < 6.6:
            return 0.0
        g = math.exp(lg)
        return g * math.exp(-g)

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
    points = [peak]
    step = 1.0 / slope if slope > 0.0 else math.pi
    while step < math.pi:
        points += [p for p in (peak - step, peak + step) if 0.0 < p < math.pi]
        step *= 4.0
    v, _ = quad(integrand, 0.0, math.pi, points=points, limit=200,
                epsabs=1e-14, epsrel=1e-11)
    return v / (math.pi * (1.0 - alpha) * theta)


def fine_panel_reference(monkeypatch, alpha, theta):
    """The stable integral on four times the sub-panels at twice the order."""
    with monkeypatch.context() as m:
        m.setattr(specfun, "_PANEL_SPLIT", 32)
        m.setattr(specfun, "_PANEL_ORDERS", (40, 20))
        return _density_stable_integral(alpha, np.array([theta]))[0][0]


def scalar_density_oracle(alpha, theta, tol):
    """The density at one theta, node by node as it was evaluated before
    the batched kernel: the Wright tail series summed term by term for
    theta <= 0.5, and above it the stable integral on the same panels, its
    peak found by a scalar bisection.  Returns (value, error estimate); the
    tail series carries no estimate (0.0)."""
    theta = float(theta)
    if theta <= specfun._THETA_SWITCH:
        log_phi = math.log(theta ** (-1.0 / alpha))
        s = 0.0
        small = 0
        for n in range(1, specfun._MAX_TERMS + 1):
            mag = math.exp(math.lgamma(n * alpha + 1.0) - math.lgamma(n + 1.0)
                           - (alpha * n + 1.0) * log_phi)
            term = mag * specfun._sinpi(n * alpha) / math.pi
            s += -term if n % 2 == 0 else term
            small = small + 1 if abs(term) < tol / 10.0 else 0
            if small >= specfun._CONSECUTIVE_SMALL:
                return s * theta ** (-1.0 - 1.0 / alpha) / alpha, 0.0
        raise EvaluationError("tail series did not converge")

    r = 1.0 / (1.0 - alpha)
    log_c = r * math.log(theta)

    def log_g(phi, xp=math):
        s = xp.sin(phi)
        return (log_c + (r - 1.0) * xp.log(xp.sin(alpha * phi) / s)
                + xp.log(xp.sin((1.0 - alpha) * phi) / s))

    def integrand(phi):
        lg = log_g(phi, np)
        live = (lg > -745.0) & (lg < 6.6)
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
    split = np.arange(specfun._PANEL_SPLIT) / specfun._PANEL_SPLIT
    edges = np.append(cuts[:-1, None] + np.diff(cuts)[:, None] * split, math.pi)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    rules = [specfun._gauss_legendre(order) for order in specfun._PANEL_ORDERS]
    values = [integrand(mid[:, None] + half[:, None] * x) for x, _ in rules]
    fine, coarse = (float(half @ (f @ w)) for f, (_, w) in zip(values, rules))
    rounding = math.ulp(peak) * float(values[0].max())
    scale = math.pi * (1.0 - alpha) * theta
    return fine / scale, (abs(fine - coarse) + rounding) / scale


def scalar_checked_density(order, thetas, tol):
    """mainardi_density's array path, node by node on the scalar oracle,
    with the checks it made before the batched kernel."""
    out = []
    for theta in thetas:
        value, error = scalar_density_oracle(order, theta, tol)
        if error > tol or value < -tol:
            raise EvaluationError(f"refused at theta={theta}")
        out.append(0.0 if value < 0.0 else value)
    return np.array(out)


class TestGamma:
    def test_integers(self):
        assert gamma(1.0) == 1.0
        assert gamma(5.0) == 24.0

    def test_half_against_quadrature_oracle(self):
        # independent oracle: direct integral of t^(-1/2) e^(-t)
        oracle, _ = quad(lambda t: t ** -0.5 * math.exp(-t), 0.0, 60.0, limit=300)
        assert abs(gamma(0.5) - oracle) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma(0.0)
        with pytest.raises(DomainError):
            gamma(-2.5)


class TestFracOrder:
    def test_validation(self):
        FracOrder(0.8, q=0.25, p=2.0)
        with pytest.raises(DomainError):
            FracOrder(1.2)
        with pytest.raises(DomainError):
            FracOrder(0.8, q=1.0)
        with pytest.raises(DomainError):
            FracOrder(0.8, p=1.0)


class TestMainardiDensity:
    def test_half_order_gaussian_form(self):
        got = mainardi_density(0.5, 1.0, tol=1e-10)
        assert abs(got - math.exp(-0.25) / math.sqrt(math.pi)) < 1e-8

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_nonnegative_on_log_grid(self, alpha):
        assert np.all(mainardi_density(alpha, np.geomspace(1e-2, 10.0, 40)) >= 0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_dual_representations_agree(self, alpha):
        # overlap window where both the tail series and the stable integral converge
        thetas = np.linspace(0.5, 1.0, 11)
        a = _density_tail_series(alpha, thetas, 1e-10)
        b, _ = _density_stable_integral(alpha, thetas)
        assert np.all(np.abs(a - b) < 1e-7)

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999))
    def test_stable_integral_matches_quad_oracle(self, alpha):
        thetas = np.linspace(0.5, 6.0, 61)[1:]
        values, _ = _density_stable_integral(alpha, thetas)
        for theta, value in zip(thetas, values):
            assert abs(value - stable_integral_quad_oracle(alpha, theta)) <= 1e-12

    @pytest.mark.parametrize("alpha", np.linspace(0.3, 0.93, 22))
    def test_error_estimate_small_at_rule_nodes(self, alpha):
        # every density value the theta rules use, with room below their
        # tol = 1e-12
        nodes = theta_quadrature(alpha).nodes
        assert np.max(_density_stable_integral(alpha, nodes[nodes > 0.5])[1]) <= 1e-13

    @pytest.mark.parametrize("alpha", np.round(np.arange(0.30, 0.935, 0.01), 2))
    def test_batched_matches_scalar_oracle_at_rule_nodes(self, alpha):
        nodes = theta_quadrature(alpha).nodes
        tail, body = nodes[nodes <= 0.5], nodes[nodes > 0.5]
        want = np.array([scalar_density_oracle(alpha, t, 1e-12) for t in nodes])
        values, estimates = _density_stable_integral(alpha, body)
        got = np.concatenate([_density_tail_series(alpha, tail, 1e-12), values])
        assert np.all(np.abs(got - want[:, 0]) <= 1e-14 * np.abs(want[:, 0]))
        assert np.all(np.abs(estimates - want[tail.size:, 1]) <= 1e-15)

    def test_batched_refusal_names_first_theta(self):
        alpha, tol = 1.0 - 1e-8, 1e-10
        with pytest.raises(EvaluationError) as batched:
            mainardi_density(alpha, np.array([0.3, 0.55, 0.6]), tol=tol)
        message = str(batched.value)
        assert "theta=0.55)" in message and f"exceeds tol {tol:g}" in message
        with pytest.raises(EvaluationError) as single:
            mainardi_density(alpha, 0.55, tol=tol)
        assert str(single.value) == message

    @pytest.mark.parametrize("bad", (-1.0, 0.0, math.nan))
    def test_array_domain_names_entry(self, bad):
        with pytest.raises(DomainError, match=f"got {bad} at index 1"):
            mainardi_density(0.5, np.array([0.7, bad]))

    def test_near_one_meets_tol_or_refuses(self, monkeypatch):
        # at 1 - 1e-8 the peak is too narrow for the panels at some theta:
        # those calls must refuse, never return a value off by more than
        # tol or warn
        alpha, tol = 1.0 - 1e-8, 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in np.linspace(0.5, 2.0, 31)[1:]:
                try:
                    value = mainardi_density(alpha, theta, tol=tol)
                except EvaluationError as err:
                    assert "exceeds tol" in str(err)
                    continue
                assert abs(value - fine_panel_reference(monkeypatch, alpha, theta)) <= tol

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_power_series_oracle(self, alpha):
        for theta in np.linspace(0.5, theta_support_cut(alpha), 4):
            oracle = power_series_oracle(alpha, theta)
            assert abs(mainardi_density(alpha, theta, tol=1e-12) - oracle) <= 1e-12

    @pytest.mark.parametrize("alpha", NEAR_ONE)
    def test_finite_near_one(self, alpha):
        # the stable integral's g = theta^r A(phi) with r = 1/(1-alpha) runs
        # past the double range here; its log-space form must not
        for theta in np.concatenate([np.geomspace(0.01, 0.5, 5),
                                     np.linspace(0.5, 2.0, 31)[1:]]):
            value = mainardi_density(alpha, theta)
            assert math.isfinite(value) and value >= 0.0

    def test_mass_near_one(self):
        # alpha = 0.999: the density is a spike of width ~0.03 near theta = 1
        # that the stable integral resolves pointwise
        alpha = 0.999
        tail, _ = quad(lambda t: mainardi_density(alpha, t), 0.0, 0.5, limit=200)
        edges = np.linspace(0.5, 1.5, 41)
        body = sum(quad(lambda t: mainardi_density(alpha, t), lo, hi)[0]
                   for lo, hi in zip(edges[:-1], edges[1:]))
        assert abs(tail + body - 1.0) < 1e-8

    def test_refused_within_gap_of_one(self):
        # at 1 - 1e-10 the evaluation misses the density's mass by more
        # than 1e-8; refused, where it used to return wrong values (the
        # NEAR_ONE orders still evaluate: test_finite_near_one)
        with pytest.raises(DomainError, match="1 - 1e-08"):
            mainardi_density(1.0 - 1e-10, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            mainardi_density(0.5, 0.0)
        with pytest.raises(DomainError):
            mainardi_density(0.5, -1.0)
        with pytest.raises(DomainError):
            mainardi_density(1.0, 1.0)  # delta limit is rejected here


class TestMainardiMoment:
    def test_zeroth_is_one(self):
        for alpha in ALPHAS:
            assert mainardi_moment(alpha, 0.0) == 1.0

    def test_first_moment_closed_form(self):
        assert abs(mainardi_moment(0.8, 1.0) - 1.0 / gamma(1.8)) < 1e-15

    def test_half_moment_against_gaussian_integral(self):
        # at alpha = 1/2 the density is exp(-t^2/4)/sqrt(pi); integrate directly
        oracle, _ = quad(
            lambda t: t ** 0.5 * math.exp(-t * t / 4.0) / math.sqrt(math.pi),
            0.0, 40.0, limit=300)
        closed = gamma(1.5) / gamma(1.25)
        assert abs(mainardi_moment(0.5, 0.5) - closed) < 1e-15
        assert abs(closed - oracle) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            mainardi_moment(0.5, -0.1)
        with pytest.raises(DomainError):
            mainardi_moment(0.5, 1.5)


class TestMittagLeffler:
    def test_exponential_case(self):
        assert abs(mittag_leffler(1.0, 1.0, -1.0) - math.exp(-1.0)) < 1e-10

    def test_leading_term(self):
        assert mittag_leffler(0.8, 1.0, 0.0) == 1.0

    def test_against_density_quadrature(self):
        # independent route: Laplace transform of the density
        rule = theta_quadrature(0.5)
        oracle = rule.integrate(np.exp(-rule.nodes))
        assert abs(mittag_leffler(0.5, 1.0, -1.0) - oracle) < 1e-8

    def test_deep_negative_argument(self):
        # cancellation-guarded path; reference from the exponential identity
        assert abs(mittag_leffler(1.0, 1.0, -50.0) / math.exp(-50.0) - 1.0) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 0.0, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 1.0, 0.5)

    def test_series_budget_error(self):
        with pytest.raises(EvaluationError, match="budget of 2500 terms exceeded"):
            mittag_leffler(0.2, 1.0, -80.0)


class TestThetaQuadrature:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_normalization(self, alpha):
        rule = theta_quadrature(alpha)
        assert rule.normalization_defect() <= 1e-8

    def test_node_layout(self):
        rule = theta_quadrature(0.8)
        assert np.all(rule.nodes > 0.0)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)
        assert len(rule.nodes) == 200

    @pytest.mark.parametrize("alpha", (0.4, 0.8))
    @pytest.mark.parametrize("v", (0.0, 0.25, 0.5, 0.75, 1.0))
    def test_moment_identity(self, alpha, v):
        rule = theta_quadrature(alpha)
        got = rule.integrate(rule.nodes ** v)
        assert abs(got - mainardi_moment(alpha, v)) <= 1e-6

    def test_first_moment_half_order(self):
        rule = theta_quadrature(0.5)
        assert abs(rule.integrate(rule.nodes) - 1.0 / gamma(1.5)) <= 1e-6

    @pytest.mark.parametrize("alpha", (0.5, 0.8))
    def test_laplace_identity(self, alpha):
        rule = theta_quadrature(alpha)
        for x in np.linspace(0.0, 5.0, 11):
            got = rule.integrate(np.exp(-x * rule.nodes))
            assert abs(got - mittag_leffler(alpha, 1.0, -x)) <= 1e-6

    @pytest.mark.parametrize("alpha", NEAR_ONE)
    def test_near_one_returns_rule_or_typed_error(self, alpha):
        try:
            rule = theta_quadrature(alpha)
        except SobfracError:
            return
        assert rule.normalization_defect() <= 1e-8

    def test_refuses_where_the_scalar_evaluation_refused(self, monkeypatch):
        # the rule built on the per-node scalar oracle decides today's
        # outcome; the scalar tail series overflows (OverflowError) at
        # alpha = 0.01, where the batched one raises a typed error
        alphas = [*np.round(np.arange(0.01, 0.955, 0.01), 2), *NEAR_ONE]
        refused = {False: [], True: []}
        for batched in (False, True):
            with monkeypatch.context() as m:
                if not batched:
                    m.setattr(specfun, "mainardi_density", scalar_checked_density)
                for alpha in alphas:
                    try:
                        theta_quadrature.__wrapped__(float(alpha))
                    except SobfracError:
                        refused[batched].append(alpha)
                    except OverflowError:
                        assert not batched
                        refused[batched].append(alpha)
        assert refused[True] == refused[False]
        assert 0.5 not in refused[True] and 0.95 in refused[True]

    def test_unreachable_tolerance_reports_defect(self):
        # the fixed rule misses the 1e-8 normalization gate near alpha = 0.94
        with pytest.raises(ConstructionError) as err:
            theta_quadrature(0.94)
        stated = re.search(r"defect (\S+) exceeds", str(err.value))
        assert stated is not None and float(stated.group(1)) > 1e-8
