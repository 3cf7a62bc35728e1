"""Special-function tests: density, moments, Mittag-Leffler, quadrature."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from sobfrac import specfun
from sobfrac.errors import (ConstructionError, DomainError, EvaluationError,
                            SobfracError)
from sobfrac.specfun import (FracOrder, gamma, mainardi_density, mainardi_moment,
                             mittag_leffler, theta_quadrature, theta_support_cut,
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
        for theta in np.geomspace(1e-2, 10.0, 40):
            assert mainardi_density(alpha, theta) >= 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_dual_representations_agree(self, alpha):
        # overlap window where both the tail series and the stable integral converge
        for theta in np.linspace(0.5, 1.0, 11):
            a = _density_tail_series(alpha, theta, 1e-10)
            b = _density_stable_integral(alpha, theta)
            assert abs(a - b) < 1e-7

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

    def test_domain(self):
        with pytest.raises(DomainError):
            mainardi_density(0.5, 0.0)
        with pytest.raises(DomainError):
            mainardi_density(0.5, -1.0)
        with pytest.raises(DomainError):
            mainardi_density(1.0, 1.0)  # delta limit is rejected here

    def test_accepts_frac_order(self):
        a = mainardi_density(FracOrder(0.6), 0.7)
        b = mainardi_density(0.6, 0.7)
        assert a == b


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
        rule = theta_quadrature(0.5, 200)
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
        with pytest.raises(EvaluationError) as err:
            mittag_leffler(0.2, 1.0, -80.0)
        assert err.value.terms_used is not None


class TestThetaQuadrature:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_normalization(self, alpha):
        rule = theta_quadrature(alpha, 200)
        assert rule.normalization_defect() <= 1e-8

    def test_node_layout(self):
        rule = theta_quadrature(0.8, 200)
        assert np.all(rule.nodes > 0.0)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)
        assert len(rule.nodes) == 200

    @pytest.mark.parametrize("alpha", (0.4, 0.8))
    @pytest.mark.parametrize("v", (0.0, 0.25, 0.5, 0.75, 1.0))
    def test_moment_identity(self, alpha, v):
        rule = theta_quadrature(alpha, 200)
        got = rule.integrate(rule.nodes ** v)
        assert abs(got - mainardi_moment(alpha, v)) <= 1e-6

    def test_first_moment_half_order(self):
        rule = theta_quadrature(0.5, 200)
        assert abs(rule.integrate(rule.nodes) - 1.0 / gamma(1.5)) <= 1e-6

    @pytest.mark.parametrize("alpha", (0.5, 0.8))
    def test_laplace_identity(self, alpha):
        rule = theta_quadrature(alpha, 200)
        for x in np.linspace(0.0, 5.0, 11):
            got = rule.integrate(np.exp(-x * rule.nodes))
            assert abs(got - mittag_leffler(alpha, 1.0, -x)) <= 1e-6

    def test_below_minimum_node_count(self):
        with pytest.raises(DomainError):
            theta_quadrature(0.8, 8)

    @pytest.mark.parametrize("alpha", NEAR_ONE)
    def test_near_one_returns_rule_or_typed_error(self, alpha):
        try:
            rule = theta_quadrature(alpha, 200)
        except SobfracError:
            return
        assert rule.normalization_defect() <= 1e-8

    def test_cold_build_never_uses_mpmath(self, monkeypatch):
        class NoMpmath:
            def __getattr__(self, name):
                raise AssertionError(f"mpmath.{name} used on the solver path")

        monkeypatch.setattr(specfun, "mpmath", NoMpmath())
        theta_quadrature.cache_clear()
        specfun._density_cached.cache_clear()
        try:
            for alpha in ALPHAS:
                assert theta_quadrature(alpha, 200).normalization_defect() <= 1e-8
        finally:
            theta_quadrature.cache_clear()
            specfun._density_cached.cache_clear()

    def test_unreachable_tolerance_reports_defect(self):
        with pytest.raises(ConstructionError) as err:
            theta_quadrature(0.8, 16)
        assert err.value.achieved_defect is not None
        assert err.value.achieved_defect > 1e-8
