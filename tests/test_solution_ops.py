"""Solution-operator multipliers against the Mittag-Leffler oracle."""

import math

import numpy as np
import pytest

from sobfrac.errors import DomainError
from sobfrac.solution_ops import (SolutionOperatorCache, apply_S, apply_T,
                                  verify_operator_bounds)
from sobfrac.specfun import FracOrder, gamma, mittag_leffler
from sobfrac.spectral import OperatorKind, SpectralField, apply_operator


@pytest.fixture(scope="module")
def cache():
    return SolutionOperatorCache(FracOrder(0.8, q=0.25, p=2.0), 16)


def lam(n):
    return n * n / (1.0 + n * n)


class TestMultipliers:
    def test_time_zero_values(self, cache):
        s_row, t_row = cache.multiplier_rows(0.0)
        assert abs(s_row[1] - 0.2) <= 1e-8
        expect = 0.8 / 2.0 * gamma(2.0) / gamma(1.8)
        assert abs(t_row[0] - expect) <= 1e-6

    @pytest.mark.parametrize("alpha", (0.5, 0.8))
    def test_mittag_leffler_oracle(self, alpha):
        c = SolutionOperatorCache(FracOrder(alpha, q=0.25), 16)
        for t in np.linspace(0.0, 1.0, 32):
            s_row, t_row = c.multiplier_rows(float(t))
            for n in range(1, 17):
                z = -lam(n) * t ** alpha
                assert abs(s_row[n - 1]
                           - mittag_leffler(alpha, 1.0, z) / (1 + n * n)) <= 1e-6
                assert abs(t_row[n - 1]
                           - mittag_leffler(alpha, alpha, z) / (1 + n * n)) <= 1e-6

    def test_one_parameter_value(self, cache):
        expect = 0.5 * mittag_leffler(0.8, 1.0, -0.5)
        assert abs(cache.multiplier_rows(1.0)[0][0] - expect) <= 1e-6

    def test_two_parameter_value(self, cache):
        expect = 0.5 * mittag_leffler(0.8, 0.8, -0.5)
        assert abs(cache.multiplier_rows(1.0)[1][0] - expect) <= 1e-6

    def test_long_time_decay_matches_oracle(self, cache):
        # algebraic decay at t = 50: frozen oracle value E_0.8(-0.5*50^0.8)/2
        s_row = cache.multiplier_rows(50.0)[0]
        got = s_row[0]
        oracle = mittag_leffler(0.8, 1.0, -lam(1) * 50.0 ** 0.8) / 2.0
        assert abs(got - oracle) <= 1e-6
        assert got <= 0.011  # computed decay level of the slowest mode
        for n in range(2, 17):
            assert s_row[n - 1] < got

    def test_mode_tail_bound(self, cache):
        cap = 0.8 / (1.0 + 16 * 16) / gamma(1.8)
        for t in np.linspace(0.0, 1.0, 9):
            assert cache.multiplier_rows(float(t))[1][15] <= cap * (1 + 1e-8)

    def test_monotone_in_time(self, cache):
        rows = np.stack([cache.multiplier_rows(float(t))[0]
                         for t in np.linspace(0.0, 2.0, 64)])
        assert np.all(np.diff(rows, axis=0) <= 1e-12)
        rows_t = np.stack([cache.multiplier_rows(float(t))[1]
                           for t in np.linspace(0.0, 2.0, 64)])
        assert np.all(np.diff(rows_t, axis=0) <= 1e-12)

    def test_continuity_probe(self, cache):
        for t1 in (0.0, 0.1, 0.5, 0.99):
            r1 = cache.multiplier_rows(t1)[0]
            r2 = cache.multiplier_rows(t1 + 1e-6)[0]
            assert np.max(np.abs(r2 - r1)) <= 1e-4

    def test_degenerate_order_uses_semigroup(self):
        c = SolutionOperatorCache(FracOrder(1.0, q=0.25), 8)
        s_row, t_row = c.multiplier_rows(1.0)
        assert abs(s_row[0] - math.exp(-0.5) / 2.0) <= 1e-14
        assert abs(t_row[0] - math.exp(-0.5) / 2.0) <= 1e-14


def per_time_rows(cache, t):
    """The multiplier rows at one time, one exp(outer) block each: the
    per-time evaluation that multiplier_table replaced."""
    alpha = cache.order.alpha
    if alpha >= 1.0:
        decay = np.exp(-cache._lam * t)
        return cache._linv * decay, cache._linv * decay
    expo = np.exp(-np.outer(cache._lam * t ** alpha, cache.rule.nodes))
    return (cache._linv * (expo @ cache._wz),
            alpha * cache._linv * (expo @ cache._wzt))


class TestMultiplierTable:
    @pytest.mark.parametrize("alpha", (0.5, 0.8, 1.0))
    def test_matches_per_time_rows_bitwise(self, alpha):
        c = SolutionOperatorCache(FracOrder(alpha, q=0.25), 16)
        # the README grid and a short grid out to t = 50; neither fills
        # its last block
        for ts in (np.linspace(0.0, 1.0, 513), np.linspace(0.0, 50.0, 7)):
            s_table, t_table = c.multiplier_table(ts)
            assert s_table.shape == t_table.shape == (ts.size, 16)
            for m, t in enumerate(ts):
                s_ref, t_ref = per_time_rows(c, float(t))
                assert np.array_equal(s_table[m], s_ref)
                assert np.array_equal(t_table[m], t_ref)
                s_row, t_row = c.multiplier_rows(float(t))
                assert s_row.shape == t_row.shape == (16,)
                assert np.array_equal(s_row, s_table[m])
                assert np.array_equal(t_row, t_table[m])

    def test_negative_time_rejected(self, cache):
        with pytest.raises(DomainError):
            cache.multiplier_table([0.0, -1e-3])
        with pytest.raises(DomainError):
            cache.multiplier_rows(-1.0)


class TestOperatorApplication:
    def test_time_zero_is_l_inverse(self, cache):
        u = SpectralField(np.random.default_rng(1).standard_normal(16))
        got = apply_S(cache, 0.0, u)
        expect = apply_operator(OperatorKind("L_inv"), u)
        assert (got - expect).norm() <= 1e-10

    def test_linearity(self, cache):
        rng = np.random.default_rng(2)
        u = SpectralField(rng.standard_normal(16))
        v = SpectralField(rng.standard_normal(16))
        lhs = apply_S(cache, 0.7, 2.0 * u - 0.5 * v)
        rhs = 2.0 * apply_S(cache, 0.7, u) - 0.5 * apply_S(cache, 0.7, v)
        assert (lhs - rhs).norm() <= 1e-12
        lhs_t = apply_T(cache, 0.7, 2.0 * u - 0.5 * v)
        rhs_t = 2.0 * apply_T(cache, 0.7, u) - 0.5 * apply_T(cache, 0.7, v)
        assert (lhs_t - rhs_t).norm() <= 1e-12

    def test_norm_bounds_on_random_fields(self, cache):
        rng = np.random.default_rng(3)
        c1m0 = 0.5
        for t in np.linspace(0.0, 1.0, 8):
            for _ in range(25):
                u = SpectralField(rng.standard_normal(16))
                assert apply_S(cache, float(t), u).norm() <= c1m0 * u.norm() * (1 + 1e-12)
                cap = c1m0 / gamma(0.8) * u.norm()
                assert apply_T(cache, float(t), u).norm() <= cap * (1 + 1e-12)

    def test_mode_mismatch(self, cache):
        with pytest.raises(DomainError):
            apply_S(cache, 0.0, SpectralField(np.ones(32)))


class TestBoundClauses:
    def test_all_clauses_pass(self, cache):
        report = verify_operator_bounds(cache, np.linspace(0.0, 1.0, 33), trials=400)
        assert report["passed"]
        assert set(report["clauses"]) == {"a_bounded", "e_bounded_q",
                                          "b_continuity", "d_envelope"}

    def test_envelope_bounded_on_unit_interval(self, cache):
        # measured ||A^q T(t)|| t^(q a) stays bounded over [1e-3, 1]
        q, alpha = 0.25, 0.8
        n = np.arange(1, 17)
        lam_q = (n * n / (1.0 + n * n)) ** q
        cap = (alpha * 0.5 * 0.25 ** 0.25 * math.exp(-0.25) * gamma(2 - q)
               / gamma(1 + alpha * (1 - q)))
        for t in np.geomspace(1e-3, 1.0, 50):
            t_row = cache.multiplier_rows(float(t))[1]
            measured = np.max(lam_q * t_row) * t ** (q * alpha)
            assert measured <= cap * (1 + 1e-9)
