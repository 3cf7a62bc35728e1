"""Sine-basis fields, per-mode operator symbols, collocation, measured bounds."""

import math

import numpy as np
import pytest

from sobfrac.errors import DomainError
from sobfrac.spectral import (apply_Bi, collocation_grid, collocation_maps, field_to_grid,
                              generator_symbol, grid_to_field,
                              l_inverse_symbol, measure_bounds, norm_q, q_weights)

BASIS = math.sqrt(2.0 / math.pi)


def random_field(n=16, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


def l_symbol(mode_count):
    """Symbol 1 + n^2 of L = 1 - d^2/dx^2."""
    n = np.arange(1, mode_count + 1, dtype=float)
    return 1.0 + n * n


def semigroup(t, mode_count=16):
    """Symbol exp(-lambda_n t) of Q(t)."""
    return np.exp(-generator_symbol(mode_count) * t)


class TestOperators:
    def test_l_inverse_pair(self):
        u = random_field()
        round_trip = l_symbol(16) * (l_inverse_symbol(16) * u)
        assert np.max(np.abs(round_trip - u)) <= 1e-12

    def test_l_inv_on_mode_two(self):
        got = l_inverse_symbol(4) * np.eye(4)[1]
        assert abs(got[1] - 0.2) <= 1e-15

    def test_semigroup_value(self):
        got = semigroup(1.0, 4) * np.eye(4)[0]
        assert abs(got[0] - math.exp(-0.5)) <= 1e-15

    def test_generator_consistency(self):
        # E = L A, with symbols -n^2 for E and -lambda_n for A
        u = random_field(seed=3)
        n = np.arange(1, 17, dtype=float)
        lhs = -(n * n) * u
        rhs = l_symbol(16) * (-generator_symbol(16) * u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_semigroup_law(self):
        u = random_field(seed=4)
        lhs = semigroup(0.3) * (semigroup(0.9) * u)
        rhs = semigroup(1.2) * u
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_fractional_power_composition(self):
        u = random_field(seed=5)
        lhs = q_weights(16, 0.3) * (q_weights(16, 0.45) * u)
        rhs = q_weights(16, 0.75) * u
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_semigroup_contraction_rate(self):
        u = random_field(seed=6)
        for t in (0.1, 0.5, 2.0):
            decayed = np.linalg.norm(semigroup(t) * u)
            assert decayed <= math.exp(-t / 2.0) * np.linalg.norm(u) * (1 + 1e-12)


class TestCollocation:
    def test_round_trip(self):
        u = random_field(seed=7)
        back = grid_to_field(field_to_grid(u), len(u))
        assert np.max(np.abs(back - u)) <= 1e-8

    @pytest.mark.parametrize("shape", [(15,), (17,), (32,), (16, 1)])
    def test_grid_to_field_refuses_other_than_4n_values(self, shape):
        # the collocation grid is fixed at 4N = 16 nodes for 4 modes
        with pytest.raises(DomainError, match="expected 16 collocation values"):
            grid_to_field(np.ones(shape), 4)

    def test_first_derivative_of_mode_one(self):
        vals = apply_Bi(1, np.eye(4)[0])
        x = collocation_grid(16)
        assert np.max(np.abs(vals - BASIS * np.cos(x))) <= 1e-10

    def test_first_derivative_reads_the_shared_d1(self):
        u = random_field(n=6, seed=8)
        first = apply_Bi(1, u)
        before = collocation_maps.cache_info()
        again = apply_Bi(1, u)
        after = collocation_maps.cache_info()
        # the second call is one memo hit and builds nothing
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        d1 = collocation_maps(6)[1]
        assert np.array_equal(first, d1 @ u) and np.array_equal(again, first)

    def test_derivative_of_zero(self):
        assert np.all(apply_Bi(1, np.zeros(4)) == 0.0)

    def test_maps_are_the_sine_basis_formulas(self):
        # bit for bit: D0 = sqrt(2/pi) sin(x n^T), D1 = sqrt(2/pi) cos(x n^T) n
        # with n as floats, and P = (pi/(4N+1)) D0^T
        for n_modes in range(1, 65):
            d0, d1, p = collocation_maps(n_modes)
            n = np.arange(1, n_modes + 1).astype(float)
            xn = np.outer(collocation_grid(4 * n_modes), n)
            assert np.array_equal(d0, BASIS * np.sin(xn)), n_modes
            assert np.array_equal(d1, BASIS * np.cos(xn) * n), n_modes
            assert np.array_equal(p, math.pi / (4 * n_modes + 1) * d0.T), n_modes

    def test_order_above_r_max(self):
        # the nonlinearity reads the first derivative only
        for order in (0, 2, 3):
            with pytest.raises(DomainError, match=f"derivative order {order} is not 1"):
                apply_Bi(order, np.eye(4)[0])


def sampled_mq(mode_count, t_samples, q):
    """The envelope constant as a supremum sampled over t_samples and the
    per-mode maximizers q/lambda_n."""
    lam = generator_symbol(mode_count)
    weights = q_weights(mode_count, q)
    t_samples = np.asarray(t_samples, dtype=float)
    mq = 0.0
    for t in np.concatenate([t_samples[t_samples > 0.0], q / lam]):
        mq = max(mq, float(np.max(weights * np.exp(-lam * t))) * t ** q)
    return mq


class TestBounds:
    def test_measured_constants(self):
        b = measure_bounds(16)
        # the literal C1 is the symbol's largest entry, its n = 1 term
        assert b.C1 == 0.5 == float(np.max(l_inverse_symbol(16)))
        assert b.C2 == 256.0
        assert b.M0 == 1.0
        # tight envelope constant q^q e^(-q) for the continuum of symbols
        assert abs(b.Mq - 0.25 ** 0.25 * math.exp(-0.25)) <= 1e-12

    def test_closed_form_mq_matches_sampled_supremum(self):
        ts = np.linspace(0.0, 1.0, 17)[1:]
        for n_modes in range(4, 65):
            assert measure_bounds(n_modes, q=0.25).Mq == sampled_mq(n_modes, ts, 0.25)
        for q in (0.1, 0.5, 0.9):
            for n_modes in (4, 16, 64):
                want = sampled_mq(n_modes, ts, q)
                assert abs(measure_bounds(n_modes, q=q).Mq - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("n_modes", (1, 2, 3))
    def test_c2_over_the_retained_modes(self, n_modes):
        b = measure_bounds(n_modes)
        assert b.C2 == n_modes ** 2
        assert b.C1 == 0.5

    def test_q_norm_definition(self):
        u = np.eye(4)[1]
        assert abs(norm_q(u, 0.25) - (4.0 / 5.0) ** 0.25) <= 1e-15

    def test_identity_at_zero(self):
        sym = semigroup(0.0) * np.eye(16)[6]
        assert sym[6] == 1.0

    def test_norm_at_one(self):
        # mode 1 dominates: ||Q(1)|| = exp(-1/2)
        n = np.arange(1, 17)
        sym = np.exp(-n * n / (1.0 + n * n))
        assert abs(np.max(sym) - math.exp(-0.5)) <= 1e-15
