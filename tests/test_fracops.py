"""Discrete fractional-calculus identities and cross-validation."""

import math

import numpy as np
import pytest

from sobfrac.errors import DomainError
from sobfrac.fracops import (SampledFn, TimeGrid, caputo_deriv, frac_integral,
                             gl_deriv, rl_deriv)


def sampled(grid, fn):
    return SampledFn(grid, fn(grid.nodes()))


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(1.0, 1000)


@pytest.fixture(scope="module")
def fine_grid():
    return TimeGrid(1.0, 2000)


class TestGrids:
    def test_validation(self):
        with pytest.raises(DomainError):
            TimeGrid(0.0, 100)
        with pytest.raises(DomainError):
            TimeGrid(1.0, 1)
        for bad in (np.zeros(5), np.zeros((11, 1))):
            with pytest.raises(DomainError, match="shape"):
                SampledFn(TimeGrid(1.0, 10), bad)

    def test_values_are_read_only_copies_admitting_infinity(self):
        # rl_deriv flags its t = 0 node with a signed infinity
        x = np.zeros(11)
        x[0] = -math.inf
        f = SampledFn(TimeGrid(1.0, 10), x)
        x[1] = 1.0
        assert f.values[0] == -math.inf and f.values[1] == 0.0
        with pytest.raises(ValueError):
            f.values[1] = 1.0

    def test_nodes(self):
        g = TimeGrid(2.0, 4)
        assert np.allclose(g.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])


class TestFracIntegral:
    def test_constant_power_rule(self, grid):
        t = grid.nodes()
        got = frac_integral(sampled(grid, lambda t: np.ones_like(t)), 0.5).values
        ref = t ** 0.5 / math.gamma(1.5)
        mask = t >= 0.25
        assert np.max(np.abs(got[mask] - ref[mask]) / ref[mask]) <= 0.01

    def test_order_one_is_plain_integration(self, grid):
        t = grid.nodes()
        got = frac_integral(sampled(grid, lambda t: t), 1.0).values
        assert np.max(np.abs(got - t * t / 2.0)) <= 2.0 * grid.dt

    def test_zero_stays_zero(self, grid):
        got = frac_integral(sampled(grid, np.zeros_like), 0.7).values
        assert np.all(got == 0.0)

    def test_linearity(self, grid):
        f = sampled(grid, np.sin)
        g = sampled(grid, np.cos)
        mix = SampledFn(grid, 2.0 * f.values - 3.0 * g.values)
        lhs = frac_integral(mix, 0.6).values
        rhs = 2.0 * frac_integral(f, 0.6).values - 3.0 * frac_integral(g, 0.6).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_composition_of_orders(self, grid):
        one = sampled(grid, lambda t: np.ones_like(t))
        t = grid.nodes()
        via_two = frac_integral(frac_integral(one, 0.3), 0.4).values
        direct = frac_integral(one, 0.7).values
        interior = t >= 0.25
        assert np.max(np.abs(via_two - direct)[interior]) <= 5.0 * grid.dt

    def test_refinement_reduces_error(self):
        errs = []
        for m in (500, 1000):
            g = TimeGrid(1.0, m)
            t = g.nodes()
            got = frac_integral(SampledFn(g, t ** 0.5), 0.5).values
            ref = math.gamma(1.5) / math.gamma(2.0) * t
            errs.append(np.max(np.abs(got - ref)))
        assert errs[0] / errs[1] >= 1.7


@pytest.mark.parametrize("alpha", (0.1, 0.3, 0.5, 0.8, 0.95, 1.0))
def test_power_increments_are_the_kernel_cell_integrals(alpha):
    # frac_integral's weights are the increments of s^alpha over the cells
    # over Gamma(alpha+1), the exact cell integrals of the kernel: a
    # constant is its own left-endpoint interpolant, so I^alpha 1 =
    # t^alpha / Gamma(alpha+1) at every node
    for horizon, m in ((1.0, 4), (1.0, 64), (2.5, 100), (0.3, 512)):
        grid = TimeGrid(horizon, m)
        t = grid.nodes()
        got = frac_integral(SampledFn(grid, np.ones(m + 1)), alpha).values
        want = t ** alpha / math.gamma(alpha + 1.0)
        assert got[0] == 0.0
        assert np.max(np.abs(got - want)) <= 1e-13 * horizon ** alpha * m


class TestCaputo:
    def test_annihilates_constants(self, grid):
        got = caputo_deriv(sampled(grid, lambda t: np.full_like(t, 4.2)), 0.5).values
        assert np.max(np.abs(got)) <= 1e-12

    def test_identity_function_power_rule(self, grid):
        t = grid.nodes()
        got = caputo_deriv(sampled(grid, lambda t: t), 0.5).values
        ref = t ** 0.5 / math.gamma(1.5)
        mask = t >= 0.25
        assert np.max(np.abs(got[mask] - ref[mask]) / ref[mask]) <= 0.01

    def test_order_near_one_approaches_derivative(self, grid):
        t = grid.nodes()
        got = caputo_deriv(sampled(grid, np.sin), 0.999).values
        mask = t >= 0.05  # the fractional integral vanishes at t = 0 by construction
        assert np.max(np.abs(got[mask] - np.cos(t[mask]))) <= 0.01

    def test_coarse_grid_rejected(self):
        g = TimeGrid(1.0, 3)
        with pytest.raises(DomainError, match="needs at least 4 steps"):
            caputo_deriv(SampledFn(g, np.ones(4)), 0.5)


class TestRiemannLiouville:
    def test_constant_blowup_law(self, fine_grid):
        t = fine_grid.nodes()
        c = 2.0
        got = rl_deriv(sampled(fine_grid, lambda t: np.full_like(t, c)), 0.5).values
        assert math.isinf(got[0]) and got[0] > 0
        ref = c * t[1:] ** -0.5 / math.gamma(0.5)
        mask = t[1:] >= 0.25
        assert np.max(np.abs(got[1:][mask] - ref[mask]) / ref[mask]) <= 0.02

    def test_shifted_equals_caputo(self, fine_grid):
        t = fine_grid.nodes()
        f = np.exp(t)
        shifted = rl_deriv(SampledFn(fine_grid, f - f[0]), 0.5).values
        cap = caputo_deriv(SampledFn(fine_grid, f), 0.5).values
        mask = t >= 0.25
        rel = np.abs(shifted[mask] - cap[mask]) / np.abs(cap[mask])
        assert np.max(rel) <= 0.02

    def test_zero_stays_zero(self, fine_grid):
        got = rl_deriv(sampled(fine_grid, np.zeros_like), 0.5).values
        assert np.all(got == 0.0)


class TestGrunwaldLetnikov:
    def test_constant_matches_blowup_law(self, fine_grid):
        t = fine_grid.nodes()
        got = gl_deriv(sampled(fine_grid, lambda t: np.full_like(t, 3.0)), 0.5).values
        ref = 3.0 * t[1:] ** -0.5 / math.gamma(0.5)
        mask = t[1:] >= 0.25
        assert np.max(np.abs(got[1:][mask] - ref[mask]) / ref[mask]) <= 0.02

    def test_agrees_with_rl_on_smooth(self, fine_grid):
        t = fine_grid.nodes()
        f = sampled(fine_grid, lambda t: np.sin(t) + 2.0)
        gl = gl_deriv(f, 0.5).values
        rl = rl_deriv(f, 0.5).values
        mask = t >= 0.25
        assert np.max(np.abs(gl[mask] - rl[mask]) / np.abs(rl[mask])) <= 0.02

    def test_half_order_twice_is_first_derivative(self, fine_grid):
        t = fine_grid.nodes()
        twice = gl_deriv(gl_deriv(sampled(fine_grid, lambda t: t * t), 0.5), 0.5).values
        mask = t >= 0.25
        assert np.max(np.abs(twice[mask] - 2.0 * t[mask]) / (2.0 * t[mask])) <= 0.02

    def test_linearity(self, grid):
        f = sampled(grid, np.sin)
        g = sampled(grid, np.cos)
        mix = SampledFn(grid, 1.5 * f.values + 0.5 * g.values)
        lhs = gl_deriv(mix, 0.4).values
        rhs = 1.5 * gl_deriv(f, 0.4).values + 0.5 * gl_deriv(g, 0.4).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10
