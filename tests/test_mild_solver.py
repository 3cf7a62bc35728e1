"""Fixed-point solver tests: assembly, Picard convergence, dependence."""

import math

import numpy as np
import pytest

from sobfrac.errors import (DomainError, NonConvergenceError,
                            RejectedInstanceError)
from sobfrac.fracops import TimeGrid
from sobfrac.mild_solver import (MAX_ITER, Nonlinearity, ProblemSpec,
                                 SolveReport, Trajectory, ZERO_NONLINEARITY,
                                 _SweepWorkspace, _control_forcing,
                                 _control_forcing_adjoint, _fixed_point,
                                 adjoint_solve, apply_P, eval_f, f_modes,
                                 picard_solve, sin_gradient)
from sobfrac.optctrl import ControlBundle
from sobfrac.solution_ops import SolutionOperatorCache
from sobfrac.specfun import FracOrder, gamma, mittag_leffler
from sobfrac.spectral import (SpectralField, apply_Bi, grid_to_field, norm_q,
                              projection_matrix)
from test_specfun import ALPHAS


def make_spec(alpha=0.8, n=16, m=512, u0=None, v0=None, **kw):
    u0 = u0 if u0 is not None else SpectralField(
        np.array([0.5, 0.2] + [0.0] * (n - 2)))
    v0 = v0 if v0 is not None else SpectralField.unit(n, 1)
    return ProblemSpec(FracOrder(alpha, q=0.25, p=2.0), 1.0, n, m, u0, v0, **kw)


def closed_form_mode(alpha, n, t, v0n, u0n):
    lam = n * n / (1.0 + n * n)
    bracket = v0n + t ** (1.0 - alpha) / gamma(2.0 - alpha) * u0n
    return (-(1.0 + n * n) / (n * n)
            * mittag_leffler(alpha, 1.0, -lam * t ** alpha) / (1 + n * n) * bracket)


@pytest.fixture(scope="module")
def cache16():
    return SolutionOperatorCache(FracOrder(0.8, q=0.25, p=2.0), 16)


class TestEvalF:
    def test_zero(self):
        spec = make_spec()
        out = eval_f(spec, 0.3, SpectralField(np.ones(16)))
        assert out.norm() == 0.0

    def test_sine_of_gradient_at_zero_field(self):
        spec = make_spec(nonlinearity=sin_gradient(0.5))
        out = eval_f(spec, 0.0, SpectralField.zero(16))
        assert out.norm() <= 1e-14

    def test_growth_bound(self):
        spec = make_spec(nonlinearity=sin_gradient(0.1))
        a_f = spec.nonlinearity.a_f
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = SpectralField(rng.standard_normal(16))
            bound = a_f * (1.0 + norm_q(u, 0.25))
            assert eval_f(spec, 0.0, u).norm() <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("make", [
        lambda: Nonlinearity("custom"),
        lambda: sin_gradient(math.inf),
        lambda: sin_gradient(math.nan),
    ], ids=["custom_kind", "inf_gain", "nan_gain"])
    def test_unknown_kind_and_non_finite_gain_rejected(self, make):
        with pytest.raises(DomainError):
            make()


def per_field_eval_f(spec, t, u):
    """eval_f as one apply_Bi and one grid_to_field: the per-field path
    that f_modes replaced."""
    nl = spec.nonlinearity
    return grid_to_field(nl.gain * np.sin(apply_Bi(1, u)), spec.mode_count)


class TestBatchedEvalF:
    @pytest.mark.parametrize("n", [5, 16])
    @pytest.mark.parametrize("nonlinearity", [sin_gradient(0.1)], ids=["sin_grad"])
    def test_matches_per_field_path_bitwise(self, n, nonlinearity):
        spec = make_spec(n=n, m=8, nonlinearity=nonlinearity)
        rng = np.random.default_rng(n)
        ts = rng.uniform(0.0, 1.0, 40)
        fields = rng.standard_normal((40, n))
        batched = f_modes(spec, ts, fields)
        for t, row, got in zip(ts, fields, batched):
            want = per_field_eval_f(spec, t, SpectralField(row)).coeffs
            assert np.array_equal(eval_f(spec, t, SpectralField(row)).coeffs, want)
            assert np.array_equal(got, want)


def sweep_bracket(spec, cache, traj):
    """Bracketed data term v0 + kappa(t) (u0 + h(u)) at every node, read off
    one application of P: with f = 0 and no controls it is S(t)
    [smoothing] times the bracket, node by node."""
    ws = _SweepWorkspace(spec, cache)
    return apply_P(spec, cache, traj).coeffs / ws.s_lm


class TestNonlocalBracket:
    def test_reduces_to_v0(self, cache16):
        spec = make_spec(u0=SpectralField.zero(16))
        traj = Trajectory.zero(spec.grid, 16)
        bracket = sweep_bracket(spec, cache16, traj)
        for node in (0, 17, 512):
            out = SpectralField(bracket[node])
            assert (out - spec.v0).norm() <= 1e-14

    def test_kernel_closed_form(self, cache16):
        spec = make_spec(u0=SpectralField.unit(16, 1),
                         v0=SpectralField.zero(16))
        traj = Trajectory.zero(spec.grid, 16)
        alpha = 0.8
        bracket = sweep_bracket(spec, cache16, traj)
        for node in (1, 100, 512):
            t = node * spec.grid.dt
            expect = t ** (1 - alpha) / gamma(2 - alpha)
            assert abs(bracket[node, 0] - expect) <= 1e-10

    def test_single_term_adds_by_linearity(self, cache16):
        spec = make_spec(u0=SpectralField.zero(16),
                         v0=SpectralField.zero(16),
                         nonlocal_terms=((1.0, 0.5),))
        coeffs = np.zeros((513, 16))
        coeffs[256, 1] = 1.0  # w2 at the snapped node t = 0.5
        traj = Trajectory(spec.grid, coeffs)
        alpha = 0.8
        t = 300 * spec.grid.dt
        bracket = sweep_bracket(spec, cache16, traj)
        assert abs(bracket[300, 1] - t ** (1 - alpha) / gamma(2 - alpha)) <= 1e-10

    def test_off_grid_time_warns(self, cache16):
        spec = make_spec(m=7, nonlocal_terms=((0.5, 0.33),))
        traj = Trajectory.zero(spec.grid, 16)
        with pytest.warns(UserWarning):
            apply_P(spec, cache16, traj)


class TestApplyP:
    def test_zero_data_gives_zero(self):
        spec = make_spec(u0=SpectralField.zero(16), v0=SpectralField.zero(16))
        cache = SolutionOperatorCache(spec.order, 16)
        out = apply_P(spec, cache, Trajectory.zero(spec.grid, 16))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_mode_one_composition_symbol(self, cache16):
        # data smoothing composed with L has per-mode value -2 at n = 1
        spec = make_spec(u0=SpectralField.zero(16))
        out = apply_P(spec, cache16, Trajectory.zero(spec.grid, 16))
        for node in (0, 64, 512):
            t = node * spec.grid.dt
            expect = -2.0 * cache16.multiplier_rows(t)[0][0]
            assert abs(out.coeffs[node, 0] - expect) <= 1e-12

    def test_fixed_point_residual(self, cache16):
        spec = make_spec(nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=sin_gradient(0.1))
        traj, rep = picard_solve(spec, cache=cache16, tol=1e-8)
        again = apply_P(spec, cache16, traj)
        defect = max(
            norm_q(SpectralField(again.coeffs[m] - traj.coeffs[m]), 0.25)
            for m in range(spec.step_count + 1))
        assert defect <= 2e-8

    def test_small_cache_rejected(self):
        spec = make_spec(n=8, m=32)
        small_cache = SolutionOperatorCache(spec.order, 4)
        with pytest.raises(DomainError, match="fewer modes"):
            apply_P(spec, small_cache, Trajectory.zero(spec.grid, 8))


class TestControlForcing:
    @pytest.fixture()
    def spec(self):
        return make_spec(n=8, m=32, control_count=1)

    def test_horizon_mismatch_rejected(self, spec):
        # same step count, horizon 5 instead of 1
        bundle = ControlBundle(np.full((1, 32, 4), 0.1), TimeGrid(5.0, 32))
        with pytest.raises(DomainError, match="grid"):
            picard_solve(spec, cache=SolutionOperatorCache(spec.order, 8),
                         controls=bundle)

    def test_extra_control_modes_rejected(self, spec):
        bundle = ControlBundle(np.full((1, 32, 12), 0.1), spec.grid)
        with pytest.raises(DomainError, match="modes"):
            picard_solve(spec, cache=SolutionOperatorCache(spec.order, 8),
                         controls=bundle)

    def test_forcing_integrates_the_cells_exactly(self):
        # one unit cell [t_5, t_6) at dt = 0.1: nothing of it has entered
        # by t_5, all of it (0.1) from t_6 on
        spec = ProblemSpec(FracOrder(0.8, q=0.25, p=2.0), 1.0, 4, 10,
                           SpectralField.unit(4, 1), SpectralField.unit(4, 1),
                           control_count=1)
        x = np.zeros((1, 10, 2))
        x[0, 5, 0] = 1.0
        forcing = _control_forcing(spec, ControlBundle(x, spec.grid))
        assert np.all(forcing[:6] == 0.0)
        assert np.allclose(forcing[6:, 0], 0.1, rtol=0.0, atol=1e-15)
        assert np.all(forcing[:, 1:] == 0.0)

    @pytest.mark.parametrize("m", [2, 7, 64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_adjoint_is_transpose(self, m, k):
        # <F x, y> = <x, F^T y>
        spec = make_spec(n=8, m=m, control_count=k)
        rng = np.random.default_rng(100 * m + k)
        x = rng.standard_normal((k, m, 3))
        y = rng.standard_normal((m + 1, 8))
        lhs = float(np.sum(_control_forcing(spec, ControlBundle(x, spec.grid)) * y))
        grad = _control_forcing_adjoint(spec, y)
        assert grad.shape == (m, 8)
        rhs = float(np.sum(x * grad[None, :, :3]))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def reference_sweep(spec, ws, coeffs, ctrl_forcing):
    """The sweep with per-node eval_f and a direct causal convolution: the
    slow reference for the batched collocation transforms and the FFT."""
    h = sum(c * coeffs[idx] for c, idx, _ in ws.snaps)
    out = ws.s_lm * (spec.v0.coeffs + ws.kappa[:, None] * (spec.u0.coeffs + h))
    forcing = ctrl_forcing + np.array(
        [eval_f(spec, t, SpectralField(row)).coeffs
         for t, row in zip(spec.grid.nodes(), coeffs)])
    for n in range(spec.mode_count):
        out[1:, n] += np.convolve(ws.kernel[:, n], forcing[:-1, n])[:spec.step_count]
    return out


class TestBatchedSweep:
    def test_matches_per_node_reference(self, cache16):
        # README solve config
        spec = make_spec(nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=sin_gradient(0.1))
        ws = _SweepWorkspace(spec, cache16)
        traj, _ = picard_solve(spec, workspace=ws, tol=1e-8)
        rng = np.random.default_rng(6)
        controls = ControlBundle(0.1 * rng.standard_normal((1, 512, 16)),
                                 spec.grid)
        ctrl_forcing = _control_forcing(spec, controls)
        for coeffs in (traj.coeffs, rng.standard_normal(traj.coeffs.shape)):
            got = apply_P(spec, cache16, Trajectory(spec.grid, coeffs), controls)
            want = reference_sweep(spec, ws, coeffs, ctrl_forcing)
            assert np.max(np.abs(got.coeffs - want)) <= 1e-14


class TestPicardSolve:
    def test_linear_instance_matches_oracle(self, cache16):
        spec = make_spec()
        traj, rep = picard_solve(spec, cache=cache16, tol=1e-10)
        assert rep.converged
        # constant map: exact after one sweep, which is where it stops
        assert rep.iterations == 1
        assert rep.residual_history[-1] <= 1e-14
        ts = spec.grid.nodes()
        for n in (1, 2, 7, 16):
            for node in (0, 13, 256, 512):
                expect = closed_form_mode(0.8, n, ts[node],
                                          spec.v0.coeffs[n - 1],
                                          spec.u0.coeffs[n - 1])
                assert abs(traj.coeffs[node, n - 1] - expect) <= 1e-6

    def test_nonlinear_instance_converges(self, cache16):
        spec = make_spec(nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=sin_gradient(0.1))
        traj, rep = picard_solve(spec, cache=cache16, tol=1e-8)
        assert rep.converged
        assert rep.contraction_ratio < 1.0
        hist = rep.residual_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        # geometric decay over the last three steps
        for a, b in zip(hist[-3:], hist[-2:]):
            assert b / a < 1.0

    def test_continuous_dependence_linear_response(self, cache16):
        base = make_spec(nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=sin_gradient(0.1))
        traj0, _ = picard_solve(base, cache=cache16, tol=1e-11)

        def perturbed(delta):
            u0 = SpectralField(base.u0.coeffs + np.eye(16)[0] * delta)
            spec = make_spec(u0=u0, nonlocal_terms=((0.3, 0.5),),
                             nonlinearity=sin_gradient(0.1))
            traj, _ = picard_solve(spec, cache=cache16, tol=1e-11)
            return max(norm_q(SpectralField(traj.coeffs[m] - traj0.coeffs[m]), 0.25)
                       for m in range(base.step_count + 1))

        delta = 1e-3
        d1 = perturbed(delta)
        d2 = perturbed(delta / 2.0)
        k1 = d1 / delta
        assert np.isfinite(k1) and k1 > 0.0
        assert abs(k1 / (d2 / (delta / 2.0)) - 1.0) <= 0.1

    def test_uniqueness_under_different_starts(self, cache16):
        spec = make_spec(nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=sin_gradient(0.1))
        t1, _ = picard_solve(spec, cache=cache16, tol=1e-10)
        t2, _ = picard_solve(spec, cache=cache16, tol=1e-10,
                             initial=Trajectory.zero(spec.grid, 16))
        diff = max(norm_q(SpectralField(t1.coeffs[m] - t2.coeffs[m]), 0.25)
                   for m in range(spec.step_count + 1))
        assert diff <= 2e-10

    def test_non_contractive_instance_raises(self, cache16):
        # the nonlocal condition is eliminated in each sweep, so only a
        # strong nonlinearity keeps the iteration from contracting
        spec = make_spec(nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=sin_gradient(40.0))
        with pytest.raises(NonConvergenceError) as err:
            picard_solve(spec, cache=cache16, tol=1e-8, max_iter=25)
        assert len(err.value.residual_history) == 25

    @pytest.mark.parametrize("max_iter", (0, -3))
    def test_no_sweep_budget_rejected(self, max_iter, cache16):
        spec = make_spec(m=32)
        with pytest.raises(DomainError, match="max_iter"):
            picard_solve(spec, cache=cache16, max_iter=max_iter)
        ws = _SweepWorkspace(spec, cache16)
        traj, _ = picard_solve(spec, workspace=ws)
        with pytest.raises(DomainError, match="max_iter"):
            adjoint_solve(spec, traj, traj.coeffs, ws, max_iter=max_iter)

    def test_exponent_precondition(self):
        with pytest.raises(RejectedInstanceError):
            spec = ProblemSpec(FracOrder(0.5, q=0.5, p=1.5), 1.0, 4, 8,
                               SpectralField.zero(4), SpectralField.zero(4),
                               control_count=1)
            picard_solve(spec)

    def test_forced_instance_first_order_refinement(self):
        # constant forcing exercises the discretized convolution; its error
        # against the two-parameter Mittag-Leffler closed form halves with dt.
        # With f = 0 the forcing goes straight into one sweep, which is exact.
        g = projection_matrix(8, 32) @ np.ones(32)
        errors = []
        for m in (128, 256):
            spec = make_spec(n=8, m=m, u0=SpectralField.zero(8),
                             v0=SpectralField.zero(8))
            ws = _SweepWorkspace(spec, SolutionOperatorCache(spec.order, 8))
            coeffs = ws.sweep(ws.initial(), np.tile(g, (m + 1, 1)))
            ts = spec.grid.nodes()
            worst = 0.0
            for n in range(1, 9):
                lam = n * n / (1.0 + n * n)
                ref = np.array([
                    g[n - 1] * t ** 0.8
                    * mittag_leffler(0.8, 1.8, -lam * t ** 0.8) / (1 + n * n)
                    for t in ts])
                worst = max(worst, np.max(np.abs(coeffs[:, n - 1] - ref)))
            errors.append(worst)
        assert errors[0] / errors[1] >= 1.5

    def test_grid_consistency_checked(self, cache16):
        spec = make_spec()
        small_cache = SolutionOperatorCache(spec.order, 4)
        with pytest.raises(DomainError):
            picard_solve(spec, cache=small_cache)


def plain_picard(spec, cache, tol):
    """Picard iteration of apply_P, the paper's map with h read from the
    iterate: the slow reference for the eliminated sweep."""
    ws = _SweepWorkspace(spec, cache)
    return _fixed_point(
        lambda c: apply_P(spec, cache, Trajectory(spec.grid, c)).coeffs,
        ws.initial(), ws.residual, SolveReport(), "plain Picard", tol, MAX_ITER)


def p_residual(spec, cache, traj):
    """Sup q-norm distance between traj and P(traj)."""
    ws = _SweepWorkspace(spec, cache)
    return ws.residual(apply_P(spec, cache, traj).coeffs, traj.coeffs)


class TestNonlocalElimination:
    @pytest.mark.parametrize("kw", [
        dict(nonlinearity=sin_gradient(0.1)),          # README grid
        dict(n=8, m=64),                               # acceptance grid, f = 0
        dict(nonlinearity=sin_gradient(6.0)),
    ], ids=["readme", "acceptance", "sin_grad_6"])
    def test_agrees_with_plain_picard(self, kw):
        spec = make_spec(nonlocal_terms=((0.3, 0.5),), **kw)
        cache = SolutionOperatorCache(spec.order, spec.mode_count)
        traj, _ = picard_solve(spec, cache=cache, tol=1e-13)
        want = plain_picard(spec, cache, 1e-13)
        assert np.max(np.linalg.norm(traj.coeffs - want, axis=1)) <= 1e-11

    @pytest.mark.parametrize("c", [3.0, 50.0])
    @pytest.mark.parametrize("nonlinearity", [ZERO_NONLINEARITY, sin_gradient(0.1)],
                             ids=["zero", "sin_grad"])
    def test_large_weights_solve(self, c, nonlinearity, cache16):
        # plain Picard iteration diverges at these weights
        spec = make_spec(nonlocal_terms=((c, 0.5),), nonlinearity=nonlinearity)
        traj, rep = picard_solve(spec, cache=cache16, tol=1e-12)
        assert rep.converged
        assert p_residual(spec, cache16, traj) <= 1e-12

    def test_linear_solve_is_one_sweep(self, cache16):
        spec = make_spec(nonlocal_terms=((0.3, 0.5),))
        _, rep = picard_solve(spec, cache=cache16, tol=1e-12)
        # the first sweep is exact, and f = 0 means no second is needed
        assert rep.iterations == 1
        assert rep.residual_history[-1] <= 1e-15

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_denominator_at_least_one(self, alpha):
        spec = make_spec(alpha=alpha, n=8, m=64,
                         nonlocal_terms=((0.3, 0.25), (50.0, 0.5), (3.0, 0.75)))
        cache = SolutionOperatorCache(spec.order, 8)
        ws = _SweepWorkspace(spec, cache)
        assert np.all(ws.denominator >= 1.0)
        assert np.min(ws.denominator) > 1.0
        _, rep = picard_solve(spec, workspace=ws)
        assert rep.nonlocal_denominator_min == np.min(ws.denominator)

    def test_denominator_without_nonlocal_terms(self, cache16):
        _, rep = picard_solve(make_spec(), cache=cache16)
        assert rep.nonlocal_denominator_min == 1.0


class TestProblemSpecValidation:
    def test_nonlocal_ordering(self):
        with pytest.raises(DomainError):
            make_spec(nonlocal_terms=((0.3, 0.7), (0.2, 0.5)))
        with pytest.raises(DomainError):
            make_spec(nonlocal_terms=((-0.3, 0.5),))
        with pytest.raises(DomainError):
            make_spec(nonlocal_terms=((0.3, 1.5),))

    def test_mode_count_consistency(self):
        with pytest.raises(DomainError):
            ProblemSpec(FracOrder(0.8), 1.0, 8, 16,
                        SpectralField.zero(4), SpectralField.zero(8))
