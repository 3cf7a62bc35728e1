"""Fixed-point solver tests: assembly, Picard convergence, dependence."""

import dataclasses
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from sobfrac import cli
from sobfrac.errors import (DomainError, EvaluationError, NonConvergenceError,
                            RejectedInstanceError)
from sobfrac.fracops import FracOrder, SampledFn, TimeGrid
from sobfrac.mild_solver import (GRID_STATIC_MEMO, MAX_ITER, Nonlinearity,
                                 ProblemSpec, Trajectory,
                                 _SweepWorkspace, _adjoint, _control_forcing, _grid_static,
                                 _control_forcing_adjoint, _fixed_point,
                                 apply_P, eval_f, nonlocal_node_weights, picard_solve)
from sobfrac.optctrl import (ControlBundle, CostSpec, _adjoint_gradient, _gradient_rows,
                             optimize_controls, zero_bundle)
from sobfrac.solution_ops import SolutionOperatorCache
from sobfrac.specfun import gamma, mittag_leffler
from sobfrac.spectral import (apply_Bi, collocation_maps, data_smoothing_symbol,
                              generator_symbol, grid_to_field, l_inverse_symbol, norm_q)
from test_specfun import ALPHAS


def make_spec(alpha=0.8, n=16, m=512, u0=None, v0=None, **kw):
    u0 = u0 if u0 is not None else np.array([0.5, 0.2] + [0.0] * (n - 2))
    v0 = v0 if v0 is not None else np.eye(n)[0]
    return ProblemSpec(FracOrder(alpha, q=0.25, p=2.0), 1.0, n, m, u0, v0, **kw)


def closed_form_mode(alpha, n, t, v0n, u0n):
    lam = n * n / (1.0 + n * n)
    bracket = v0n + t ** (1.0 - alpha) / gamma(2.0 - alpha) * u0n
    return (-(1.0 + n * n) / (n * n)
            * mittag_leffler(alpha, 1.0, -lam * t ** alpha) / (1 + n * n) * bracket)


@pytest.fixture(scope="module")
def cache16():
    return SolutionOperatorCache(FracOrder(0.8, q=0.25, p=2.0), 16)


class TestRecordArrays:
    """A problem's u0 and v0, and a trajectory's coefficients, are
    read-only float copies of a checked shape, with finite entries only."""

    @pytest.mark.parametrize("make, good, wrong", (
        (lambda c: make_spec(n=4, m=8, u0=c).u0, np.ones(4),
         (np.ones((4, 1)), np.ones(3), np.ones(0))),
        (lambda c: make_spec(n=4, m=8, v0=c).v0, np.ones(4),
         (np.ones((4, 1)), np.ones(5))),
        (lambda c: Trajectory(TimeGrid(1.0, 4), c).coeffs, np.ones((5, 3)),
         (np.ones((4, 3)), np.ones(15))),
    ), ids=("problem_u0", "problem_v0", "trajectory"))
    def test_copy_shape_and_finiteness(self, make, good, wrong):
        source = good.copy()
        held = make(source)
        source[0] = 2.0
        assert np.all(held == 1.0) and held.dtype == float
        with pytest.raises(ValueError):
            held[0] = 2.0
        for bad in wrong:
            with pytest.raises(DomainError, match="shape"):
                make(bad)
        source[0] = math.nan
        with pytest.raises(DomainError, match="finite"):
            make(source)

    def test_records_compare_and_hash_by_identity(self):
        # an elementwise array comparison would raise "truth value of an
        # array ... is ambiguous" in ==, and hashing an array a TypeError
        grid = TimeGrid(1.0, 4)
        for make in (lambda: make_spec(n=4, m=8),
                     lambda: Trajectory(grid, np.ones((5, 3))),
                     lambda: ControlBundle(np.ones((1, 4, 2)), grid),
                     lambda: SampledFn(grid, np.ones(5))):
            record, twin = make(), make()
            assert record == record and record != twin
            assert hash(record) == hash(record)
        # a problem holds u0 and v0, so even a copy of its fields is another problem
        spec = make_spec(n=4, m=8)
        assert spec != dataclasses.replace(spec)
        text = "[problem]\nalpha = 0.8\nhorizon = 1.0\nmodes = 4\nsteps = 8\nu0 = 1:0.5\n"
        first, second = cli.parse_config(text), cli.parse_config(text)
        assert first == first and first != second and first.problem != second.problem


class TestEvalF:
    def test_zero(self):
        spec = make_spec()
        out = eval_f(spec, 0.3, np.ones(16))
        assert np.linalg.norm(out) == 0.0

    def test_sine_of_gradient_at_zero_field(self):
        spec = make_spec(nonlinearity=Nonlinearity(0.5))
        out = eval_f(spec, 0.0, np.zeros(16))
        assert np.linalg.norm(out) <= 1e-14

    def test_growth_bound(self):
        spec = make_spec(nonlinearity=Nonlinearity(0.1))
        a_f = spec.nonlinearity.a_f
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.standard_normal(16)
            bound = a_f * (1.0 + norm_q(u, 0.25))
            assert np.linalg.norm(eval_f(spec, 0.0, u)) <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("gain", [math.inf, math.nan],
                             ids=["inf_gain", "nan_gain"])
    def test_non_finite_gain_rejected(self, gain):
        with pytest.raises(DomainError, match="finite"):
            Nonlinearity(gain)


def per_field_eval_f(spec, t, u):
    """eval_f as one apply_Bi and one grid_to_field."""
    nl = spec.nonlinearity
    return grid_to_field(nl.gain * np.sin(apply_Bi(1, u)), spec.mode_count)


class TestBatchedEvalF:
    @pytest.mark.parametrize("n", [5, 16])
    @pytest.mark.parametrize("nonlinearity", [Nonlinearity(0.1)], ids=["sin_grad"])
    def test_matches_per_field_path_bitwise(self, n, nonlinearity):
        spec = make_spec(n=n, m=8, nonlinearity=nonlinearity)
        rng = np.random.default_rng(n)
        ts = rng.uniform(0.0, 1.0, 40)
        fields = rng.standard_normal((40, n))
        for t, row in zip(ts, fields):
            want = per_field_eval_f(spec, t, row)
            assert np.array_equal(eval_f(spec, t, row), want)


def sweep_bracket(spec, cache, traj):
    """Bracketed data term v0 + kappa(t) (u0 + h(u)) at every node, read off
    one application of P: with f = 0 and no controls it is S(t)
    [smoothing] times the bracket, node by node."""
    ws = _SweepWorkspace(spec, cache.node_count)
    return apply_P(spec, cache, traj).coeffs / ws.s_lm


class TestNonlocalBracket:
    def test_reduces_to_v0(self, cache16):
        spec = make_spec(u0=np.zeros(16))
        traj = Trajectory(spec.grid, np.zeros((spec.step_count + 1, 16)))
        bracket = sweep_bracket(spec, cache16, traj)
        for node in (0, 17, 512):
            assert np.linalg.norm(bracket[node] - spec.v0) <= 1e-14

    def test_kernel_closed_form(self, cache16):
        spec = make_spec(u0=np.eye(16)[0], v0=np.zeros(16))
        traj = Trajectory(spec.grid, np.zeros((spec.step_count + 1, 16)))
        alpha = 0.8
        bracket = sweep_bracket(spec, cache16, traj)
        for node in (1, 100, 512):
            t = node * spec.grid.dt
            expect = t ** (1 - alpha) / gamma(2 - alpha)
            assert abs(bracket[node, 0] - expect) <= 1e-10

    def test_single_term_adds_by_linearity(self, cache16):
        spec = make_spec(u0=np.zeros(16), v0=np.zeros(16),
                         nonlocal_terms=((1.0, 0.5),))
        coeffs = np.zeros((513, 16))
        coeffs[256, 1] = 1.0  # w2 at the snapped node t = 0.5
        traj = Trajectory(spec.grid, coeffs)
        alpha = 0.8
        t = 300 * spec.grid.dt
        bracket = sweep_bracket(spec, cache16, traj)
        assert abs(bracket[300, 1] - t ** (1 - alpha) / gamma(2 - alpha)) <= 1e-10

    def test_off_grid_time_reads_both_neighbours(self, cache16):
        # 0.33 = 2.31 dt: h reads nodes 2 and 3 by linear interpolation,
        # which is exact on a trajectory linear in t
        spec = make_spec(m=7, u0=np.zeros(16), v0=np.zeros(16),
                         nonlocal_terms=((0.5, 0.33),))
        coeffs = np.zeros((8, 16))
        coeffs[:, 1] = spec.grid.nodes()
        bracket = sweep_bracket(spec, cache16, Trajectory(spec.grid, coeffs))
        t = 5 * spec.grid.dt
        want = t ** (1 - 0.8) / gamma(2 - 0.8) * 0.5 * 0.33
        assert abs(bracket[5, 1] - want) <= 1e-12


class TestApplyP:
    def test_zero_data_gives_zero(self):
        spec = make_spec(u0=np.zeros(16), v0=np.zeros(16))
        cache = SolutionOperatorCache(spec.order, 16)
        zero = Trajectory(spec.grid, np.zeros((spec.step_count + 1, 16)))
        out = apply_P(spec, cache, zero)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_mode_one_composition_symbol(self, cache16):
        # data smoothing composed with L has per-mode value -2 at n = 1
        spec = make_spec(u0=np.zeros(16))
        zero = Trajectory(spec.grid, np.zeros((spec.step_count + 1, 16)))
        out = apply_P(spec, cache16, zero)
        for node in (0, 64, 512):
            t = node * spec.grid.dt
            expect = -2.0 * cache16.multiplier_rows(t)[0][0]
            assert abs(out.coeffs[node, 0] - expect) <= 1e-12

    def test_fixed_point_residual(self, cache16):
        spec = make_spec(nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=Nonlinearity(0.1))
        traj, rep = picard_solve(spec, cache=cache16, tol=1e-8)
        again = apply_P(spec, cache16, traj)
        defect = max(
            norm_q(again.coeffs[m] - traj.coeffs[m], 0.25)
            for m in range(spec.step_count + 1))
        assert defect <= 2e-8

    def test_narrower_cache_is_bit_identical(self):
        # the cache lends only its rule size: the table is built for the
        # problem's modes, so a 4-mode cache solves an 8-mode problem
        spec = make_spec(n=8, m=64, nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=Nonlinearity(0.1))
        solved = []
        for modes in (4, 8):
            _grid_static.cache_clear()
            cache = SolutionOperatorCache(spec.order, modes)
            traj, _ = picard_solve(spec, cache=cache)
            solved.append(apply_P(spec, cache, traj).coeffs)
        assert np.array_equal(solved[0], solved[1])


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
                           np.eye(4)[0], np.eye(4)[0],
                           control_count=1)
        x = np.zeros((1, 10, 2))
        x[0, 5, 0] = 1.0
        forcing = _control_forcing(spec, ControlBundle(x, spec.grid))
        assert np.all(forcing[:6] == 0.0)
        assert np.allclose(forcing[6:, 0], 0.1, rtol=0.0, atol=1e-15)
        assert np.all(forcing[:, 1:] == 0.0)

    @pytest.mark.parametrize("declared, supplied", [(0, 1), (2, 1), (1, 2), (2, 0)])
    def test_count_mismatch_refused_alike(self, declared, supplied):
        # the map and the solve read a bundle through one check
        spec = make_spec(n=8, m=32, control_count=declared)
        bundle = ControlBundle(np.full((supplied, 32, 4), 0.1), spec.grid)
        zero = Trajectory(spec.grid, np.zeros((33, 8)))
        messages = []
        for call in (lambda: apply_P(spec, None, zero, bundle),
                     lambda: picard_solve(spec, controls=bundle)):
            with pytest.raises(DomainError) as err:
                call()
            messages.append(str(err.value))
        assert messages == [f"bundle supplies {supplied} controls, "
                            f"spec declares {declared}"] * 2

    @pytest.mark.parametrize("m", [2, 7, 64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_adjoint_is_transpose(self, m, k):
        # <F x, y> = <x, F^T y>
        spec = make_spec(n=8, m=m, control_count=k)
        rng = np.random.default_rng(100 * m + k)
        x = rng.standard_normal((k, m, 3))
        y = rng.standard_normal((m + 1, 8))
        lhs = float(np.sum(_control_forcing(spec, ControlBundle(x, spec.grid)) * y))
        grad = _control_forcing_adjoint(spec.grid.dt, y)
        assert grad.shape == (m, 8)
        rhs = float(np.sum(x * grad[None, :, :3]))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def reference_kernel(spec):
    """The kernel rebuilt as the cell differences of the S rows, over
    lambda_n, from one table at the default rule size."""
    s_table = SolutionOperatorCache(spec.order, spec.mode_count).grid_table(spec.grid)
    return (s_table[:-1] - s_table[1:]) / generator_symbol(spec.mode_count)


def reference_sweep(spec, ws, coeffs, ctrl_forcing):
    """The sweep with per-node eval_f and a direct causal convolution: the
    slow reference for the batched collocation transforms and the FFT."""
    kernel = reference_kernel(spec)
    h = sum(w * coeffs[node] for node, w in zip(ws.nodes, ws.weights))
    out = ws.s_lm * (spec.v0 + ws.kappa[:, None] * (spec.u0 + h))
    forcing = ctrl_forcing + np.array(
        [eval_f(spec, t, row) for t, row in zip(spec.grid.nodes(), coeffs)])
    for n in range(spec.mode_count):
        out[1:, n] += np.convolve(kernel[:, n], forcing[:-1, n])[:spec.step_count]
    return out


class TestBatchedSweep:
    def test_matches_per_node_reference(self, cache16):
        # README solve config, with the one control its bundle supplies
        spec = make_spec(nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=Nonlinearity(0.1), control_count=1)
        ws = _SweepWorkspace(spec, cache16.node_count)
        traj, _ = picard_solve(spec, workspace=ws, tol=1e-8)
        rng = np.random.default_rng(6)
        controls = ControlBundle(0.1 * rng.standard_normal((1, 512, 16)),
                                 spec.grid)
        ctrl_forcing = _control_forcing(spec, controls)
        for coeffs in (traj.coeffs, rng.standard_normal(traj.coeffs.shape)):
            got = apply_P(spec, cache16, Trajectory(spec.grid, coeffs), controls)
            want = reference_sweep(spec, ws, coeffs, ctrl_forcing)
            assert np.max(np.abs(got.coeffs - want)) <= 1e-14


def allocating_fftconvolve(kernel_spectrum, signal):
    """The convolution with every step in a fresh array."""
    n = 2 * (kernel_spectrum.shape[0] - 1)
    return np.fft.irfft(kernel_spectrum * np.fft.rfft(signal, n, axis=0),
                        n, axis=0)[:signal.shape[0]]


def allocating_correlate(kernel_spectrum, lam):
    """The kernel's transpose with every step in a fresh array."""
    return allocating_fftconvolve(kernel_spectrum, lam[:0:-1])[::-1]


def allocating_finite(out):
    bad = ~np.all(np.isfinite(out), axis=1)
    if np.any(bad):
        raise EvaluationError(f"non-finite trajectory value at node {int(np.argmax(bad))}")
    return out


class AllocatingWorkspace(_SweepWorkspace):
    """The sweeps as allocating expressions, with no scratch reused, the
    kernel rebuilt from its own table and the nonlocal weights read one
    term at a time: the bit-for-bit oracle for the workspace's buffers
    and its indexed reads and adds, which keep every operand and its
    order."""

    def __init__(self, spec):
        super().__init__(spec)
        self.reference_spectrum = np.fft.rfft(reference_kernel(spec), 2 * spec.step_count,
                                              axis=0)

    def response(self, coeffs, ctrl_forcing):
        out = self.data.copy()
        forcing = ctrl_forcing[:-1]
        gain = self.spec.nonlinearity.gain
        if gain != 0.0:
            forcing = forcing + (gain * np.sin(coeffs[:-1] @ self.D.T)) @ self.P.T
        if np.any(forcing):
            out[1:] += allocating_fftconvolve(self.reference_spectrum, forcing)
        return out

    def nonlocal_sum(self, coeffs):
        h = np.zeros(coeffs.shape[1])
        for node, w in zip(self.nodes, self.weights):
            h += w * coeffs[node]
        return h

    def sweep(self, coeffs, ctrl_forcing):
        out = self.response(coeffs, ctrl_forcing)
        if self.nodes.size:
            out += self.feedback * (self.nonlocal_sum(out) / self.denominator)
        return allocating_finite(out)

    def slope(self, coeffs):
        gain = self.spec.nonlinearity.gain
        return None if gain == 0.0 else gain * np.cos(coeffs[:-1] @ self.D.T)

    def adjoint_sweep(self, lam, source, slope):
        out = source.copy()
        if slope is not None:
            out[:-1] += ((allocating_correlate(self.reference_spectrum, lam) @ self.P)
                         * slope) @ self.D
        if self.nodes.size:
            g = np.sum(self.feedback * out, axis=0) / self.denominator
            for node, w in zip(self.nodes, self.weights):
                out[node] += w * g
        return allocating_finite(out)

    def residual(self, new, old):
        return float(np.max(np.linalg.norm((new - old) * self.q_scale[None, :], axis=1)))


def allocating_apply_P(spec, coeffs, controls):
    ws = AllocatingWorkspace(spec)
    out = ws.response(coeffs, _control_forcing(spec, controls))
    out += ws.feedback * ws.nonlocal_sum(coeffs)
    return allocating_finite(out)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def allocation_peak(call) -> int:
    """tracemalloc peak, in bytes, of a call beyond what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def readme_spec(**kw):
    return make_spec(nonlocal_terms=((0.3, 0.5),), nonlinearity=Nonlinearity(0.1), **kw)


def random_controls(spec, seed):
    rng = np.random.default_rng(seed)
    return ControlBundle(0.1 * rng.standard_normal((spec.control_count, spec.step_count, 4)),
                         spec.grid)


class TestScratchBuffers:
    """The workspace's sweeps write into buffers it owns and give the
    allocating expressions' results bit for bit."""

    # one block of the README collocation grid, 512 x 64 doubles
    BLOCK = 512 * 64 * 8

    @pytest.mark.parametrize("spec", [
        readme_spec(control_count=2),
        readme_spec(),
        make_spec(alpha=1.0, n=8, m=64, nonlocal_terms=((0.3, 0.5),),
                  nonlinearity=Nonlinearity(0.1), control_count=2),
        # f = 0 with controls: the convolution optimize_linear runs
        make_spec(n=8, m=64, nonlocal_terms=((0.3, 0.5),), control_count=2),
        # f = 0 without controls: the sweep never convolves
        make_spec(n=8, m=64, nonlocal_terms=((0.3, 0.5),)),
        # off-grid times, two of them sharing nodes 25 and 26
        make_spec(n=8, m=64, nonlocal_terms=((0.3, 0.4), (0.2, 0.401), (0.5, 0.75)),
                  nonlinearity=Nonlinearity(0.1), control_count=2),
    ], ids=["readme_controls", "readme", "alpha_one", "linear_controls", "linear",
            "off_grid"])
    def test_matches_allocating_oracle_bitwise(self, spec):
        controls = random_controls(spec, 1) if spec.control_count else None
        ctrl_forcing = _control_forcing(spec, controls)
        ws, oracle = _SweepWorkspace(spec), AllocatingWorkspace(spec)
        rng = np.random.default_rng(2)
        # two iterates in a row on one workspace: a stale buffer would show
        for _ in range(2):
            coeffs = rng.standard_normal((spec.step_count + 1, spec.mode_count))
            lam = rng.standard_normal(coeffs.shape)
            assert_same_bits(ws.sweep(coeffs, ctrl_forcing),
                             oracle.sweep(coeffs, ctrl_forcing))
            assert_same_bits(apply_P(spec, None, Trajectory(spec.grid, coeffs),
                                     controls).coeffs,
                             allocating_apply_P(spec, coeffs, controls))
            slope = ws.slope(coeffs)
            if slope is not None:
                assert_same_bits(slope, oracle.slope(coeffs))
            assert_same_bits(ws.adjoint_sweep(lam, coeffs, slope),
                             oracle.adjoint_sweep(lam, coeffs, slope))
            forcing = coeffs[:-1]
            assert_same_bits(ws.kernel.apply(forcing),
                             allocating_fftconvolve(oracle.reference_spectrum, forcing))
            assert_same_bits(ws.kernel.apply_T(lam),
                             allocating_correlate(oracle.reference_spectrum, lam))
            assert ws.residual(coeffs, lam).hex() == oracle.residual(coeffs, lam).hex()

    def test_results_do_not_alias_scratch(self):
        spec = readme_spec(control_count=2)
        ws = _SweepWorkspace(spec)
        ctrl_forcing = _control_forcing(spec, random_controls(spec, 3))
        rng = np.random.default_rng(4)
        first, second = (rng.standard_normal((513, 16)) for _ in range(2))
        swept = ws.sweep(first, ctrl_forcing)
        slope = ws.slope(first)
        adjoint = ws.adjoint_sweep(first, first, slope)
        kept = [arr.copy() for arr in (swept, slope, adjoint)]
        ws.sweep(second, ctrl_forcing)
        ws.adjoint_sweep(second, second, ws.slope(second))
        for arr, want in zip((swept, slope, adjoint), kept):
            assert np.array_equal(arr, want)

    def test_warm_sweeps_allocate_less_than_one_block(self):
        # allocating every step, the sweep peaked at 576 KiB and the
        # adjoint sweep at 449 KiB: D u, sin and the gain product were
        # each a fresh block
        spec = readme_spec(control_count=2)
        ws = _SweepWorkspace(spec)
        ctrl_forcing = _control_forcing(spec, random_controls(spec, 5))
        coeffs = np.random.default_rng(6).standard_normal((513, 16))
        slope = ws.slope(coeffs)
        ws.sweep(coeffs, ctrl_forcing)
        ws.adjoint_sweep(coeffs, coeffs, slope)
        assert allocation_peak(lambda: ws.sweep(coeffs, ctrl_forcing)) < self.BLOCK
        assert allocation_peak(lambda: ws.adjoint_sweep(coeffs, coeffs, slope)) < self.BLOCK

    def test_elimination_and_residual_write_the_workspace_block(self):
        # the h elimination, its transpose and the residual write one
        # (M+1) x N block the workspace owns.  numpy's broadcast product
        # still fills its ufunc buffer (the operand or 8,192 elements,
        # whichever is smaller; here both are about one block), so a warm
        # sweep peaks near two row blocks (its result and that buffer), the
        # adjoint sweep near one (its result, plus its finiteness mask, an
        # eighth of one) and the residual near one (that buffer); each
        # allocated one block more per product before
        # (198,440, 132,648 and 198,256 bytes)
        rows = 513 * 16 * 8
        spec = readme_spec(control_count=2)
        ws = _SweepWorkspace(spec)
        ctrl_forcing = _control_forcing(spec, random_controls(spec, 5))
        rng = np.random.default_rng(6)
        coeffs, other = rng.standard_normal((2, 513, 16))
        slope = ws.slope(coeffs)
        calls = (lambda: ws.sweep(coeffs, ctrl_forcing),
                 lambda: ws.adjoint_sweep(coeffs, coeffs, slope),
                 lambda: ws.residual(coeffs, other))
        for call, blocks in zip(calls, (2.5, 1.5, 1.5)):
            call()
            assert allocation_peak(call) < blocks * rows

    def test_undeclared_control_bundle_refused(self):
        # a bundle on a spec that declares no controls: the map and the
        # solve refuse it; the declared problem takes the same bundle
        spec = make_spec(n=8, m=64, nonlocal_terms=((0.3, 0.5),))
        declared = dataclasses.replace(spec, control_count=1)
        controls = random_controls(declared, 8)
        traj = Trajectory(spec.grid, np.random.default_rng(9).standard_normal((65, 8)))
        for call in (lambda: apply_P(spec, None, traj, controls),
                     lambda: picard_solve(spec, controls=controls)):
            with pytest.raises(DomainError,
                               match="^bundle supplies 1 controls, spec declares 0$"):
                call()
        assert_same_bits(apply_P(declared, None, traj, controls).coeffs,
                         allocating_apply_P(declared, traj.coeffs, controls))

    def test_finiteness_check(self):
        ws = _SweepWorkspace(make_spec(n=8, m=64))
        # finite rows whose sums overflow to +-inf pass
        out = np.full((65, 8), 1e308)
        out[1::2] *= -1.0
        assert ws.finite(out) is out
        for node in (0, 17, 64):
            for bad in (math.nan, math.inf, -math.inf):
                hit = out.copy()
                hit[node, 3] = bad
                # a later non-finite node is not the one named
                hit[64, 7] = math.nan
                with pytest.raises(EvaluationError, match=f"at node {node}$"):
                    ws.finite(hit)

    def test_readme_adjoint_gradient_matches_oracle_bitwise(self):
        # the README optimize config: 2 controls of 4 modes on 16 modes
        spec = readme_spec(control_count=2)
        controls = random_controls(spec, 7)
        grads = []
        for ws in (_SweepWorkspace(spec), AllocatingWorkspace(spec)):
            traj, _ = picard_solve(spec, controls=controls, workspace=ws)
            grads.append((traj.coeffs,
                          _adjoint_gradient(_gradient_rows(CostSpec(), spec.grid),
                                            controls.cells, traj.coeffs, ws, 1e-9, MAX_ITER)))
        for got, want in zip(*grads):
            assert_same_bits(got, want)


class TestKernel:
    @pytest.mark.parametrize("spec, seed", [
        (readme_spec(), 1),
        # the optimize template's discretisation, f = 0 with two controls
        (make_spec(n=8, m=64, nonlocal_terms=((0.3, 0.5),), control_count=2), 2),
        (make_spec(alpha=1.0, n=8, m=64, nonlinearity=Nonlinearity(0.1)), 3),
    ], ids=["readme", "optimize_template", "alpha_one"])
    def test_transpose_is_the_adjoint(self, spec, seed):
        # <K f, lam> = <f, K^T lam>: K f fills trajectory rows 1..M, the
        # rows of lam that K^T reads
        kernel = _SweepWorkspace(spec).kernel
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((spec.step_count, spec.mode_count))
        lam = rng.standard_normal((spec.step_count + 1, spec.mode_count))
        lhs = float(np.sum(kernel.apply(f) * lam[1:]))
        rhs = float(np.sum(f * kernel.apply_T(lam)))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    @pytest.mark.parametrize("alpha", (0.3, 0.8, 1.0))
    def test_kernel_rows_are_mittag_leffler_cell_differences(self, alpha):
        # the kernel row at lag cell d is the integral of tau^(alpha-1) T(tau)
        # over [(d-1) dt, d dt], L^-1 (E_a(-lam ((d-1) dt)^a) - E_a(-lam (d dt)^a)) / lam
        m, n_modes = 64, 8
        spectrum = _grid_static(alpha, n_modes, TimeGrid(1.0, m),
                                None if alpha == 1.0 else 200)[3]
        kernel = np.fft.irfft(spectrum, 2 * m, axis=0)[:m]
        dt = 1.0 / m
        for d in (1, 2, 17, 64):
            for n in (1, 3, 8):
                lam = n * n / (1.0 + n * n)
                want = (mittag_leffler(alpha, 1.0, -lam * ((d - 1) * dt) ** alpha)
                        - mittag_leffler(alpha, 1.0, -lam * (d * dt) ** alpha)
                        ) / (lam * (1 + n * n))
                assert abs(kernel[d - 1, n - 1] - want) <= 1e-9 * abs(want), (d, n)

    @pytest.mark.xfail(strict=True, reason=(
        "the kernel rows are the S rows' cell difference, which cancels: off by "
        "up to 1.7e-10 relative at alpha 0.8 and dt = 1e-6, 5.8e-13 on the README "
        "grid; the rule's exponential sum taken per cell does not cancel"))
    @pytest.mark.parametrize("alpha, grid", [
        (0.3, TimeGrid(3.2e-5, 32)), (0.5, TimeGrid(3.2e-5, 32)),
        (0.8, TimeGrid(3.2e-5, 32)), (0.8, TimeGrid(1.0, 512)),
    ], ids=["alpha0.3_dt1e-6", "alpha0.5_dt1e-6", "alpha0.8_dt1e-6", "readme"])
    def test_kernel_rows_match_the_40_digit_cell_differences(self, alpha, grid):
        # lags 1-32 of modes 1-4 within 1e-14 relative.  The rule's sum
        # (L^-1/lam) sum_k w_k (-expm1(-a_k)) exp(-(d-1) a_k), a_k = dt r g_k,
        # lag 1 included, is within 6.2e-16 of it, and within 1.9e-15 after
        # the FFT round trip read here
        spectrum = _grid_static(alpha, 4, grid, 200)[3]
        kernel = np.fft.irfft(spectrum, 2 * grid.step_count, axis=0)[:32]
        want = ml_cell_differences(alpha, grid.dt, 32, 4)
        assert np.max(np.abs(kernel - want) / np.abs(want)) <= 1e-14


def ml_cell_differences(alpha, dt, lags, n_modes):
    """(lags, n_modes) rows L^-1 (E_a(-lam ((d-1) dt)^a) - E_a(-lam (d dt)^a)) / lam,
    the kernel's integral over lag cell d, from E_a's power series summed at
    40 digits until its terms fall below 1e-50."""
    rows = np.empty((lags, n_modes))
    with mpmath.workdps(40):
        a, tiny = mpmath.mpf(alpha), mpmath.mpf(10) ** -50
        for n in range(1, n_modes + 1):
            lam = mpmath.mpf(n * n) / (1 + n * n)
            values = []
            for d in range(lags + 1):
                z, total, k, term = -lam * (d * mpmath.mpf(dt)) ** a, 0, 0, 1
                while abs(term) >= tiny:
                    term = z ** k * mpmath.rgamma(a * k + 1)
                    total, k = total + term, k + 1
                values.append(total)
            rows[:, n - 1] = [float((e0 - e1) / (lam * (1 + n * n)))
                              for e0, e1 in zip(values, values[1:])]
    return rows


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
                expect = closed_form_mode(0.8, n, ts[node], spec.v0[n - 1], spec.u0[n - 1])
                assert abs(traj.coeffs[node, n - 1] - expect) <= 1e-6

    def test_nonlinear_instance_converges(self, cache16):
        spec = make_spec(nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=Nonlinearity(0.1))
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
                         nonlinearity=Nonlinearity(0.1))
        traj0, _ = picard_solve(base, cache=cache16, tol=1e-11)

        def perturbed(delta):
            u0 = base.u0 + np.eye(16)[0] * delta
            spec = make_spec(u0=u0, nonlocal_terms=((0.3, 0.5),),
                             nonlinearity=Nonlinearity(0.1))
            traj, _ = picard_solve(spec, cache=cache16, tol=1e-11)
            return max(norm_q(traj.coeffs[m] - traj0.coeffs[m], 0.25)
                       for m in range(base.step_count + 1))

        delta = 1e-3
        d1 = perturbed(delta)
        d2 = perturbed(delta / 2.0)
        k1 = d1 / delta
        assert np.isfinite(k1) and k1 > 0.0
        assert abs(k1 / (d2 / (delta / 2.0)) - 1.0) <= 0.1

    def test_uniqueness_under_different_starts(self, cache16):
        # the solve starts from the data term; the sweep's fixed-point loop
        # from zero reaches the same fixed point
        spec = make_spec(nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=Nonlinearity(0.1))
        ws = _SweepWorkspace(spec, cache16.node_count)
        t1, _ = picard_solve(spec, tol=1e-10, workspace=ws)
        forcing = np.zeros((spec.step_count + 1, 16))
        t2, _ = _fixed_point(lambda c: ws.sweep(c, forcing), np.zeros_like(forcing),
                             ws.residual, "zero start", 1e-10, MAX_ITER)
        diff = max(norm_q(t1.coeffs[m] - t2[m], 0.25)
                   for m in range(spec.step_count + 1))
        assert diff <= 2e-10

    def test_non_contractive_instance_raises(self, cache16):
        # the nonlocal condition is eliminated in each sweep, so only a
        # strong nonlinearity keeps the iteration from contracting
        spec = make_spec(nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=Nonlinearity(40.0))
        with pytest.raises(NonConvergenceError) as err:
            picard_solve(spec, cache=cache16, tol=1e-8, max_iter=25)
        assert len(err.value.residual_history) == 25

    @pytest.mark.parametrize("bad, message", (
        ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
        ({"max_iter": -3}, "max_iter must be >= 1, got -3"),
        ({"tol": math.nan}, "tol must be >= 0, got nan"),
        ({"tol": -1.0}, "tol must be >= 0, got -1.0"),
    ), ids=("0", "-3", "tol-nan", "tol-negative"))
    def test_no_sweep_budget_rejected(self, bad, message, cache16, monkeypatch):
        # refused before any sweep, by the one loop of the forward solve,
        # the adjoint and the optimizer
        spec = make_spec(m=32, nonlinearity=Nonlinearity(0.1), control_count=1)
        ws = _SweepWorkspace(spec, cache16.node_count)
        traj, _ = picard_solve(spec, workspace=ws)
        args = {"tol": 1e-8, "max_iter": MAX_ITER} | bad
        exact = f"^{re.escape(message)}$"
        monkeypatch.setattr(_SweepWorkspace, "sweep", None)
        monkeypatch.setattr(_SweepWorkspace, "adjoint_sweep", None)
        with pytest.raises(DomainError, match=exact):
            picard_solve(spec, cache=cache16, **args)
        with pytest.raises(DomainError, match=exact):
            _adjoint(ws, traj.coeffs, traj.coeffs, args["tol"], args["max_iter"])
        with pytest.raises(DomainError, match=exact):
            optimize_controls(spec, CostSpec(), zero_bundle(spec.grid, 1, 2), workspace=ws,
                              solve_tol=args["tol"], max_iter=args["max_iter"])

    def test_adjoint_of_an_unforced_problem_is_its_twins(self):
        # f = 0 and no controls: the gradient is the one of the twin problem
        # that declares a control, bit for bit
        spec = make_spec(n=8, m=32, nonlocal_terms=((0.3, 0.5),))
        grads = []
        for problem in (spec, dataclasses.replace(spec, control_count=1)):
            ws = _SweepWorkspace(problem)
            traj, _ = picard_solve(problem, workspace=ws)
            grads.append(_adjoint(ws, traj.coeffs, traj.coeffs, 1e-8, MAX_ITER))
        assert grads[0].shape == (32, 8)
        assert_same_bits(*grads)

    def test_unforced_sweep_takes_a_forcing_as_its_twin_does(self):
        # a nonzero raw forcing convolves as on the twin problem that
        # declares a control; a zero one is the linear sweep
        spec = make_spec(n=4, m=8)
        ws = _SweepWorkspace(spec)
        twin = _SweepWorkspace(dataclasses.replace(spec, control_count=1))
        assert_same_bits(ws.sweep(ws.initial(), np.ones((9, 4))),
                         twin.sweep(twin.initial(), np.ones((9, 4))))
        assert_same_bits(ws.sweep(ws.initial(), np.zeros((9, 4))),
                         picard_solve(spec, workspace=ws)[0].coeffs)

    def test_trajectory_off_the_problem_refused(self):
        # apply_P, the one entry point that reads a trajectory, refuses one
        # on another grid, of another horizon at the same shape, or of
        # other modes, before numpy sees it
        spec = make_spec(n=4, m=16, nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=Nonlinearity(0.1))
        solved, _ = picard_solve(spec)
        for grid, modes in ((TimeGrid(1.0, 8), 4), (TimeGrid(2.0, 16), 4), (spec.grid, 3)):
            with pytest.raises(DomainError, match="^trajectory does not match the "
                                                  "problem's grid and modes$"):
                apply_P(spec, None, Trajectory(grid, np.zeros((grid.step_count + 1, modes))))
        apply_P(spec, None, solved)

    def test_exponent_precondition(self):
        with pytest.raises(RejectedInstanceError):
            spec = ProblemSpec(FracOrder(0.5, q=0.5, p=1.5), 1.0, 4, 8,
                               np.zeros(4), np.zeros(4),
                               control_count=1)
            picard_solve(spec)

    @staticmethod
    def forced_error(alpha, m, linear):
        """Sup error of one sweep with the source g (linear False) or g t
        (True), against its closed form: the mild solution of zero data
        forced by g t^k is L^-1 g Gamma(k+1) t^(alpha+k) E_{alpha,alpha+k+1}
        per mode, and Gamma(k+1) = 1 for k = 0, 1."""
        g = collocation_maps(8)[2] @ np.ones(32)
        spec = make_spec(alpha=alpha, n=8, m=m, u0=np.zeros(8), v0=np.zeros(8))
        ws = _SweepWorkspace(spec)
        ts = spec.grid.nodes()
        source = np.outer(ts if linear else np.ones(m + 1), g)
        coeffs = ws.sweep(ws.initial(), source)
        k = 1.0 if linear else 0.0
        worst = 0.0
        for n in range(1, 9):
            lam = n * n / (1.0 + n * n)
            ref = np.array([
                g[n - 1] * t ** (alpha + k)
                * mittag_leffler(alpha, alpha + k + 1.0, -lam * t ** alpha) / (1 + n * n)
                for t in ts])
            worst = max(worst, np.max(np.abs(coeffs[:, n - 1] - ref)))
        return worst

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.8, 1.0))
    def test_constant_forcing_is_exact(self, alpha):
        # the kernel is integrated exactly per cell, and a constant source is
        # its own left-endpoint interpolant: one sweep is the closed form
        assert self.forced_error(alpha, 512, linear=False) <= 1e-13

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.8, 1.0))
    def test_linear_source_first_order_refinement(self, alpha):
        # the left-endpoint interpolant of g t is off by O(dt), and so is the
        # solution: halving dt halves the error, whatever alpha
        errors = [self.forced_error(alpha, m, linear=True) for m in (128, 256)]
        assert errors[0] / errors[1] >= 1.9

    def test_cache_alpha_must_match(self):
        # the kernel and kappa read the problem's alpha; a cache at another
        # alpha is refused, not solved with a mixed order
        spec = make_spec(alpha=0.5, n=8, m=64, nonlocal_terms=((0.3, 0.5),))
        cache = SolutionOperatorCache(FracOrder(0.8, q=0.25, p=2.0), 8)
        zero = Trajectory(spec.grid, np.zeros((65, 8)))
        for solve in (lambda: picard_solve(spec, cache=cache),
                      lambda: apply_P(spec, cache, zero)):
            with pytest.raises(DomainError, match="cache alpha 0.8 .* alpha 0.5"):
                solve()

    def test_workspace_of_another_problem_refused(self):
        # the workspace is the solve context: a solve is refused one built
        # for another problem, even an equal copy, rather than solving its
        # problem in place of the one asked for
        spec = make_spec(alpha=0.8, n=8, m=64, nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=Nonlinearity(0.1))
        ws = _SweepWorkspace(dataclasses.replace(spec, order=FracOrder(0.5, q=0.25)))
        for other in (ws, _SweepWorkspace(dataclasses.replace(spec))):
            with pytest.raises(DomainError, match="another problem"):
                picard_solve(spec, workspace=other)
        traj, _ = picard_solve(spec, workspace=_SweepWorkspace(spec))
        assert np.array_equal(traj.coeffs, picard_solve(spec)[0].coeffs)

    def test_cache_beside_a_workspace_refused(self):
        # the workspace fixes the rule size, so a cache passed beside it
        # would be read for nothing, its alpha unchecked
        spec = make_spec(n=8, m=64, nonlocal_terms=((0.3, 0.5),))
        ws = _SweepWorkspace(spec)
        for order in (spec.order, FracOrder(0.5, q=0.25)):
            with pytest.raises(DomainError, match="^pass a cache or a workspace, not both$"):
                picard_solve(spec, cache=SolutionOperatorCache(order, 8), workspace=ws)


class TestManufacturedSolution:
    """Exact time errors: the problem with u0 = (0.5, 0.2), v0 = e1, the
    nonlocal term 0.3@0.5 and the total source s_n(t) = c_n t^beta has a
    closed-form mild solution u* = A + B h per mode, with

        A = S sm (v0 + kappa u0) + c Gamma(beta+1) t^(alpha+beta)
                E_{alpha,alpha+beta+1}(-lambda t^alpha) L^-1,
        B = S sm kappa,  h = sum c A(t_eta) / (1 - sum c B(t_eta)),

    S = L^-1 E_alpha(-lambda t^alpha).  The sweep is fed the forcing
    g = s - f(u*), with f the discrete collocation f, so u* solves the
    problem at any gain, through the f-loop and the h elimination; u*
    lies in the N-mode space, so the error is the time error alone."""

    C = np.array([1.0, -0.5, 0.25, 0.3])
    U0 = np.array([0.5, 0.2, 0.0, 0.0])
    V0 = np.eye(4)[0]
    WEIGHT, T_ETA = 0.3, 0.5

    @classmethod
    def terms(cls, alpha, beta, ts):
        """A and B at the times ts, shape (len(ts), 4) each."""
        lam, l_inv = generator_symbol(4), l_inverse_symbol(4)
        ts = np.asarray(ts, dtype=float)
        e_alpha, e_forced = (
            np.array([[mittag_leffler(alpha, b, -n * t ** alpha) for n in lam] for t in ts])
            for b in (1.0, alpha + beta + 1.0))
        kappa = (ts ** (1.0 - alpha) / gamma(2.0 - alpha))[:, None]
        s_sm = l_inv * e_alpha * data_smoothing_symbol(4)
        a = (s_sm * (cls.V0 + kappa * cls.U0)
             + cls.C * gamma(beta + 1.0) * ts[:, None] ** (alpha + beta) * e_forced * l_inv)
        return a, s_sm * kappa

    @classmethod
    def exact(cls, alpha, beta, ts):
        """(u* at the times ts, h)."""
        a, b = cls.terms(alpha, beta, ts)
        a_eta, b_eta = (x[0] for x in cls.terms(alpha, beta, [cls.T_ETA]))
        h = cls.WEIGHT * a_eta / (1.0 - cls.WEIGHT * b_eta)
        return a + b * h, h

    @classmethod
    def error(cls, alpha, beta, gain, m):
        """Max over nodes and modes of the solve's distance to u*; the spec
        declares no control, and the sweep takes g as its raw forcing."""
        spec = ProblemSpec(FracOrder(alpha, q=0.25, p=2.0), 1.0, 4, m,
                           cls.U0, cls.V0,
                           nonlocal_terms=((cls.WEIGHT, cls.T_ETA),),
                           nonlinearity=Nonlinearity(gain))
        ws = _SweepWorkspace(spec)
        ts = spec.grid.nodes()
        exact, _ = cls.exact(alpha, beta, ts)
        _, d1, p = collocation_maps(4)
        forcing = cls.C * ts[:, None] ** beta - (gain * np.sin(exact @ d1.T)) @ p.T
        got, _ = _fixed_point(lambda c: ws.sweep(c, forcing), ws.initial(), ws.residual,
                              "manufactured solve", 1e-13, MAX_ITER)
        return float(np.max(np.abs(got - exact)))

    @pytest.mark.parametrize("alpha", (0.3, 0.8))
    @pytest.mark.parametrize("beta", (0.0, 1.0))
    def test_closed_form_is_the_mild_formula(self, alpha, beta):
        # the forced term against quad of int_0^t tau^(alpha-1) T(tau)
        # s(t - tau) dtau, with T = L^-1 E_{alpha,alpha}(-lambda tau^alpha);
        # x = tau^alpha makes the integrand smooth: dx / alpha
        lam, l_inv = generator_symbol(4), l_inverse_symbol(4)
        ts = (0.25, 0.5, 1.0)
        a, _ = self.terms(alpha, beta, ts)
        for i, t in enumerate(ts):
            for n in range(4):
                integral, _ = quad(
                    lambda x: (mittag_leffler(alpha, alpha, -lam[n] * x)
                               * (t - x ** (1.0 / alpha)) ** beta),
                    0.0, t ** alpha, epsabs=0.0, epsrel=1e-13)
                # the rest of A is the data term of the linear solve
                want = (closed_form_mode(alpha, n + 1, t, self.V0[n], self.U0[n])
                        + self.C[n] * l_inv[n] * integral / alpha)
                assert abs(a[i, n] - want) <= 1e-12 * abs(want), (t, n)
        # h is the nonlocal term of u* itself
        u_eta, h = self.exact(alpha, beta, [self.T_ETA])
        assert np.allclose(self.WEIGHT * u_eta[0], h, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("gain", (0.0, 2.0))
    @pytest.mark.parametrize("alpha", (0.3, 0.8))
    def test_constant_source_is_exact(self, alpha, gain):
        # the kernel is integrated exactly per cell, and a constant total
        # source is its own left-endpoint interpolant
        assert self.error(alpha, 0.0, gain, 64) <= 1e-13

    @pytest.mark.parametrize("gain", (0.0, 2.0))
    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.8))
    def test_linear_source_is_first_order(self, alpha, gain):
        # measured 1.002-1.042 from M = 128 to 512
        errors = [self.error(alpha, 1.0, gain, m) for m in (128, 256, 512)]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(0.95 <= order <= 1.10 for order in orders), orders


def plain_picard(spec, cache, tol):
    """Picard iteration of apply_P, the paper's map with h read from the
    iterate: the slow reference for the eliminated sweep."""
    ws = _SweepWorkspace(spec, cache.node_count)
    return _fixed_point(
        lambda c: apply_P(spec, cache, Trajectory(spec.grid, c)).coeffs,
        ws.initial(), ws.residual, "plain Picard", tol, MAX_ITER)[0]


def p_residual(spec, cache, traj):
    """Sup q-norm distance between traj and P(traj)."""
    ws = _SweepWorkspace(spec, cache.node_count)
    return ws.residual(apply_P(spec, cache, traj).coeffs, traj.coeffs)


class TestNonlocalElimination:
    @pytest.mark.parametrize("kw", [
        dict(nonlinearity=Nonlinearity(0.1)),          # README grid
        dict(n=8, m=64),                               # acceptance grid, f = 0
        dict(nonlinearity=Nonlinearity(6.0)),
    ], ids=["readme", "acceptance", "sin_grad_6"])
    def test_agrees_with_plain_picard(self, kw):
        spec = make_spec(nonlocal_terms=((0.3, 0.5),), **kw)
        cache = SolutionOperatorCache(spec.order, spec.mode_count)
        traj, _ = picard_solve(spec, cache=cache, tol=1e-13)
        want = plain_picard(spec, cache, 1e-13)
        assert np.max(np.linalg.norm(traj.coeffs - want, axis=1)) <= 1e-11

    @pytest.mark.parametrize("c", [3.0, 50.0])
    @pytest.mark.parametrize("nonlinearity", [Nonlinearity(), Nonlinearity(0.1)],
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
        # 0.77 = 49.28 dt is off the grid and weighs two nodes
        spec = make_spec(alpha=alpha, n=8, m=64,
                         nonlocal_terms=((0.3, 0.25), (50.0, 0.5), (3.0, 0.75), (0.2, 0.77)))
        ws = _SweepWorkspace(spec)
        assert np.all(ws.denominator >= 1.0)
        assert np.min(ws.denominator) > 1.0
        _, rep = picard_solve(spec, workspace=ws)
        assert rep.nonlocal_denominator_min == np.min(ws.denominator)

    def test_denominator_without_nonlocal_terms(self, cache16):
        _, rep = picard_solve(make_spec(), cache=cache16)
        assert rep.nonlocal_denominator_min == 1.0


class TestNonlocalPlacement:
    """nonlocal_node_weights places each term once, and the sweep, its
    transpose, apply_P and the report read the same nodes and weights."""

    # three off-grid times; 0.4 and 0.401 share nodes 25 and 26 at m = 64
    OFF_GRID = ((0.3, 0.4), (0.2, 0.401), (3.0, 0.77))

    def test_on_and_off_grid_terms(self):
        # 0.5 is node 32 at m = 64, up to 1e-12 horizon; 0.5001 = 32.0064 dt
        spec = make_spec(n=8, m=64, nonlocal_terms=(
            (0.3, 0.5 - 1e-13), (0.2, 0.5001), (0.1, 0.75)))
        nodes, weights = nonlocal_node_weights(spec)
        theta = 0.5001 * 64 - 32
        assert nodes.tolist() == [32, 32, 33, 48]
        assert weights.tolist() == [0.3, 0.2 * (1.0 - theta), 0.2 * theta, 0.1]
        cache = SolutionOperatorCache(spec.order, 8)
        for _ in range(2):
            _, rep = picard_solve(spec, cache=cache)
            assert rep.nonlocal_node_weights == [[32, 0.3], [32, 0.2 * (1.0 - theta)],
                                                 [33, 0.2 * theta], [48, 0.1]]

    def test_off_grid_error_falls_at_first_order(self):
        # the README solve without controls at 0.3@0.4, against M = 20480,
        # where 0.4 is a node; snapping 0.4 to the nearest node gave
        # 2.72e-5, 2.64e-5 and 6.20e-6
        def solve(m):
            spec = make_spec(m=m, nonlocal_terms=((0.3, 0.4),),
                             nonlinearity=Nonlinearity(0.1))
            return picard_solve(spec, tol=1e-13)[0].coeffs

        fine = solve(20480)
        errors = [float(np.max(np.abs(solve(m) - fine[::20480 // m])))
                  for m in (512, 1024, 2048)]
        assert errors[0] <= 6e-6 and errors[1] <= 3e-6 and errors[2] <= 1.5e-6
        assert all(0.4 <= b / a <= 0.6 for a, b in zip(errors, errors[1:]))

    def test_terms_sharing_a_node_both_count(self):
        # two terms on one node weigh it as one term of their summed weight
        rng = np.random.default_rng(12)
        coeffs = rng.standard_normal((65, 8))
        shared = _SweepWorkspace(make_spec(
            n=8, m=64, nonlocal_terms=((0.3, 0.5), (0.2, 0.5 + 1e-13))))
        single = _SweepWorkspace(make_spec(n=8, m=64, nonlocal_terms=((0.5, 0.5),)))
        assert shared.nodes.tolist() == [32, 32]
        assert np.allclose(shared.nonlocal_sum(coeffs), single.nonlocal_sum(coeffs),
                           rtol=1e-15, atol=1e-15)
        out = shared.adjoint_sweep(coeffs, coeffs, None)
        assert np.allclose(out, single.adjoint_sweep(coeffs, coeffs, None),
                           rtol=1e-14, atol=1e-14)
        # and two interpolated terms on the same two nodes
        ws = _SweepWorkspace(make_spec(n=8, m=64, nonlocal_terms=self.OFF_GRID[:2]))
        assert ws.nodes.tolist() == [25, 26, 25, 26]
        want = sum(c * ((26 - 64 * t) * coeffs[25] + (64 * t - 25) * coeffs[26])
                   for c, t in self.OFF_GRID[:2])
        assert np.allclose(ws.nonlocal_sum(coeffs), want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("m", [7, 64])
    def test_transposed_elimination_is_the_transpose(self, m):
        # <E K F, lam> = <F, K^T E^T lam>: with zero data and f = 0 the
        # sweep is the elimination E of the convolved forcing, and
        # adjoint_sweep without a slope is E^T
        spec = make_spec(n=8, m=m, u0=np.zeros(8), v0=np.zeros(8),
                         nonlocal_terms=self.OFF_GRID)
        ws = _SweepWorkspace(spec)
        rng = np.random.default_rng(m)
        forcing, lam = rng.standard_normal((2, m + 1, 8))
        lhs = float(np.sum(ws.sweep(lam, forcing) * lam))
        rhs = float(np.sum(forcing[:-1] * ws.kernel.apply_T(ws.adjoint_sweep(lam, lam, None))))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


class TestGridStaticMemo:
    """The grid-static sweep state is built once per discretisation."""

    STATIC = ("kappa", "s_lm", "feedback", "D", "P")

    def test_memoized_arrays_are_read_only_and_shared(self):
        linear = make_spec(n=8, m=64, nonlocal_terms=((0.3, 0.5),))
        for spec in (linear, dataclasses.replace(linear, control_count=1)):
            first, second = _SweepWorkspace(spec), _SweepWorkspace(spec)
            shared = [(name, getattr(first, name), getattr(second, name))
                      for name in self.STATIC]
            shared.append(("spectrum", first.kernel.spectrum, second.kernel.spectrum))
            # the kernel's FFT buffers belong to their workspace
            assert first.kernel is not second.kernel
            assert first.kernel.out is not second.kernel.out
            for name, arr, other in shared:
                assert other is arr, name
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0
            # the per-solve arrays belong to their workspace
            assert first.data is not second.data
            assert first.denominator is not second.denominator

    def test_two_alphas_share_the_mode_maps(self, tmp_path, monkeypatch):
        # D and P read the modes alone: every workspace takes them from the
        # one collocation memo, and the CLI's trajectory table evaluates
        # through that memo's D0
        first, second = (_SweepWorkspace(make_spec(alpha=alpha, n=8, m=64))
                         for alpha in (0.45, 0.65))
        d0, d1, p = collocation_maps(8)
        for name, arr in (("D", d1), ("P", p)):
            assert getattr(first, name) is arr and getattr(second, name) is arr, name
        # the right operands of the products a CLI solve makes
        operands, matmul = [], np.matmul

        def spy(a, b, *rest, **kw):
            operands.append(b)
            return matmul(a, b, *rest, **kw)

        monkeypatch.setattr(np, "matmul", spy)
        config = ("[problem]\nalpha = 0.65\nhorizon = 1.0\nmodes = 8\nsteps = 64\n"
                  "v0 = 1:1.0\nnonlinearity = sin_grad:0.1\n")
        assert cli.run(cli.parse_config(config, "solve", {"--out": str(tmp_path)})) == 0
        # the table's product reads D0 itself, through its transpose
        assert any(b.base is d0 for b in operands)
        for arr in (d0, d1, p):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.8, 0.95, 1.0))
    def test_linear_and_forced_solves_share_one_entry(self, alpha):
        # every workspace holds the kernel, so a linear uncontrolled solve
        # and a forced solve of one discretisation read one entry: the
        # first builds it and the second hits it; alpha = 1 is the semigroup
        linear = make_spec(alpha=alpha, n=8, m=64, nonlocal_terms=((0.3, 0.5),))
        _grid_static.cache_clear()
        for spec in (linear, dataclasses.replace(linear, nonlinearity=Nonlinearity(0.1))):
            picard_solve(spec)
        info = _grid_static.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    BASE = make_spec(n=8, m=64, nonlocal_terms=((0.3, 0.5),),
                     nonlinearity=Nonlinearity(0.1))

    @staticmethod
    def solve(spec, nodes):
        cache = SolutionOperatorCache(spec.order, spec.mode_count, node_count=nodes)
        return picard_solve(spec, cache=cache)[0].coeffs

    def warm_solve(self, spec, nodes):
        """(the solve of spec after the memo was cleared, the same solve
        after the memo was warmed by BASE at 200 nodes, and the hits and
        misses the second solve added)."""
        _grid_static.cache_clear()
        cold = self.solve(spec, nodes)
        _grid_static.cache_clear()
        self.solve(self.BASE, 200)
        before = _grid_static.cache_info()
        warm = self.solve(spec, nodes)
        after = _grid_static.cache_info()
        return cold, warm, (after.hits - before.hits, after.misses - before.misses)

    def test_other_q_shares_the_entry(self):
        # only the residual's q-weights read q, and the workspace builds
        # them, so a spec that differs in q alone hits the warm entry and
        # solves exactly as a cold build does
        spec = dataclasses.replace(self.BASE, order=FracOrder(0.8, q=0.6, p=2.0))
        cold, warm, added = self.warm_solve(spec, 200)
        assert added == (1, 0)
        assert np.array_equal(warm, cold)

    def test_other_quad_nodes_share_no_entry(self):
        # a cache that differs in node_count alone misses the warm entry
        # and solves exactly as a cold build does
        cold, warm, added = self.warm_solve(self.BASE, 150)
        assert added == (0, 1)
        assert np.array_equal(warm, cold)

    def test_wider_cache_is_bit_identical(self):
        # the table is built for the problem's modes, whatever the cache's;
        # the first N columns of a wider table are the same numbers, so a
        # wider cache solves exactly as a matching one
        spec = make_spec(n=8, m=64, nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=Nonlinearity(0.1))
        wide = SolutionOperatorCache(spec.order, 16)
        narrow = SolutionOperatorCache(spec.order, 8)
        assert np.array_equal(wide.grid_table(spec.grid)[:, :8],
                              narrow.grid_table(spec.grid))
        solved = []
        for cache in (wide, narrow):
            _grid_static.cache_clear()
            solved.append(picard_solve(spec, cache=cache)[0].coeffs)
        assert np.array_equal(solved[0], solved[1])

    def test_alpha_one_and_p_share_one_entry(self):
        # p is never read, so it splits no entry; at alpha = 1 no psi rule
        # is built, so a cache of another node_count takes an entry of its
        # own that holds the same numbers
        base = make_spec(alpha=1.0, n=8, m=64, nonlocal_terms=((0.3, 0.5),),
                         nonlinearity=Nonlinearity(0.1))
        other_p = dataclasses.replace(base, order=FracOrder(1.0, q=0.25, p=3.0))
        _grid_static.cache_clear()
        solved = [picard_solve(spec, cache=SolutionOperatorCache(spec.order, 8, nodes))[0]
                  for spec, nodes in ((base, 200), (other_p, 200), (base, 150))]
        info = _grid_static.cache_info()
        assert (info.misses, info.hits) == (2, 1)
        for traj in solved[1:]:
            assert np.array_equal(traj.coeffs, solved[0].coeffs)

    def test_warm_solve_builds_no_cache(self, monkeypatch):
        # without a cache a solve reads the default rule size, and a warm
        # memo holds the table, so nothing builds a SolutionOperatorCache
        spec = make_spec(n=8, m=64, nonlocal_terms=((0.3, 0.5),))
        picard_solve(spec)
        built = []
        init = SolutionOperatorCache.__post_init__

        def count_build(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(SolutionOperatorCache, "__post_init__", count_build)
        picard_solve(spec)
        assert built == []
        _grid_static.cache_clear()
        picard_solve(spec)
        assert len(built) == 1

    def test_size_stays_at_the_bound(self):
        _grid_static.cache_clear()
        alphas = np.linspace(0.5, 0.9, GRID_STATIC_MEMO + 3)
        for alpha in alphas:
            picard_solve(make_spec(alpha=float(alpha), n=4, m=16))
        info = _grid_static.cache_info()
        assert info.misses == alphas.size
        assert info.currsize == info.maxsize == GRID_STATIC_MEMO


class TestProblemSpecValidation:
    def test_nonlocal_ordering(self):
        with pytest.raises(DomainError):
            make_spec(nonlocal_terms=((0.3, 0.7), (0.2, 0.5)))
        with pytest.raises(DomainError):
            make_spec(nonlocal_terms=((-0.3, 0.5),))
        with pytest.raises(DomainError):
            make_spec(nonlocal_terms=((0.3, 1.5),))

    def test_nonlocal_weight_finite(self):
        # an infinite weight is refused when built, not blamed on the
        # trajectory at the first solve; a weight that is not positive
        # keeps its own message
        with pytest.raises(DomainError, match="^nonlocal weight must be finite, got inf$"):
            make_spec(nonlocal_terms=((math.inf, 0.5),))
        for c in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(DomainError,
                               match=f"^nonlocal weight must be positive, got {re.escape(str(c))}$"):
                make_spec(nonlocal_terms=((c, 0.5),))

    @pytest.mark.parametrize("horizon, steps", [(-1.0, 1), (-1.0, 8), (0.0, 8), (math.nan, 8),
                                                (math.inf, 8), (1.0, 1), (1.0, 0)])
    def test_grid_validated(self, horizon, steps):
        # refused when built, not at the first use of .grid
        with pytest.raises(DomainError, match="horizon|step_count"):
            ProblemSpec(FracOrder(0.8), horizon, 4, steps,
                        np.zeros(4), np.zeros(4))

    def test_mode_count_consistency(self):
        with pytest.raises(DomainError, match=r"^u0 must have shape \(8\), got \(4,\)$"):
            ProblemSpec(FracOrder(0.8), 1.0, 8, 16, np.zeros(4), np.zeros(8))
        with pytest.raises(DomainError, match=r"^v0 must have shape \(8\), got \(4,\)$"):
            ProblemSpec(FracOrder(0.8), 1.0, 8, 16, np.zeros(8), np.zeros(4))
        # the mode count is checked before u0 and v0 are measured against it
        with pytest.raises(DomainError, match="^mode_count must be >= 1$"):
            ProblemSpec(FracOrder(0.8), 1.0, 0, 16, np.zeros(0), np.zeros(0))
