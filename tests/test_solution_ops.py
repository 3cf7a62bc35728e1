"""Solution-operator multipliers against the Mittag-Leffler oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from sobfrac import mild_solver, solution_ops
from sobfrac.cli import parse_config, run
from sobfrac.errors import ConstructionError, DomainError
from sobfrac.fracops import FracOrder, TimeGrid
from sobfrac.solution_ops import (ALPHA_FLOOR, HALVING_TOL, T_WINDOW,
                                  SolutionOperatorCache, psi_rule)
from sobfrac.specfun import gamma, mittag_leffler
from sobfrac.verification import CheckRow, operator_bound_rows, theta_rule_table
from sobfrac.spectral import l_inverse_symbol, measure_bounds, norm_q


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
    """The multiplier rows at one time from the psi rule, one exp(outer)
    block each: the evaluation multiplier_table makes per time."""
    alpha = cache.order.alpha
    if alpha >= 1.0:
        decay = np.exp(-cache._lam * t)
        return cache._linv * decay, cache._linv * decay
    if t == 0.0:
        return cache._linv, cache._linv / gamma(alpha)
    rule = cache.rule
    tau = t * cache._rate
    expo = np.exp(np.maximum(np.outer(tau, -rule.nodes), -solution_ops._EXP_FLOOR))
    return (cache._linv * (expo @ rule.weights),
            cache._linv * (tau ** (1.0 - alpha) * (expo @ rule.t_weights)))


class TestMultiplierTable:
    @pytest.mark.parametrize("alpha", (0.5, 0.8, 1.0))
    def test_matches_per_time_rows_bitwise(self, alpha):
        # the README grid, the perfbench optimize grid, a two-step grid and a
        # short grid out to t = 50; the table and multiplier_rows both equal
        # the per-time rows bit for bit
        for modes, ts in ((16, np.linspace(0.0, 1.0, 513)), (32, np.linspace(0.0, 1.0, 513)),
                          (8, np.linspace(0.0, 1.0, 129)), (4, np.linspace(0.0, 1.0, 3)),
                          (16, np.linspace(0.0, 50.0, 7))):
            c = SolutionOperatorCache(FracOrder(alpha, q=0.25), modes)
            s_table, t_table = c.multiplier_table(ts)
            assert s_table.shape == t_table.shape == (ts.size, modes)
            for m, t in enumerate(ts):
                s_ref, t_ref = per_time_rows(c, float(t))
                assert np.array_equal(s_table[m], s_ref)
                assert np.array_equal(t_table[m], t_ref)
                s_row, t_row = c.multiplier_rows(float(t))
                assert s_row.shape == t_row.shape == (modes,)
                assert np.array_equal(s_row, s_table[m])
                assert np.array_equal(t_row, t_table[m])

    def test_negative_time_rejected(self, cache):
        with pytest.raises(DomainError):
            cache.multiplier_table([0.0, -1e-3])
        with pytest.raises(DomainError):
            cache.multiplier_rows(-1.0)

    def test_times_outside_the_window_rejected(self, cache):
        lo, hi = T_WINDOW
        cache.multiplier_table([0.0, lo, hi])
        for t in (0.5 * lo, 2.0 * hi):
            with pytest.raises(DomainError, match="window"):
                cache.multiplier_table([0.0, t])
        # the semigroup serves every time
        SolutionOperatorCache(FracOrder(1.0), 4).multiplier_table([1e-12, 1e6])


class TestGridTable:
    @pytest.mark.parametrize("alpha", (0.028, 0.3, 0.5, 0.8, 0.95, 0.999))
    def test_matches_per_time_table(self, alpha):
        # the per-time table is the oracle; a mode's column does not depend
        # on the mode count, so one 64-mode table serves every count.  M = 100
        # leaves its last block of isqrt(M) + 1 = 11 lags short.
        for steps in (2, 64, 100, 512, 4096):
            for horizon in (1.0, 50.0, 1e4):
                grid = TimeGrid(horizon, steps)
                want = SolutionOperatorCache(FracOrder(alpha), 64).multiplier_table(
                    grid.nodes())[0]
                for modes in (1, 8, 16, 64):
                    got = SolutionOperatorCache(FracOrder(alpha), modes).grid_table(grid)
                    assert got.shape == (steps + 1, modes)
                    assert got.flags.c_contiguous
                    rel = np.abs(got - want[:, :modes]) / np.abs(want[:, :modes])
                    assert np.max(rel) <= 1e-14, (steps, horizon, modes)

    def test_semigroup_bitwise(self):
        c = SolutionOperatorCache(FracOrder(1.0), 16)
        for grid in (TimeGrid(1.0, 512), TimeGrid(1e6, 100), TimeGrid(1e-9, 2)):
            s_table, t_table = c.multiplier_table(grid.nodes())
            assert np.array_equal(c.grid_table(grid), s_table)
            assert np.array_equal(t_table, s_table)

    @pytest.mark.parametrize("alpha", (0.3, 0.8))
    def test_row_zero_closed_form(self, alpha):
        c = SolutionOperatorCache(FracOrder(alpha), 16)
        assert np.array_equal(c.grid_table(TimeGrid(1.0, 64))[0], l_inverse_symbol(16))

    def test_grid_outside_the_window_rejected(self, cache):
        lo, hi = T_WINDOW
        cache.grid_table(TimeGrid(2.0 * lo, 2))
        cache.grid_table(TimeGrid(hi, 64))
        # dt = 5e-9 below the window, and a horizon past it
        for grid in (TimeGrid(1e-6, 200), TimeGrid(2.0 * hi, 64)):
            with pytest.raises(DomainError, match="window"):
                cache.grid_table(grid)
            # the semigroup serves every time
            SolutionOperatorCache(FracOrder(1.0), 4).grid_table(grid)

    @pytest.mark.parametrize("modes, steps", ((16, 512), (8, 128), (8, 64)))
    def test_peak_memory_within_the_per_time_table(self, modes, steps):
        # the perfbench grids; the factors are built per mode into reused
        # buffers, so the product needs no more memory than the per-time path
        c = SolutionOperatorCache(FracOrder(0.8, q=0.25), modes)
        grid = TimeGrid(1.0, steps)
        ts = grid.nodes()

        def peak(build):
            build()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                build()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert (peak(lambda: c.grid_table(grid))
                <= peak(lambda: c.multiplier_table(ts)))

    def test_solves_read_one_grid_table_per_discretisation(self, tmp_path, monkeypatch):
        # the table is built once per discretisation per process: a solve and
        # an optimize of one config share it, another step count builds one more
        calls = {"grid": 0, "workspace": 0}
        grid_table = SolutionOperatorCache.grid_table
        workspace_init = mild_solver._SweepWorkspace.__init__

        def count_grid(self, grid):
            calls["grid"] += 1
            return grid_table(self, grid)

        def count_workspace(self, spec, node_count):
            calls["workspace"] += 1
            workspace_init(self, spec, node_count)

        def refuse(self, ts):
            raise AssertionError("a solve read the per-time table")

        monkeypatch.setattr(SolutionOperatorCache, "grid_table", count_grid)
        monkeypatch.setattr(SolutionOperatorCache, "multiplier_table", refuse)
        monkeypatch.setattr(mild_solver._SweepWorkspace, "__init__", count_workspace)
        mild_solver._grid_static.cache_clear()
        text = ("[problem]\nalpha = 0.8\nhorizon = 1.0\nmodes = 8\nsteps = {steps}\n"
                "u0 = 1:0.5\nnonlocal = 0.3@0.5\nnonlinearity = sin_grad:0.1\n"
                "controls = 1\n[optimize]\nbudget = 3\n[output]\ndirectory = {out}\n")
        for mode in ("solve", "optimize"):
            run(parse_config(text.format(steps=64, out=tmp_path / mode), mode))
        assert calls == {"grid": 1, "workspace": 2}
        run(parse_config(text.format(steps=128, out=tmp_path / "steps"), "solve"))
        assert calls == {"grid": 2, "workspace": 3}


ORACLE_TS = np.concatenate([[0.0], np.geomspace(1e-5, 10.0, 49)])


class TestPsiRule:
    def test_matches_theta_rule_rows(self):
        # every alpha of the 0.01 grid where the theta rule builds well
        # inside its normalization gate, n = 1..64
        for alpha in np.round(np.arange(0.30, 0.905, 0.01), 2):
            order = FracOrder(float(alpha))
            got = SolutionOperatorCache(order, 64).multiplier_table(ORACLE_TS)
            want = theta_rule_table(order.alpha, 64, ORACLE_TS)
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-10, alpha

    @pytest.mark.parametrize("alpha", (0.23, 0.94, 0.97, 0.99, 0.999))
    def test_matches_mittag_leffler_series(self, alpha):
        s_table, t_table = SolutionOperatorCache(FracOrder(alpha), 64).multiplier_table(
            ORACLE_TS)
        for m in range(0, ORACLE_TS.size, 4):
            t = ORACLE_TS[m]
            for n in (1, 3, 8, 21, 64):
                z = -lam(n) * t ** alpha
                assert abs(s_table[m, n - 1]
                           - mittag_leffler(alpha, 1.0, z) / (1 + n * n)) <= 1e-9
                assert abs(t_table[m, n - 1]
                           - mittag_leffler(alpha, alpha, z) / (1 + n * n)) <= 1e-9

    def test_builds_from_the_floor_to_one(self):
        # the theta rule's range at 200 nodes (0.23-0.93), beyond it, and
        # the documented floor
        alphas = np.concatenate([np.arange(ALPHA_FLOOR, 0.9995, 0.001), [0.999, 1 - 1e-9]])
        for alpha in alphas:
            rule = psi_rule(float(alpha), 200)
            assert rule.nodes.size == rule.weights.size == 200
            assert rule.halving_defect <= HALVING_TOL
            assert np.all(np.isfinite(rule.nodes)) and np.all(rule.weights > 0.0)
        assert abs(float(np.sum(psi_rule(0.8, 200).weights)) - 1.0) <= 1e-15

    def test_halving_defect_is_the_two_block_gap(self):
        # the build takes the half rule's sums from the full rule's exponent
        # block; a separate block for the every-other-node half gives the
        # same defect, bit for bit
        for alpha in np.linspace(0.03, 0.99, 83):
            alpha = float(alpha)
            rule = psi_rule(alpha)
            probes = np.exp(np.linspace(math.log(T_WINDOW[0]) - math.log(2.0) / alpha,
                                        math.log(T_WINDOW[1]), solution_ops._PROBES))

            def sums(nodes, weights, t_weights):
                expo = np.exp(np.maximum(np.outer(probes, -nodes), -solution_ops._EXP_FLOOR))
                return expo @ weights, probes ** (1.0 - alpha) * (expo @ t_weights)

            full = sums(rule.nodes, rule.weights, rule.t_weights)
            half = sums(rule.nodes[::2], 2.0 * rule.weights[::2], 2.0 * rule.t_weights[::2])
            want = float(max(np.max(np.abs(f - h)) for f, h in zip(full, half)))
            assert rule.halving_defect == want, alpha

    @pytest.mark.parametrize("alpha", (0.01, 0.02))
    def test_refuses_below_the_floor(self, alpha):
        with pytest.raises(ConstructionError) as err:
            psi_rule(alpha, 200)
        message = str(err.value)
        assert f"alpha={alpha}" in message
        assert f"alpha >= {ALPHA_FLOOR}" in message
        stated = re.search(r"halving defect (\S+) exceeds", message)
        assert stated is not None and float(stated.group(1)) > HALVING_TOL

    def test_too_few_nodes_refused(self):
        with pytest.raises(ConstructionError, match="node_count=16"):
            psi_rule(0.8, 16)
        with pytest.raises(DomainError):
            psi_rule(0.8, 15)
        with pytest.raises(DomainError):
            psi_rule(1.0, 200)

    def test_cache_reads_the_rule(self):
        c = SolutionOperatorCache(FracOrder(0.6, q=0.25), 8, node_count=150)
        assert c.rule is psi_rule(0.6, 150)
        assert SolutionOperatorCache(FracOrder(1.0), 8).rule is None


class TestOperatorApplication:
    def test_time_zero_is_l_inverse(self, cache):
        u = np.random.default_rng(1).standard_normal(16)
        got = cache.multiplier_rows(0.0)[0] * u
        expect = l_inverse_symbol(16) * u
        assert np.linalg.norm(got - expect) <= 1e-10

    def test_norm_bounds_on_random_fields(self, cache):
        rng = np.random.default_rng(3)
        c1m0 = 0.5
        for s_row, t_row in zip(*cache.multiplier_table(np.linspace(0.0, 1.0, 8))):
            for _ in range(25):
                u = rng.standard_normal(16)
                nu = np.linalg.norm(u)
                assert np.linalg.norm(s_row * u) <= c1m0 * nu * (1 + 1e-12)
                cap = c1m0 / gamma(0.8) * nu
                assert np.linalg.norm(t_row * u) <= cap * (1 + 1e-12)


def apply_S(cache, t, u):
    """S(t) u with one multiplier row per call."""
    return cache.multiplier_rows(t)[0][: len(u)] * u


def apply_T(cache, t, u):
    """T(t) u with one multiplier row per call."""
    return cache.multiplier_rows(t)[1][: len(u)] * u


def reference_operator_bounds(cache, t_samples):
    """operator_bound_rows with clause (a) applying S and T to every unit
    field e_n at every sampled time, each call building its own multiplier
    row, and clause (b) looping over consecutive times.  Returns each
    clause's (worst ratio, cap, passed), and the worst ratio of the same
    bounds in the q-norm (the paper's clause (e)), which equals clause
    (a)'s."""
    t_samples = sorted(float(t) for t in t_samples)
    alpha = cache.order.alpha
    q = cache.order.q
    n_modes = cache.mode_count
    bounds = measure_bounds(n_modes, q=q)
    slack = 1.0 + 1e-9
    clauses = {}

    s_cap = bounds.C1 * bounds.M0
    t_cap = bounds.C1 * bounds.M0 / gamma(alpha)
    worst_a = worst_e = 0.0
    for t in t_samples:
        for u in np.eye(n_modes):
            nu = np.linalg.norm(u)
            worst_a = max(worst_a, np.linalg.norm(apply_S(cache, t, u)) / (s_cap * nu),
                          np.linalg.norm(apply_T(cache, t, u)) / (t_cap * nu))
            nq = norm_q(u, q)
            worst_e = max(worst_e,
                          norm_q(apply_S(cache, t, u), q) / (s_cap * nq),
                          norm_q(apply_T(cache, t, u), q) / (t_cap * nq))
    clauses["a_bounded"] = (worst_a, slack, worst_a <= slack)

    worst_b = 0.0
    s_table = cache.multiplier_table(t_samples)[0]
    for i in range(1, len(t_samples)):
        t1, t2 = t_samples[i - 1], t_samples[i]
        envelope = (cache._lam * abs(t2 ** alpha - t1 ** alpha) / gamma(1.0 + alpha)
                    * cache._linv)
        gap = np.abs(s_table[i] - s_table[i - 1])
        worst_b = max(worst_b, float(np.max(gap / (envelope * 1.05 + 1e-8))))
    clauses["b_continuity"] = (worst_b, 1.0, worst_b <= 1.0)

    cap_d = (alpha * bounds.C1 * bounds.Mq * gamma(2.0 - q)
             / gamma(1.0 + alpha * (1.0 - q)))
    worst_d = 0.0
    ts = np.geomspace(1e-3, max(t_samples) if max(t_samples) > 0 else 1.0, 40)
    for t, t_row in zip(ts, cache.multiplier_table(ts)[1]):
        measured = float(np.max(cache._lam ** q * t_row)) * t ** (q * alpha)
        worst_d = max(worst_d, measured / cap_d)
    clauses["d_envelope"] = (worst_d, slack, worst_d <= slack)
    return clauses, worst_e


def by_clause(rows):
    """{clause: (value, threshold, passed)} of operator_bound_rows."""
    prefix = "operator_bound_"
    assert all(row.name.startswith(prefix) for row in rows)
    return {row.name[len(prefix):]: (row.value, row.threshold, row.passed) for row in rows}


def random_field_ratio(cache, t_samples, trials, c1_m0, seed=0):
    """Largest ||S u|| / (C1 M0 ||u||) and ||T u|| Gamma(alpha) / (C1 M0 ||u||)
    over about `trials` random fields u, spread evenly over the sampled times."""
    rng = np.random.default_rng(seed)
    s_table, t_table = cache.multiplier_table(t_samples)
    t_scale = gamma(cache.order.alpha)
    worst = 0.0
    for s_row, t_row in zip(s_table, t_table):
        for u in rng.standard_normal((max(1, trials // len(s_table)), cache.mode_count)):
            cap = c1_m0 * np.linalg.norm(u)
            worst = max(worst, np.linalg.norm(s_row * u) / cap,
                        np.linalg.norm(t_row * u) * t_scale / cap)
    return worst


class TestBoundClauses:
    def test_all_clauses_pass(self, cache):
        rows = operator_bound_rows(cache, "alpha=0.8")
        assert [row.name for row in rows] == [
            "operator_bound_a_bounded", "operator_bound_b_continuity",
            "operator_bound_d_envelope"]
        assert all(row.passed and row.detail == "alpha=0.8" for row in rows)

    @pytest.mark.parametrize("alpha", (0.5, 0.8, 1.0))
    @pytest.mark.parametrize("samples,trials", ((33, 300), (33, 400)))
    def test_report_matches_per_field_reference(self, alpha, samples, trials):
        # the rows read 33 equally spaced times over [0, 1]
        c = SolutionOperatorCache(FracOrder(alpha, q=0.25, p=2.0), 16)
        ts = np.linspace(0.0, 1.0, samples)
        rows = by_clause(operator_bound_rows(c, f"alpha={alpha}"))
        want, worst_q_norm = reference_operator_bounds(c, ts)
        assert rows == want
        # the q-norm bounds follow from (a): the q-weights commute with S and T
        assert worst_q_norm == rows["a_bounded"][0]
        # the random-field estimate that the exact norms replaced stays below them
        bounds = measure_bounds(16, q=0.25)
        assert random_field_ratio(c, ts, trials, bounds.C1 * bounds.M0) <= rows["a_bounded"][0]
        for value, _, passed in rows.values():
            assert type(value) is float
            assert type(passed) is bool

    @staticmethod
    def patched(monkeypatch, edit):
        """multiplier_table with edit(s_table, t_table) applied to its rows."""
        table = SolutionOperatorCache.multiplier_table

        def edited(self, ts):
            s_table, t_table = table(self, ts)
            edit(s_table, t_table)
            return s_table, t_table
        monkeypatch.setattr(SolutionOperatorCache, "multiplier_table", edited)

    def test_a_violated_bound_is_reported(self, cache, monkeypatch):
        def doubled(s_table, t_table):
            s_table *= 2.0
            t_table *= 2.0
        self.patched(monkeypatch, doubled)
        value, _, passed = by_clause(operator_bound_rows(cache, "alpha=0.8"))["a_bounded"]
        assert not passed
        assert value >= 1.9

    @pytest.mark.parametrize("value", [1.0, math.nan])
    def test_a_broken_t_row_fails_continuity(self, cache, monkeypatch, value):
        # a T row that moves by 1 or more, or is NaN, has no finite ratio
        def broken(s_table, t_table):
            t_table[len(t_table) // 2] += value
        self.patched(monkeypatch, broken)
        rows = operator_bound_rows(cache, "alpha=0.8")
        assert rows[1] == CheckRow("operator_bound_b_continuity", "alpha=0.8",
                                   math.inf, 1.0, False)

    def test_a_nan_t_entry_fails_boundedness_and_envelope(self, cache, monkeypatch):
        # the NaN is not the first ratio either clause reduces, so a
        # reduction that drops a later NaN would report both passed
        def poisoned(s_table, t_table):
            t_table[16, 4] = math.nan
        self.patched(monkeypatch, poisoned)
        rows = by_clause(operator_bound_rows(cache, "alpha=0.8"))
        for name in ("a_bounded", "d_envelope"):
            value, _, passed = rows[name]
            assert math.isnan(value) and not passed, name

    def test_one_table_per_grid(self, cache, monkeypatch):
        calls = []
        table = SolutionOperatorCache.multiplier_table
        monkeypatch.setattr(SolutionOperatorCache, "multiplier_table",
                            lambda self, ts: calls.append(len(ts)) or table(self, ts))
        operator_bound_rows(cache, "alpha=0.8")
        assert calls == [33, 40]

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
