"""Solution-operator multipliers against the Mittag-Leffler oracle."""

import math

import numpy as np
import pytest

from sobfrac import solution_ops
from sobfrac.errors import ConstructionError, DomainError
from sobfrac.solution_ops import (ALPHA_FLOOR, HALVING_TOL, T_WINDOW,
                                  SolutionOperatorCache, psi_rule,
                                  verify_operator_bounds)
from sobfrac.specfun import FracOrder, gamma, mittag_leffler
from sobfrac.verification import theta_rule_table
from sobfrac.spectral import SpectralField, l_inverse_symbol, measure_bounds, norm_q


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
    block each: the per-time evaluation that multiplier_table batches."""
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

    @pytest.mark.parametrize("modes, steps", ((4, 2), (8, 128), (32, 512)))
    def test_block_size_moves_no_bit(self, modes, steps):
        # multiplier_rows is the table in blocks of one time: the stacked
        # rows equal the blocked table bit for bit, whatever the block size
        c = SolutionOperatorCache(FracOrder(0.8, q=0.25), modes)
        ts = np.linspace(0.0, 1.0, steps + 1)
        rows = [c.multiplier_rows(float(t)) for t in ts]
        s_table, t_table = c.multiplier_table(ts)
        assert np.array_equal(s_table, np.stack([s for s, _ in rows]))
        assert np.array_equal(t_table, np.stack([t for _, t in rows]))

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


ORACLE_TS = np.concatenate([[0.0], np.geomspace(1e-5, 10.0, 49)])


class TestPsiRule:
    def test_matches_theta_rule_rows(self):
        # every alpha of the 0.01 grid where the theta rule builds well
        # inside its normalization gate, n = 1..64
        for alpha in np.round(np.arange(0.30, 0.905, 0.01), 2):
            order = FracOrder(float(alpha))
            got = SolutionOperatorCache(order, 64).multiplier_table(ORACLE_TS)
            want = theta_rule_table(order, 64, ORACLE_TS)
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
        assert psi_rule(0.8, 200).weight_sum_defect <= 1e-15

    @pytest.mark.parametrize("alpha", (0.01, 0.02))
    def test_refuses_below_the_floor(self, alpha):
        with pytest.raises(ConstructionError) as err:
            psi_rule(alpha, 200)
        message = str(err.value)
        assert f"alpha={alpha}" in message
        assert f"alpha >= {ALPHA_FLOOR}" in message
        assert "halving defect" in message
        assert err.value.achieved_defect > HALVING_TOL

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
        summary = c.rule_summary()
        assert summary["nodes"] == 150
        assert summary["weight_sum_defect"] == c.rule.weight_sum_defect
        assert SolutionOperatorCache(FracOrder(1.0), 8).rule_summary()["nodes"] == 0


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
    return SpectralField(cache.multiplier_rows(t)[0][: u.mode_count] * u.coeffs)


def apply_T(cache, t, u):
    """T(t) u with one multiplier row per call."""
    return SpectralField(cache.multiplier_rows(t)[1][: u.mode_count] * u.coeffs)


def reference_operator_bounds(cache, t_samples):
    """verify_operator_bounds with clause (a) applying S and T to every unit
    field e_n at every sampled time, each call building its own multiplier
    row, and clause (b) looping over consecutive times.  Also returns the
    worst ratio of the same bounds in the q-norm (the paper's clause (e)),
    which equals clause (a)'s."""
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
        for e_n in np.eye(n_modes):
            u = SpectralField(e_n)
            worst_a = max(worst_a, apply_S(cache, t, u).norm() / (s_cap * u.norm()),
                          apply_T(cache, t, u).norm() / (t_cap * u.norm()))
            nq = norm_q(u, q)
            worst_e = max(worst_e,
                          norm_q(apply_S(cache, t, u), q) / (s_cap * nq),
                          norm_q(apply_T(cache, t, u), q) / (t_cap * nq))
    clauses["a_bounded"] = {"worst_ratio": worst_a, "cap": slack, "passed": worst_a <= slack}

    worst_b = 0.0
    s_table = cache.multiplier_table(t_samples)[0]
    for i in range(1, len(t_samples)):
        t1, t2 = t_samples[i - 1], t_samples[i]
        envelope = (cache._lam * abs(t2 ** alpha - t1 ** alpha) / gamma(1.0 + alpha)
                    * cache._linv)
        gap = np.abs(s_table[i] - s_table[i - 1])
        worst_b = max(worst_b, float(np.max(gap / (envelope * 1.05 + 1e-8))))
    clauses["b_continuity"] = {"worst_ratio": worst_b, "cap": 1.0, "passed": worst_b <= 1.0}

    cap_d = (alpha * bounds.C1 * bounds.Mq * gamma(2.0 - q)
             / gamma(1.0 + alpha * (1.0 - q)))
    worst_d = 0.0
    ts = np.geomspace(1e-3, max(t_samples) if max(t_samples) > 0 else 1.0, 40)
    for t, t_row in zip(ts, cache.multiplier_table(ts)[1]):
        measured = float(np.max(cache._lam ** q * t_row)) * t ** (q * alpha)
        worst_d = max(worst_d, measured / cap_d)
    clauses["d_envelope"] = {"worst_ratio": worst_d, "cap": slack, "passed": worst_d <= slack}

    return {"C1": bounds.C1, "M0": bounds.M0, "Mq": bounds.Mq, "q": q,
            "clauses": clauses,
            "passed": all(c["passed"] for c in clauses.values())}, worst_e


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
        report = verify_operator_bounds(cache, np.linspace(0.0, 1.0, 33))
        assert report["passed"]
        assert set(report["clauses"]) == {"a_bounded", "b_continuity", "d_envelope"}

    @pytest.mark.parametrize("alpha", (0.5, 0.8, 1.0))
    @pytest.mark.parametrize("samples,trials", ((33, 300), (33, 400), (7, 50)))
    def test_report_matches_per_field_reference(self, alpha, samples, trials):
        c = SolutionOperatorCache(FracOrder(alpha, q=0.25, p=2.0), 16)
        ts = np.linspace(0.0, 1.0, samples)
        report = verify_operator_bounds(c, ts, raise_on_failure=False)
        want, worst_q_norm = reference_operator_bounds(c, ts)
        assert report == want
        # the q-norm bounds follow from (a): the q-weights commute with S and T
        assert worst_q_norm == report["clauses"]["a_bounded"]["worst_ratio"]
        # the random-field estimate that the exact norms replaced stays below them
        assert (random_field_ratio(c, ts, trials, report["C1"] * report["M0"])
                <= report["clauses"]["a_bounded"]["worst_ratio"])
        for clause in report["clauses"].values():
            assert type(clause["worst_ratio"]) is float
            assert type(clause["passed"]) is bool

    def test_one_table_per_grid(self, cache, monkeypatch):
        calls = []
        table = SolutionOperatorCache.multiplier_table
        monkeypatch.setattr(SolutionOperatorCache, "multiplier_table",
                            lambda self, ts: calls.append(len(ts)) or table(self, ts))
        verify_operator_bounds(cache, np.linspace(0.0, 1.0, 33))
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
