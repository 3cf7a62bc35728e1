"""Runnable property battery behind the CLI verify mode.

Each check returns a row (name, detail, value, threshold, passed) so the
front end can emit a pass/fail table and an exit status.  The checks
mirror the module test suites: density normalization/moments/Laplace
identity, the dual density representations, the discrete fractional
calculus identities, and the solution-operator oracle and bounds.  The
paper's representation, the theta rule against the Mainardi density,
checks the psi rule that the solver's multipliers come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fracops, specfun, spectral
from .fracops import FracOrder, gamma
from .solution_ops import SolutionOperatorCache


@dataclass(frozen=True)
class CheckRow:
    name: str
    detail: str
    value: float
    threshold: float
    passed: bool


def _row(name, detail, value, threshold, larger_is_pass=False):
    ok = value >= threshold if larger_is_pass else value <= threshold
    return CheckRow(name, detail, float(value), float(threshold), bool(ok))


_DENSITY_ALPHAS = (0.3, 0.5, 0.6, 0.8, 0.9)


def density_checks() -> list:
    rows = []
    for a in _DENSITY_ALPHAS:
        rule = specfun.theta_quadrature(a)
        rows.append(_row("density_normalization", f"alpha={a}",
                         rule.normalization_defect(), 1e-8))
        vals = specfun.mainardi_density(a, np.geomspace(1e-2, 10.0, 25))
        rows.append(_row("density_nonnegative", f"alpha={a}", -np.min(vals), 0.0))
        thetas = np.linspace(0.5, 1.0, 11)
        worst = np.max(np.abs(specfun._density_tail_series(a, thetas, 1e-10)
                              - specfun._density_stable_integral(a, thetas)[0]))
        rows.append(_row("density_dual_representation", f"alpha={a}", worst, 1e-7))
    for a in (0.4, 0.8):
        rule = specfun.theta_quadrature(a)
        worst = max(abs(rule.integrate(rule.nodes ** v) - specfun.mainardi_moment(a, v))
                    for v in (0.0, 0.25, 0.5, 0.75, 1.0))
        rows.append(_row("moment_identity", f"alpha={a}", worst, 1e-6))
    for a in (0.5, 0.8):
        rule = specfun.theta_quadrature(a)
        worst = max(abs(rule.integrate(np.exp(-x * rule.nodes))
                        - specfun.mittag_leffler(a, 1.0, -x))
                    for x in np.linspace(0.0, 5.0, 11))
        rows.append(_row("laplace_identity", f"alpha={a}", worst, 1e-6))
    thetas = np.linspace(0.01, 4.0, 50)
    worst = np.max(np.abs(specfun.mainardi_density(0.5, thetas)
                          - np.exp(-thetas * thetas / 4.0) / math.sqrt(math.pi)))
    rows.append(_row("half_order_closed_form", "alpha=0.5", worst, 1e-8))
    return rows


def fracops_checks() -> list:
    rows = []
    grid = fracops.TimeGrid(1.0, 2000)
    t = grid.nodes()
    interior = t >= 0.25

    const = fracops.SampledFn(grid, np.full(t.size, 2.0))
    cap = fracops.caputo_deriv(const, 0.5).values
    rows.append(_row("caputo_constant_zero", "alpha=0.5", np.max(np.abs(cap)), 1e-12))

    rl = fracops.rl_deriv(const, 0.5).values
    ref = 2.0 * t[1:] ** -0.5 / math.gamma(0.5)
    rel = np.abs(rl[1:] - ref) / ref
    rows.append(_row("rl_constant_blowup_law", "alpha=0.5 t>=a/4",
                     np.max(rel[interior[1:]]), 0.02))

    smooth = fracops.SampledFn(grid, np.sin(t) + 2.0)
    gl = fracops.gl_deriv(smooth, 0.5).values
    rl2 = fracops.rl_deriv(smooth, 0.5).values
    rel = np.abs(gl[interior] - rl2[interior]) / np.abs(rl2[interior])
    rows.append(_row("gl_vs_rl_agreement", "smooth probe", np.max(rel), 0.02))

    f1 = fracops.SampledFn(grid, np.sin(t))
    f2 = fracops.SampledFn(grid, np.cos(t))
    mix = fracops.SampledFn(grid, 2.0 * f1.values - 3.0 * f2.values)
    lin = fracops.frac_integral(mix, 0.6).values - (
        2.0 * fracops.frac_integral(f1, 0.6).values
        - 3.0 * fracops.frac_integral(f2, 0.6).values)
    rows.append(_row("frac_integral_linearity", "alpha=0.6", np.max(np.abs(lin)), 1e-12))

    one = fracops.SampledFn(grid, np.ones(t.size))
    comp = fracops.frac_integral(fracops.frac_integral(one, 0.3), 0.4).values
    direct = fracops.frac_integral(one, 0.7).values
    rows.append(_row("frac_integral_composition", "0.3+0.4 t>=a/4",
                     np.max(np.abs(comp - direct)[interior]), 5.0 * grid.dt))

    errs = []
    for m in (500, 1000):
        g = fracops.TimeGrid(1.0, m)
        tm = g.nodes()
        got = fracops.frac_integral(fracops.SampledFn(g, tm ** 0.5), 0.5).values
        reference = math.gamma(1.5) / math.gamma(2.0) * tm
        errs.append(np.max(np.abs(got - reference)))
    rows.append(_row("frac_integral_refinement", "M 500 -> 1000",
                     errs[0] / errs[1], 1.7, larger_is_pass=True))
    return rows


def theta_rule_table(alpha: float, mode_count: int, ts) -> tuple[np.ndarray, np.ndarray]:
    """(s_table, t_table) from the theta rule: the subordination
    integrals s = L^-1 int zeta_a(th) exp(-lambda t^a th) dth and
    t = a L^-1 int th zeta_a(th) exp(-lambda t^a th) dth."""
    rule = specfun.theta_quadrature(alpha)
    wz = rule.weights * rule.density_values
    lam = spectral.generator_symbol(mode_count)
    linv = spectral.l_inverse_symbol(mode_count)
    scaled = lam[None, :] * (np.asarray(ts, dtype=float) ** alpha)[:, None]
    expo = np.exp(-scaled[:, :, None] * rule.nodes)
    return linv * (expo @ wz), alpha * linv * (expo @ (wz * rule.nodes))


# The times of the boundedness and continuity rows, and of the envelope row
_BOUND_TS = np.linspace(0.0, 1.0, 33)
_ENVELOPE_TS = np.geomspace(1e-3, 1.0, 40)


def operator_bound_rows(cache: SolutionOperatorCache, detail: str) -> list:
    """The rows of the boundedness, continuity and envelope claims on the
    multiplier table of one order:

    (a) ||S(t)|| <= C1 M0 and ||T(t)|| <= C1 M0 / Gamma(alpha) at every
        t of _BOUND_TS, exactly: each operator is diagonal, so its norm is
        its largest |multiplier|.  The paper's clause (e), the same bounds
        in the q-norm, follows from (a): the q-weights commute with the
        diagonal operators, so both norms of each operator agree;
    (b) multiplier continuity in t against the exact Lipschitz envelope
        lambda_n |t2^a - t1^a| / (Gamma(1+a) (1+n^2)); a T row that moves
        by 1 or more between times, or is NaN, gives an infinite ratio;
    (d) ||A^q T(t)|| t^(q a) stays below a C1 Mq Gamma(2-q)/Gamma(1+a(1-q))
        with the closed-form Mq = (q/e)^q, at every t of _ENVELOPE_TS.

    Each row holds its clause's worst ratio and the cap it must stay
    within (1, or 1 + 1e-9 where the bound is attained); nothing is
    raised.  A NaN in the rows that (a) or (d) reads makes its worst
    ratio NaN, which fails it.
    """
    alpha, q = cache.order.alpha, cache.order.q
    lam = spectral.generator_symbol(cache.mode_count)
    bounds = spectral.measure_bounds(cache.mode_count, q=q)
    slack = 1.0 + 1e-9

    # S and T rows at every time, shared by clauses (a) and (b)
    s_table, t_table = cache.multiplier_table(_BOUND_TS)

    # (a) boundedness, in the plain norm and so in the q-norm
    s_cap = bounds.C1 * bounds.M0
    t_cap = bounds.C1 * bounds.M0 / gamma(alpha)
    # numpy's maximum propagates a NaN, which then fails the clause
    worst_a = np.maximum(np.max(np.abs(s_table)) / s_cap, np.max(np.abs(t_table)) / t_cap)

    # (b) strong continuity via the Mittag-Leffler Lipschitz envelope,
    # between consecutive times
    steps = np.abs(np.diff(_BOUND_TS ** alpha))[:, None]
    envelope = (lam * steps / gamma(1.0 + alpha)
                * spectral.l_inverse_symbol(cache.mode_count))
    gap = np.abs(np.diff(s_table, axis=0))
    worst_b = np.max(gap / (envelope * 1.05 + 1e-8), initial=0.0)
    if not np.all(np.abs(np.diff(t_table, axis=0)) < 1.0):
        worst_b = math.inf

    # (d) the t^{-q alpha} envelope for ||A^q T(t)||
    cap_d = (alpha * bounds.C1 * bounds.Mq * gamma(2.0 - q)
             / gamma(1.0 + alpha * (1.0 - q)))
    weights = spectral.q_weights(cache.mode_count, q)
    t_rows = cache.multiplier_table(_ENVELOPE_TS)[1]
    worst_d = np.max([float(np.max(weights * t_row)) * t ** (q * alpha) / cap_d
                      for t, t_row in zip(_ENVELOPE_TS, t_rows)])

    return [_row("operator_bound_a_bounded", detail, worst_a, slack),
            _row("operator_bound_b_continuity", detail, worst_b, 1.0),
            _row("operator_bound_d_envelope", detail, worst_d, slack)]


def solution_op_checks(order: FracOrder, mode_count: int, node_count: int) -> list:
    """Multiplier and operator-bound rows at the fixed orders 0.5, 0.8 and
    0.95, and at the configured order with its mode and node counts."""
    rows = []
    wide_ts = np.concatenate([[0.0], np.geomspace(1e-5, 10.0, 25)])
    for a in (0.5, 0.8):
        got = SolutionOperatorCache(FracOrder(a), 64).multiplier_table(wide_ts)
        want = theta_rule_table(a, 64, wide_ts)
        worst = max(np.max(np.abs(g - w)) for g, w in zip(got, want))
        rows.append(_row("multiplier_rule_vs_theta", f"alpha={a}", worst, 1e-10))
    # the series needs mpmath at t = 10, so the wide times keep to a few modes
    unit_ts, few = np.linspace(0.0, 1.0, 32), (1, 4, 16, 64)
    for detail, cache, ts, modes in (
            ("alpha=0.5", SolutionOperatorCache(FracOrder(0.5, q=0.25), 16),
             unit_ts, range(1, 17)),
            ("alpha=0.8", SolutionOperatorCache(FracOrder(0.8, q=0.25), 16),
             unit_ts, range(1, 17)),
            ("alpha=0.95", SolutionOperatorCache(FracOrder(0.95, q=0.25), 64),
             wide_ts, few),
            (f"config alpha={order.alpha}",
             SolutionOperatorCache(order, mode_count, node_count),
             wide_ts, [n for n in few if n <= mode_count])):
        a = cache.order.alpha
        worst = 0.0
        for t, s_row, t_row in zip(ts, *cache.multiplier_table(ts)):
            for n in modes:
                z = -n * n / (1.0 + n * n) * t ** a
                s_ml, t_ml = (specfun.mittag_leffler(a, b, z) / (1 + n * n) for b in (1.0, a))
                worst = max(worst, abs(s_row[n - 1] - s_ml), abs(t_row[n - 1] - t_ml))
        rows.append(_row("multiplier_rule_vs_series", detail, worst, 1e-9))
        rows.extend(operator_bound_rows(cache, detail))
        grid_rows = cache.multiplier_table(np.linspace(0.0, 2.0, 64))[0]
        rows.append(_row("multiplier_monotone", detail,
                         float(np.max(np.diff(grid_rows, axis=0))), 1e-12))
    return rows


def run_battery(order: FracOrder, mode_count: int, node_count: int) -> list:
    """Every check, the configured order, modes and psi-rule nodes included."""
    return (density_checks() + fracops_checks()
            + solution_op_checks(order, mode_count, node_count))
