"""Runnable property battery behind the CLI verify mode.

Each check returns a row (name, detail, value, threshold, passed) so the
front end can emit a pass/fail table and an exit status.  The checks
mirror the module test suites: density normalization/moments/Laplace
identity, the dual density representations, the discrete fractional
calculus identities, and the solution-operator oracle and bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fracops, solution_ops, specfun
from .specfun import FracOrder


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
        rule = specfun.theta_quadrature(a, 200)
        rows.append(_row("density_normalization", f"alpha={a}",
                         rule.normalization_defect(), 1e-8))
        grid = np.geomspace(1e-2, 10.0, 25)
        vals = [specfun.mainardi_density(a, t) for t in grid]
        rows.append(_row("density_nonnegative", f"alpha={a}",
                         -min(vals), 0.0))
        worst = max(abs(specfun._density_tail_series(a, t, 1e-10)
                        - specfun._density_stable_integral(a, t))
                    for t in np.linspace(0.5, 1.0, 11))
        rows.append(_row("density_dual_representation", f"alpha={a}", worst, 1e-7))
    for a in (0.4, 0.8):
        rule = specfun.theta_quadrature(a, 200)
        worst = max(abs(rule.integrate(rule.nodes ** v) - specfun.mainardi_moment(a, v))
                    for v in (0.0, 0.25, 0.5, 0.75, 1.0))
        rows.append(_row("moment_identity", f"alpha={a}", worst, 1e-6))
    for a in (0.5, 0.8):
        rule = specfun.theta_quadrature(a, 200)
        worst = max(abs(rule.integrate(np.exp(-x * rule.nodes))
                        - specfun.mittag_leffler(a, 1.0, -x))
                    for x in np.linspace(0.0, 5.0, 11))
        rows.append(_row("laplace_identity", f"alpha={a}", worst, 1e-6))
    worst = max(abs(specfun.mainardi_density(0.5, t)
                    - math.exp(-t * t / 4.0) / math.sqrt(math.pi))
                for t in np.linspace(0.01, 4.0, 50))
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


def solution_op_checks() -> list:
    rows = []
    for a in (0.5, 0.8):
        cache = solution_ops.SolutionOperatorCache(FracOrder(a, q=0.25), 16)
        worst_s = worst_t = 0.0
        for t in np.linspace(0.0, 1.0, 32):
            s_row, t_row = cache.multiplier_rows(float(t))
            for n in range(1, 17):
                lam = n * n / (1.0 + n * n)
                z = -lam * t ** a
                worst_s = max(worst_s, abs(
                    s_row[n - 1] - specfun.mittag_leffler(a, 1.0, z) / (1 + n * n)))
                worst_t = max(worst_t, abs(
                    t_row[n - 1] - specfun.mittag_leffler(a, a, z) / (1 + n * n)))
        rows.append(_row("s_multiplier_oracle", f"alpha={a}", worst_s, 1e-6))
        rows.append(_row("t_multiplier_oracle", f"alpha={a}", worst_t, 1e-6))

        report = solution_ops.verify_operator_bounds(
            cache, np.linspace(0.0, 1.0, 33), trials=300, raise_on_failure=False)
        worst = max(c["worst_ratio"] for c in report["clauses"].values())
        rows.append(_row("operator_bound_clauses", f"alpha={a}", worst, 1.0))

        grid_rows = np.stack([cache.multiplier_rows(float(t))[0]
                              for t in np.linspace(0.0, 2.0, 64)])
        rows.append(_row("multiplier_monotone", f"alpha={a}",
                         float(np.max(np.diff(grid_rows, axis=0))), 1e-12))
    return rows


def run_battery() -> list:
    return density_checks() + fracops_checks() + solution_op_checks()
