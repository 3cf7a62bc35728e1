"""The names the benchmark harness in perfbench/ looks up in sobfrac.

perfbench traces sobfrac by rebinding functions and methods by name, and
its correctness gates call sobfrac directly.  These tests fail when a
traced name disappears or changes its call shape, rather than only the
traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from sobfrac import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY_SOLVE = """
[problem]
alpha = 0.8
horizon = 1.0
modes = 8
steps = 16
u0 = 1:0.5
v0 = 1:1.0
nonlocal = 0.3@0.5
nonlinearity = sin_grad:0.1

[output]
directory = {out}
"""

TINY_OPTIMIZE = """
[problem]
alpha = 0.8
q = 0.25
p = 2.0
horizon = 1.0
modes = 4
steps = 16
u0 = 1:0.5
v0 = 1:1.0
nonlocal = 0.3@0.5
controls = 1

[optimize]
control_modes = 2

[output]
directory = {out}
"""


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing"), importlib.import_module("workloads")
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def test_traced_names_exist(perfbench):
    tracing, _ = perfbench
    for home, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(home), attr)), (home, attr)
    for home, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(home), cls_name)
        assert callable(cls.__dict__[attr]), (home, cls_name, attr)


def test_untraced_names_exist():
    # perfbench calls these directly, outside its tracer: run.py's set-up
    # probe and density-evaluation counter, and the optimize gate
    from sobfrac import mild_solver, optctrl, specfun
    cli.SolutionOperatorCache(cli.FracOrder(1.0), 1)
    assert isinstance(specfun._density_cached.cache_info().misses, int)
    for home, name in ((optctrl, "random_admissible_bundle"), (optctrl, "cost_J"),
                       (mild_solver, "picard_solve")):
        assert callable(getattr(home, name)), name


def test_traced_solve_and_gates(perfbench, tmp_path):
    tracing, workloads = perfbench
    config = cli.parse_config(TINY_SOLVE.format(out=tmp_path), mode="solve")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        status = cli.run(config)
        # the alpha_sweep gate reads scalar-time, one-dimensional rows of
        # modes up to 8
        sweep_failures = workloads.check_sweep(config, tmp_path, status, 0)
    finally:
        tracer.uninstall()
    assert status == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.run", "mild_solver.picard_solve", "mild_solver.workspace",
            "mild_solver.sweep", "solution_ops.multiplier_rows"} <= names
    assert tracer.counts["mild_solver.sweeps"] >= 1
    assert {t for t, _ in workloads.ORACLE_POINTS} <= tracer.distinct_t
    assert sweep_failures == []
    # the solve gate imports apply_P and Trajectory and runs one more sweep
    assert workloads.check_solve(config, tmp_path, status, 0) == []


def test_sweep_template_reads_one_table_and_never_convolves(perfbench, tmp_path, monkeypatch):
    # alpha_sweep's solves have f = 0 and no controls, so their forcing is
    # zero: one table, and no convolution
    _, workloads = perfbench
    from sobfrac import mild_solver, solution_ops
    asked = []
    grid_table = solution_ops.SolutionOperatorCache.grid_table

    def record_grid(self, grid):
        asked.append(grid)
        return grid_table(self, grid)

    def refuse(*args):
        raise AssertionError("a linear uncontrolled solve convolved")

    monkeypatch.setattr(solution_ops.SolutionOperatorCache, "grid_table", record_grid)
    monkeypatch.setattr(mild_solver, "fftconvolve", refuse)
    mild_solver._grid_static.cache_clear()
    text = workloads.SWEEP_TEMPLATE.format(alpha="0.641", out=tmp_path)
    config = cli.parse_config(text, mode="solve")
    status = cli.run(config)
    assert status == 0
    assert len(asked) == 1
    assert workloads.check_sweep(config, tmp_path, status, 0) == []


def test_traced_cold_build_is_one_density_call(perfbench):
    # alpha_sweep's specfun metrics: a cold theta rule counts as cold and
    # evaluates the density at all of its nodes in one call
    tracing, _ = perfbench
    from sobfrac import specfun
    alpha = 0.6180339887   # used nowhere else, so the rule is not cached
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.wrap(tracing.ROOT, lambda: specfun.theta_quadrature(alpha))()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["specfun.theta_quadrature.cold"] == 1
    assert metrics["specfun.mainardi_density.calls"] == 1


def test_traced_optimize_and_gate(perfbench, tmp_path):
    # optimize_linear's hook reads the initial bundle's per-control node
    # views and counts M * modes cell coefficients per control
    tracing, workloads = perfbench
    config = cli.parse_config(TINY_OPTIMIZE.format(out=tmp_path), mode="optimize")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        status = cli.run(config)
    finally:
        tracer.uninstall()
    assert status == 0
    counts = tracer.counts
    assert counts["optctrl.iterations"] >= 1
    opt = workloads.strict_json((tmp_path / "report.json").read_text())["optimize"]
    assert counts["optctrl.inner_solves"] == opt["inner_solves"]
    coefficients = 16 * 2
    assert counts["optctrl.trial_steps"] == (
        opt["inner_solves"] - 1 - 2 * coefficients * counts["optctrl.iterations"])
    assert workloads.check_optimize(config, tmp_path, status, 0) == []
