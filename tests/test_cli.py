"""Config parsing, run pipelines, artifact formats, exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sobfrac import cli, solution_ops
from sobfrac.cli import _fmt, main, parse_config, run
from sobfrac.errors import ConfigError, EvaluationError
from sobfrac.mild_solver import SolveReport
from sobfrac.optctrl import DescentLog
from sobfrac.specfun import mittag_leffler
from sobfrac.verification import CheckRow
from sobfrac.spectral import (BoundConstants, SpectralField, collocation_grid,
                              field_to_grid)

MINIMAL = """
[problem]
alpha = 0.8
horizon = 1.0
modes = 8
steps = 64
u0 = 1:0.5
"""

README = Path(__file__).resolve().parent.parent / "README.md"

REFERENCE_CFG = """
[problem]
alpha = 0.8
q = 0.25
p = 2.0
horizon = 1.0
modes = 8
steps = 64
u0 = 1:0.5 2:0.2
v0 = 1:1.0
nonlocal = 0.3@0.5
controls = 2

[optimize]
budget = 40
control_modes = 4
init = zero

[output]
seed = 7
"""


def strict_json(path):
    """json.loads that rejects the NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def reference_csv(header, rows):
    """The per-value CSV writer the table writer replaced: floats with
    _fmt, everything else with str."""
    lines = [header]
    lines.extend(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def reference_trajectory_csvs(traj, mode_count):
    """trajectory.csv and modes.csv, one field_to_grid call per node."""
    ts = traj.grid.nodes()
    n_x = 4 * mode_count
    xs = collocation_grid(n_x)
    rows = []
    for m, t in enumerate(ts):
        vals = field_to_grid(SpectralField(traj.coeffs[m]))
        rows.extend((float(t), float(x), float(v)) for x, v in zip(xs, vals))
    trajectory = reference_csv("t,x,u", rows)
    rows = []
    for m, t in enumerate(ts):
        rows.extend((float(t), n + 1, float(c)) for n, c in enumerate(traj.coeffs[m]))
    return trajectory, reference_csv("t,n,coefficient", rows)


def reference_controls_csv(bundle):
    rows = []
    for j, ctrl in enumerate(bundle.controls):
        for m, t in enumerate(ctrl.grid.nodes()):
            rows.extend((j + 1, float(t), n + 1, float(c))
                        for n, c in enumerate(ctrl.coeffs[m]))
    return reference_csv("control,t,n,coefficient", rows)


def fresh_interpreter(probe):
    """Standard output of `probe` run by a new interpreter on this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def spy(monkeypatch, name):
    """Record the results of cli.<name> while the run calls it."""
    results = []
    original = getattr(cli, name)

    def wrapper(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, wrapper)
    return results


class TestTableWriter:
    def test_solve_csvs_match_per_node_writer(self, tmp_path, monkeypatch):
        solved = spy(monkeypatch, "picard_solve")
        text = (MINIMAL + "v0 = 1:1.0\nnonlocal = 0.3@0.5\n"
                "nonlinearity = sin_grad:0.1\n"
                f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(parse_config(text, mode="solve")) == 0
        trajectory, modes = reference_trajectory_csvs(solved[0][0], 8)
        assert (tmp_path / "trajectory.csv").read_text() == trajectory
        assert (tmp_path / "modes.csv").read_text() == modes

    def test_optimize_csvs_match_per_node_writer(self, tmp_path, monkeypatch):
        optimized = spy(monkeypatch, "optimize_controls")
        text = REFERENCE_CFG + f"directory = {tmp_path}\n"
        assert run(parse_config(text, mode="optimize")) == 0
        bundle, traj, log = optimized[0]
        trajectory, modes = reference_trajectory_csvs(traj, 8)
        assert (tmp_path / "trajectory.csv").read_text() == trajectory
        assert (tmp_path / "modes.csv").read_text() == modes
        assert (tmp_path / "controls.csv").read_text() == reference_controls_csv(bundle)
        assert (tmp_path / "descent.csv").read_text() == reference_csv(
            "iteration,J", [(i, float(j)) for i, j in enumerate(log.cost_values)])

    def test_table_lines_edge_cells_match_per_value_writer(self):
        cells = [-0.0, 5e-324, 1e-5, 1e16, 1e17, 123456789012345678.0,
                 math.nan, math.inf, -math.inf]
        ts = [0.0, 0.5]
        values = np.array([cells, cells[::-1]])
        labels = [str(n) for n in range(len(cells))]
        lines = cli._table_lines([_fmt(t) for t in ts], labels, values, prefix="3,")
        assert len(lines) == len(ts)
        assert "\n".join(["h", *lines]) + "\n" == reference_csv(
            "h", [(3, t, label, v) for t, row in zip(ts, values.tolist())
                  for label, v in zip(labels, row)])

    def test_table_lines_percent_label_is_literal(self):
        lines = cli._table_lines(["1"], ["x%s", "100%%"], np.array([[0.25, -2.0]]),
                                 prefix="%d,")
        assert lines == ["%d,1,x%s,0.25\n%d,1,100%%,-2"]

    def test_verify_csv_matches_per_value_writer(self, tmp_path, monkeypatch):
        rows = [CheckRow("density_normalization", "alpha=0.3", 2.687e-14, 1e-8, True),
                CheckRow("frac_integral_refinement", "M 500 -> 1000", 1.0 / 3.0,
                         1.7, False)]
        monkeypatch.setattr(cli, "run_battery", lambda order, modes, nodes: rows)
        text = MINIMAL + f"\n[output]\ndirectory = {tmp_path}\n"
        assert run(parse_config(text, mode="verify")) == 1
        assert (tmp_path / "verify.csv").read_text() == reference_csv(
            "check,detail,value,threshold,status",
            [(r.name, r.detail, r.value, r.threshold, "pass" if r.passed else "fail")
             for r in rows])


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL, mode="solve")
        assert cfg.problem.order.q == 0.25
        assert cfg.problem.order.p == 2.0
        assert cfg.solver_tol == 1e-8
        assert cfg.quad_nodes == 200
        assert cfg.problem.u0.coeffs[0] == 0.5
        assert np.all(cfg.problem.v0.coeffs == 0.0)
        assert cfg.echo["problem.alpha"] == "0.8"

    def test_alpha_out_of_range(self):
        text = MINIMAL.replace("alpha = 0.8", "alpha = 1.5")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "alpha out of (0,1]" in str(err.value)
        assert err.value.line == 3

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "bogus = 1\n")
        assert err.value.line is not None

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config("[nope]\nx = 1\n" + MINIMAL)

    def test_missing_required(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[problem]\nalpha = 0.5\n")
        assert "missing required" in str(err.value)

    def test_reproduction_instance_passes_hypotheses(self):
        cfg = parse_config(REFERENCE_CFG, mode="optimize")
        from sobfrac.optctrl import hypothesis_check
        report = hypothesis_check(cfg.problem)
        assert report["alpha_q"]["value"] == 0.2
        assert abs(report["p_alpha_one_minus_q"]["value"] - 1.2) <= 1e-12
        assert report["passed"]

    def test_bad_mode_entry(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("u0 = 1:0.5", "u0 = 9:1.0"))

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "alpha = 0.5\n")

    @pytest.mark.parametrize("old, new, line", (
        ("horizon = 1.0", "horizon = inf", 4),
        ("alpha = 0.8", "alpha = nan", 3),
        ("u0 = 1:0.5", "u0 = 1:inf", 7),
        ("u0 = 1:0.5", "u0 = 1:0.5\nnonlocal = inf@0.5", 8),
        ("u0 = 1:0.5", "u0 = 1:0.5\nnonlocal = 0.3@nan", 8),
        ("u0 = 1:0.5", "u0 = 1:0.5\nnonlinearity = sin_grad:inf", 8),
        ("u0 = 1:0.5", "u0 = 1:0.5\nnonlinearity = sin_grad:nan", 8),
        ("u0 = 1:0.5", "u0 = 1:0.5\np = inf", 8),
        ("u0 = 1:0.5", "u0 = 1:0.5\n[solver]\ntol = inf", 9),
        ("u0 = 1:0.5", "u0 = 1:0.5\n[cost]\ncontrol_weight = -inf", 9),
        ("u0 = 1:0.5", "u0 = 1:0.5\n[optimize]\nradius = inf", 9),
    ), ids=("horizon", "alpha", "u0", "nonlocal_weight", "nonlocal_time",
            "gain_inf", "gain_nan", "p", "tol", "control_weight", "radius"))
    def test_non_finite_number_rejected(self, old, new, line):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace(old, new))
        assert err.value.line == line

    def test_negative_seed_rejected_with_line(self):
        # default_rng refuses it only after the solve, with a bare traceback
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "[output]\nseed = -5\n", mode="optimize")
        assert err.value.line == 9

    def test_too_few_quad_nodes_rejected_with_line(self):
        # alpha = 0.8 needs 113 nodes; the run would refuse with a
        # ConstructionError that names the alpha floor
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "[solver]\nquad_nodes = 100\n", mode="solve")
        assert err.value.line == 9
        assert "quad_nodes=100 is too few" in str(err.value)
        # verify checks the configured rule too
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "[solver]\nquad_nodes = 100\n", mode="verify")
        assert err.value.line == 9

    @pytest.mark.parametrize("mode", ("verify", "solve", "optimize"))
    def test_horizon_outside_psi_window_rejected_with_line(self, mode):
        text = MINIMAL + "controls = 1\n"
        # the last node, 2e4, lies past the window's 1e4: blame the horizon
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace("horizon = 1.0", "horizon = 2e4"), mode=mode)
        assert err.value.line == 4
        assert "horizon=20000 exceeds the psi rule's window" in str(err.value)
        # dt = 1e-6 / 200 = 5e-9 lies below the window's 1e-8: blame the steps
        short = text.replace("horizon = 1.0", "horizon = 1e-6").replace(
            "steps = 64", "steps = 200")
        with pytest.raises(ConfigError) as err:
            parse_config(short, mode=mode)
        assert err.value.line == 6
        assert "horizon/steps=5e-09 falls below" in str(err.value)
        # the semigroup serves every time
        for edge in (text.replace("horizon = 1.0", "horizon = 2e4"), short):
            cfg = parse_config(edge.replace("alpha = 0.8", "alpha = 1.0"), mode=mode)
            assert cfg.problem.order.alpha == 1.0

    def test_defaulted_control_modes_fit_few_modes(self, tmp_path):
        two = MINIMAL.replace("modes = 8", "modes = 2") + "controls = 1\n"
        for mode in ("verify", "solve"):
            cfg_path = tmp_path / f"{mode}.cfg"
            cfg_path.write_text(two)
            assert main([mode, "--config", str(cfg_path),
                         "--out", str(tmp_path / mode)]) == 0
        cfg = parse_config(two + "[optimize]\nbudget = 3\n"
                           f"[output]\ndirectory = {tmp_path / 'optimize'}\n",
                           mode="optimize")
        assert cfg.control_modes == 2
        assert cfg.echo["optimize.control_modes"] == "2"
        run(cfg)
        rows = csv.DictReader(
            (tmp_path / "optimize" / "controls.csv").read_text().splitlines())
        assert {r["n"] for r in rows} == {"1", "2"}
        # a value given is checked as given, against its line
        with pytest.raises(ConfigError) as err:
            parse_config(two + "[optimize]\ncontrol_modes = 3\n", mode="solve")
        assert err.value.line == 10
        assert "control_modes=3 out of [1,2]" in str(err.value)

    def test_optimize_without_controls_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL, mode="optimize")
        assert err.value.line is None
        assert "requires problem.controls >= 1" in str(err.value)
        assert parse_config(MINIMAL, mode="solve").problem.control_count == 0

    def test_non_finite_gain_exits_2(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL + "nonlinearity = sin_grad:inf\n")
        assert main(["solve", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


class TestReadmeConfig:
    def test_block_keys_and_defaults_match_the_parser(self):
        # a key's stated default is the value shown, unless its comment
        # says required or names a default ("empty" is the empty string)
        block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"),
                          re.S).group(1)
        stated = {}
        section = None
        for line in block.splitlines():
            entry, _, comment = line.partition("#")
            entry = entry.strip()
            if entry.startswith("["):
                section = entry[1:-1]
            elif entry:
                key, _, shown = (part.strip() for part in entry.partition("="))
                if "required" in comment:
                    default = None
                elif "default:" in comment:
                    default = comment.split("default:", 1)[1].strip()
                    default = "" if default == "empty" else default
                else:
                    default = shown
                stated[(section, key)] = default
        assert stated == cli._KEYS


class TestReportShape:
    # each result section is its record's fields: a field added to
    # SolveReport, DescentLog or BoundConstants reaches report.json as is
    def test_solve_and_optimize_sections_are_the_records(self, tmp_path):
        tiny = MINIMAL.replace("steps = 64", "steps = 16")
        solve_out, optimize_out = tmp_path / "solve", tmp_path / "optimize"
        assert run(parse_config(tiny + f"\n[output]\ndirectory = {solve_out}\n",
                                mode="solve")) == 0
        assert run(parse_config(tiny + "controls = 1\n\n[optimize]\ncontrol_modes = 2\n"
                                f"\n[output]\ndirectory = {optimize_out}\n",
                                mode="optimize")) == 0
        constants = {f.name for f in fields(BoundConstants)}
        solve = strict_json(solve_out / "report.json")
        assert set(solve["solve"]) == {f.name for f in fields(SolveReport)}
        assert set(solve["measured_constants"]) == constants
        optimize = strict_json(optimize_out / "report.json")
        assert set(optimize["optimize"]) == ({f.name for f in fields(DescentLog)}
                                             | {"final_cost", "admissibility_value"})
        assert set(optimize["measured_constants"]) == constants
        # the stationarity at each iterate, ending at the reported one
        log = optimize["optimize"]
        assert len(log["gradient_norms"]) == len(log["cost_values"])
        assert log["gradient_norms"][-1] == log["stationarity"]


class TestSolveMode:
    def test_artifacts_and_oracle(self, tmp_path):
        text = MINIMAL + f"\nv0 = 1:1.0\n\n[output]\ndirectory = {tmp_path}\n"
        cfg = parse_config(text, mode="solve")
        assert run(cfg) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["solve"]["converged"]
        assert report["solve"]["nonlocal_denominator_min"] == 1.0
        assert "hypothesis_check" in report
        assert report["config"]["problem.alpha"] == "0.8"

        rows = {(float(r["t"]), int(r["n"])): float(r["coefficient"])
                for r in csv.DictReader((tmp_path / "modes.csv").read_text().splitlines())}
        # per-mode oracle at (t=1, n=1)
        alpha = 0.8
        bracket = 1.0 + 0.5 / math.gamma(2.0 - alpha)
        expect = -2.0 * mittag_leffler(alpha, 1.0, -0.5) / 2.0 * bracket
        assert abs(rows[(1.0, 1)] - expect) <= 1e-3
        assert (tmp_path / "trajectory.csv").exists()

    def test_nonconvergent_instance_fails_with_diagnostic(self, tmp_path):
        text = MINIMAL + ("\nnonlocal = 0.3@0.5\nnonlinearity = sin_grad:40\n"
                          f"\n[solver]\nmax_iter = 20\n\n[output]\ndirectory = {tmp_path}\n")
        cfg = parse_config(text, mode="solve")
        assert run(cfg) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["error"]["type"] == "NonConvergenceError"
        assert len(report["error"]["residual_history"]) == 20

    def test_large_nonlocal_weight_solves(self, tmp_path):
        # plain Picard iteration diverges at this weight
        text = MINIMAL + f"\nnonlocal = 3.0@0.5\n\n[output]\ndirectory = {tmp_path}\n"
        assert run(parse_config(text, mode="solve")) == 0
        solve = strict_json(tmp_path / "report.json")["solve"]
        assert solve["converged"]
        assert solve["nonlocal_denominator_min"] > 1.0

    def test_alpha_below_floor_reports_typed_error(self, tmp_path):
        # the 200-node psi rule refuses below its floor; p keeps the
        # exponent condition p alpha (1 - q) > 1
        text = (MINIMAL.replace("alpha = 0.8", "alpha = 0.01\np = 200.0")
                + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(parse_config(text, mode="solve")) == 1
        report = strict_json(tmp_path / "report.json")
        assert report["error"]["type"] == "ConstructionError"
        assert "alpha=0.01" in report["error"]["message"]
        assert f"alpha >= {solution_ops.ALPHA_FLOOR}" in report["error"]["message"]

    def test_alpha_near_one_solves(self, tmp_path):
        # the theta rule refused alpha >= 0.938; the psi rule serves it
        text = (MINIMAL.replace("alpha = 0.8", "alpha = 0.99")
                + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(parse_config(text, mode="solve")) == 0
        assert strict_json(tmp_path / "report.json")["solve"]["converged"]

    def test_report_names_the_multiplier_rule(self, tmp_path):
        text = (MINIMAL + f"\n[solver]\nquad_nodes = 150\n"
                f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(parse_config(text, mode="solve")) == 0
        rule = strict_json(tmp_path / "report.json")["multiplier_rule"]
        assert rule["nodes"] == 150
        assert rule["kind"] == "psi"
        assert 0.0 <= rule["weight_sum_defect"] <= 1e-12
        assert 0.0 <= rule["halving_defect"] <= solution_ops.HALVING_TOL


    def test_hypothesis_check_error_reported(self, tmp_path, monkeypatch):
        def broken(problem):
            raise EvaluationError("nonlinearity returned non-finite values")

        monkeypatch.setattr(cli, "hypothesis_check", broken)
        text = MINIMAL + f"\n[output]\ndirectory = {tmp_path}\n"
        assert run(parse_config(text, mode="solve")) == 1
        report = strict_json(tmp_path / "report.json")
        assert report["error"]["type"] == "EvaluationError"
        assert "hypothesis_check" not in report


def verify_rows(text, out):
    """The rows of verify.csv after a verify run of the config text."""
    assert run(parse_config(text + f"\n[output]\ndirectory = {out}\n", mode="verify")) == 0
    return list(csv.DictReader((out / "verify.csv").read_text().splitlines()))


class TestVerifyMode:
    def test_all_rows_pass(self, tmp_path):
        rows = verify_rows(MINIMAL, tmp_path)
        assert len(rows) == 43 + 5
        assert all(r["status"] == "pass" for r in rows)

    def test_one_row_per_clause_per_order(self, tmp_path):
        rows = verify_rows(MINIMAL, tmp_path)
        per_order = ["multiplier_rule_vs_series", "multiplier_monotone",
                     *(f"operator_bound_{c}" for c in
                       ("a_bounded", "b_continuity", "d_envelope"))]
        for detail in ("alpha=0.5", "alpha=0.8", "alpha=0.95", "config alpha=0.8"):
            names = [r["check"] for r in rows
                     if r["detail"] == detail and r["check"] in per_order]
            assert sorted(names) == sorted(per_order)
        names = {r["check"] for r in rows}
        # (e), the q-norm bounds, follows from (a) and has no row of its own
        assert not names & {"operator_bound_clauses", "operator_bound_e_bounded_q",
                            "s_multiplier_oracle", "t_multiplier_oracle"}
        # the clauses the folded row hid behind clause (a)'s exact 1
        d_envelope = [float(r["value"]) for r in rows
                      if r["check"] == "operator_bound_d_envelope" and r["detail"] == "alpha=0.8"]
        assert d_envelope and d_envelope[0] < 1.0

    def test_config_reaches_the_battery(self, tmp_path):
        first = verify_rows(MINIMAL, tmp_path / "a")
        other = (MINIMAL.replace("alpha = 0.8", "alpha = 0.3").replace("modes = 8", "modes = 32")
                 + "q = 0.5\n[solver]\nquad_nodes = 160\n")
        second = verify_rows(other, tmp_path / "b")
        assert all(r["status"] == "pass" for r in first + second)
        assert (tmp_path / "a" / "verify.csv").read_text() != (
            tmp_path / "b" / "verify.csv").read_text()
        fixed = [r for r in first if not r["detail"].startswith("config")]
        assert fixed == [r for r in second if not r["detail"].startswith("config")]
        # clause (a) reads exactly 1 at every order; the rest move
        moved = {"multiplier_rule_vs_series", "operator_bound_b_continuity",
                 "operator_bound_d_envelope", "multiplier_monotone"}
        config_values = [{r["check"]: r["value"] for r in rows
                          if r["detail"].startswith("config") and r["check"] in moved}
                         for rows in (first, second)]
        assert set(config_values[0]) == moved
        assert all(config_values[0][name] != config_values[1][name] for name in moved)


class TestOptimizeMode:
    def test_descent_artifacts(self, tmp_path):
        text = REFERENCE_CFG + f"directory = {tmp_path}\n"
        cfg = parse_config(text, mode="optimize")
        assert run(cfg) == 0
        rows = list(csv.DictReader((tmp_path / "descent.csv").read_text().splitlines()))
        costs = [float(r["J"]) for r in rows]
        assert all(b <= a + 1e-14 for a, b in zip(costs, costs[1:]))
        assert (tmp_path / "controls.csv").exists()
        report = strict_json(tmp_path / "report.json")
        assert report["optimize"]["converged"]
        assert report["optimize"]["admissibility_value"] <= 1.0 + 1e-10
        assert report["optimize"]["adjoint_solves"] >= 1
        assert report["optimize"]["gradient_check"]["relative_residual"] <= 1e-3

    def test_quad_nodes_reach_the_optimizer(self, tmp_path, monkeypatch):
        built = []
        original = solution_ops.psi_rule

        def spy(alpha, node_count=200):
            built.append(node_count)
            return original(alpha, node_count)

        monkeypatch.setattr(solution_ops, "psi_rule", spy)
        text = (REFERENCE_CFG.replace("budget = 40", "budget = 2")
                + f"directory = {tmp_path}\n\n[solver]\nquad_nodes = 120\n")
        run(parse_config(text, mode="optimize"))
        assert built and set(built) == {120}
        rule = strict_json(tmp_path / "report.json")["multiplier_rule"]
        assert rule["nodes"] == 120

    def test_max_iter_reaches_the_optimizer(self, tmp_path):
        # a linear solve is exact after one sweep, so only a nonlinear one
        # can run out of a one-sweep budget
        text = (REFERENCE_CFG.replace("controls = 2", "controls = 2\nnonlinearity = sin_grad:0.1")
                + f"directory = {tmp_path}\n" + "\n[solver]\nmax_iter = 1\n")
        assert run(parse_config(text, mode="optimize")) == 1
        report = strict_json(tmp_path / "report.json")
        assert report["error"]["type"] == "OptimizationError"

    def test_nan_report_is_strict_json(self, tmp_path):
        # with no state cost the zero bundle is optimal: the gradient is
        # zero and the gradient check's relative residual is undefined
        text = (REFERENCE_CFG + f"directory = {tmp_path}\n"
                + "\n[cost]\nstate_weight = 0.0\n")
        assert run(parse_config(text, mode="optimize")) == 0
        report = strict_json(tmp_path / "report.json")
        check = report["optimize"]["gradient_check"]
        assert check["adjoint"] == 0.0
        assert check["relative_residual"] is None

    def test_seed_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = parse_config(REFERENCE_CFG + f"directory = {out}\n", mode="optimize")
            assert run(cfg) == 0
        assert (out1 / "descent.csv").read_bytes() == (out2 / "descent.csv").read_bytes()
        assert (out1 / "controls.csv").read_bytes() == (out2 / "controls.csv").read_bytes()


class TestMainEntry:
    def test_main_solve(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        status = main(["solve", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
        assert status == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_main_rejects_bad_config(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL.replace("0.8", "7.0"))
        assert main(["solve", "--config", str(cfg_path)]) == 2

    def test_main_refuses_r_max(self, tmp_path, capsys):
        # derivative orders are bounded by a constant, not by a config key
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL + "r_max = 2\n")
        assert main(["solve", "--config", str(cfg_path)]) == 2
        assert "line 8: unknown key 'r_max'" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, extra, message", (
        ("solve", "[cost]\nstate_weight = 0\ncontrol_weight = 0\n",
         "line 10: cost weights must not both vanish"),
        ("optimize", "controls = 0\n",
         "line 8: optimize mode requires problem.controls >= 1"),
    ), ids=("zero_cost_weights", "optimize_without_controls"))
    def test_main_config_error_exits_2_before_any_work(self, tmp_path, capsys,
                                                       mode, extra, message):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL + extra)
        out = tmp_path / "out"
        assert main([mode, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_main_missing_file(self):
        assert main(["solve", "--config", "/nonexistent/x.cfg"]) == 2

    def test_main_refuses_negative_seed(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(REFERENCE_CFG)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg_path), "--seed", "-5",
                     "--out", str(out)]) == 2
        assert "--seed=-5 out of [0,inf)" in capsys.readouterr().err
        cfg_path.write_text(REFERENCE_CFG.replace("seed = 7", "seed = -5"))
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "line 20: seed=-5" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_import_loads_no_scipy(self):
        # scipy is a test-only dependency: a fresh interpreter that
        # imports the CLI must not load any of it
        probe = ("import sys, sobfrac.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert fresh_interpreter(probe) == "[]"

    def test_cold_builds_and_solve_load_no_mpmath(self, tmp_path):
        # mpmath serves only the Mittag-Leffler oracle: cold theta rules
        # (test_specfun's ALPHAS) and a nonlinear solve never import it
        text = (MINIMAL + "nonlinearity = sin_grad:0.1\n"
                f"\n[output]\ndirectory = {tmp_path}\n")
        probe = f"""
import sys
from sobfrac import cli
from sobfrac.specfun import theta_quadrature
for alpha in (0.3, 0.5, 0.6, 0.8, 0.9):
    assert theta_quadrature(alpha, 200).normalization_defect() <= 1e-8
assert cli.run(cli.parse_config({text!r}, mode="solve")) == 0
print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))
"""
        assert fresh_interpreter(probe) == "[]"
        assert (tmp_path / "trajectory.csv").exists()

    def test_solve_and_optimize_evaluate_no_density(self, tmp_path):
        # the multipliers come from the psi rule: a solve at an alpha used
        # nowhere else and a small optimize build no theta rule and
        # evaluate no Mainardi density
        solve = (MINIMAL.replace("alpha = 0.8", "alpha = 0.6180339887")
                 + f"nonlinearity = sin_grad:0.1\n\n[output]\ndirectory = {tmp_path / 's'}\n")
        optimize = (REFERENCE_CFG.replace("budget = 40", "budget = 2")
                    + f"directory = {tmp_path / 'o'}\n")
        probe = f"""
from sobfrac import cli
from sobfrac.specfun import _density_cached, theta_quadrature
assert cli.run(cli.parse_config({solve!r}, mode="solve")) == 0
cli.run(cli.parse_config({optimize!r}, mode="optimize"))
print(theta_quadrature.cache_info().currsize, _density_cached.cache_info().misses)
"""
        assert fresh_interpreter(probe) == "0 0"
        report = strict_json(tmp_path / "o" / "report.json")
        assert report["optimize"]["inner_solves"] >= 1
        assert report["multiplier_rule"]["nodes"] == 200
