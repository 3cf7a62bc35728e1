"""Config parsing, run pipelines, artifact formats, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from sobfrac import solution_ops
from sobfrac.cli import main, parse_config, run
from sobfrac.errors import ConfigError
from sobfrac.specfun import mittag_leffler

MINIMAL = """
[problem]
alpha = 0.8
horizon = 1.0
modes = 8
steps = 64
u0 = 1:0.5
"""

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


class TestSolveMode:
    def test_artifacts_and_oracle(self, tmp_path):
        text = MINIMAL + f"\nv0 = 1:1.0\n\n[output]\ndirectory = {tmp_path}\n"
        cfg = parse_config(text, mode="solve")
        assert run(cfg) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["solve"]["converged"]
        assert "hypothesis_check" in report
        assert report["config"]["problem.alpha"] == "0.8"

        rows = {(float(r["t"]), int(r["n"])): float(r["coefficient"])
                for r in csv.DictReader((tmp_path / "modes.csv").open())}
        # per-mode oracle at (t=1, n=1)
        alpha = 0.8
        bracket = 1.0 + 0.5 / math.gamma(2.0 - alpha)
        expect = -2.0 * mittag_leffler(alpha, 1.0, -0.5) / 2.0 * bracket
        assert abs(rows[(1.0, 1)] - expect) <= 1e-3
        assert (tmp_path / "trajectory.csv").exists()

    def test_nonconvergent_instance_fails_with_diagnostic(self, tmp_path):
        text = MINIMAL + f"\nnonlocal = 50.0@0.5\n\n[solver]\nmax_iter = 20\n\n[output]\ndirectory = {tmp_path}\n"
        cfg = parse_config(text, mode="solve")
        assert run(cfg) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["error"]["type"] == "NonConvergenceError"
        assert len(report["error"]["residual_history"]) == 20

    def test_alpha_near_one_reports_typed_error(self, tmp_path):
        # the 200-node theta rule cannot reach its 1e-8 normalization here
        text = (MINIMAL.replace("alpha = 0.8", "alpha = 0.99")
                + f"\n[output]\ndirectory = {tmp_path}\n")
        assert run(parse_config(text, mode="solve")) == 1
        report = strict_json(tmp_path / "report.json")
        assert report["error"]["type"]


class TestVerifyMode:
    def test_all_rows_pass(self, tmp_path):
        text = MINIMAL + f"\n[output]\ndirectory = {tmp_path}\n"
        cfg = parse_config(text, mode="verify")
        assert run(cfg) == 0
        rows = list(csv.DictReader((tmp_path / "verify.csv").open()))
        assert len(rows) > 20
        assert all(r["status"] == "pass" for r in rows)


class TestOptimizeMode:
    def test_descent_artifacts(self, tmp_path):
        text = REFERENCE_CFG + f"directory = {tmp_path}\n"
        cfg = parse_config(text, mode="optimize")
        assert run(cfg) == 0
        rows = list(csv.DictReader((tmp_path / "descent.csv").open()))
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
        original = solution_ops.theta_quadrature

        def spy(alpha, node_count=200):
            built.append(node_count)
            return original(alpha, node_count)

        monkeypatch.setattr(solution_ops, "theta_quadrature", spy)
        text = (REFERENCE_CFG.replace("budget = 40", "budget = 2")
                + f"directory = {tmp_path}\n\n[solver]\nquad_nodes = 120\n")
        run(parse_config(text, mode="optimize"))
        assert built and set(built) == {120}

    def test_max_iter_reaches_the_optimizer(self, tmp_path):
        text = (REFERENCE_CFG + f"directory = {tmp_path}\n"
                + "\n[solver]\nmax_iter = 1\n")
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

    def test_main_missing_file(self):
        assert main(["solve", "--config", "/nonexistent/x.cfg"]) == 2
