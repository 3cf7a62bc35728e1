"""Config parsing, run pipelines, artifact formats, exit codes."""

import builtins
import csv
import errno
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import sobfrac
from sobfrac import cli, csvtable, mild_solver, solution_ops, spectral, verification
from sobfrac.cli import _fmt, main, parse_config, run
from sobfrac.csvtable import write_table
from sobfrac.errors import ConfigError, EvaluationError
from sobfrac.mild_solver import Nonlinearity, SolveReport
from sobfrac.optctrl import DescentLog, admissibility_value, random_admissible_bundle
from sobfrac.specfun import mittag_leffler
from sobfrac.verification import CheckRow
from sobfrac.spectral import BoundConstants, collocation_grid, collocation_maps, field_to_grid

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


def report_oracle(obj):
    """report.json's text as json.dumps wrote it before the one-pass
    writer: records through asdict, then a copy with every non-finite
    float as None."""
    def strict(obj):
        if is_dataclass(obj) and not isinstance(obj, type):
            obj = asdict(obj)
        if isinstance(obj, dict):
            return {key: strict(value) for key, value in obj.items()}
        if isinstance(obj, (list, tuple, np.ndarray)):
            return [strict(value) for value in obj]
        if isinstance(obj, np.generic):
            obj = obj.item()
        if isinstance(obj, float) and not math.isfinite(obj):
            return None
        return obj
    return json.dumps(strict(obj), indent=2, sort_keys=True, allow_nan=False,
                      default=str)


@pytest.fixture(autouse=True)
def reports_match_the_oracle(monkeypatch):
    """Every report a test here writes equals report_oracle's text."""
    writer = cli._json_text

    def checked(obj, newline="\n"):
        text = writer(obj, newline)
        if newline == "\n":  # the whole report, not one of its values
            assert text == report_oracle(obj)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)


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


def gamma_n(n):
    """gamma_n = n u / (1 - n u), u the unit roundoff: an n-term dot
    product, summed in any order, lies within gamma_n sum |term| of its
    exact value (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1)."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def reference_trajectory_csvs(traj, mode_count):
    """trajectory.csv and modes.csv, one line per value.  The trajectory
    values are the one product coeffs @ D0.T; each is an N-term dot
    product, so it and the same value from one field_to_grid call per
    node differ by at most 2 gamma_N sum_n |D0_xn c_n|, that sum being
    computed within a factor 1 - gamma_N of itself."""
    ts = traj.grid.nodes()
    n_x = 4 * mode_count
    xs = collocation_grid(n_x)
    d0 = collocation_maps(mode_count)[0]
    values = traj.coeffs @ d0.T
    per_node = np.array([field_to_grid(c) for c in traj.coeffs])
    gamma = gamma_n(mode_count)
    bound = 2 * gamma / (1 - gamma) * (np.abs(traj.coeffs) @ np.abs(d0).T)
    assert np.all(np.abs(values - per_node) <= bound)
    rows = []
    for t, row in zip(ts, values):
        rows.extend((float(t), float(x), float(v)) for x, v in zip(xs, row))
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

    def test_write_table_edge_cells_match_per_value_writer(self):
        cells = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 1e17, 123456789012345678.0,
                 math.nan, math.inf, -math.inf]
        ts = [0.0, 0.5]
        values = np.array([cells, cells[::-1]])
        labels = [str(n) for n in range(len(cells))]
        out = io.BytesIO()
        out.write(b"h\n")
        write_table(out, [f"3,{_fmt(t)}" for t in ts], labels, values)
        assert out.getvalue().decode() == reference_csv(
            "h", [(3, t, label, v) for t, row in zip(ts, values.tolist())
                  for label, v in zip(labels, row)])

    def test_write_table_percent_label_is_literal(self):
        out = io.BytesIO()
        write_table(out, ["%d,1"], ["x%s", "100%%"], np.array([[0.25, -2.0]]))
        assert out.getvalue() == b"%d,1,x%s,0.25\n%d,1,100%%,-2\n"

    @pytest.mark.parametrize("run_mode", ("verify", "solve", "optimize"))
    def test_every_artifact_is_written_in_binary_mode(self, tmp_path, monkeypatch, run_mode):
        # text mode turns "\n" into os.linesep, "\r\n" on Windows
        file_modes = {}
        real_open = builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            file_modes[Path(file).name] = mode
            return real_open(file, mode, *args, **kwargs)

        def text_write(*args, **kwargs):
            raise AssertionError("an artifact was written in text mode")

        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(Path, "write_text", text_write)
        monkeypatch.setattr(verification, "run_battery", lambda order, modes, nodes: [])
        text = REFERENCE_CFG if run_mode == "optimize" else MINIMAL + "[output]\n"
        run(parse_config(text + f"directory = {tmp_path}\n", mode=run_mode))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == {"verify": 2, "solve": 3, "optimize": 5}[run_mode]
        assert {name: file_modes.get(name) for name in names} == dict.fromkeys(names, "wb")

    def test_verify_csv_matches_per_value_writer(self, tmp_path, monkeypatch):
        rows = [CheckRow("density_normalization", "alpha=0.3", 2.687e-14, 1e-8, True),
                CheckRow("frac_integral_refinement", "M 500 -> 1000", 1.0 / 3.0,
                         1.7, False)]
        monkeypatch.setattr(verification, "run_battery", lambda order, modes, nodes: rows)
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
        # the sweep budget's one home is the solver's
        assert cfg.solver_max_iter == mild_solver.MAX_ITER
        assert cfg.quad_nodes == 200
        assert cfg.problem.u0[0] == 0.5
        assert np.all(cfg.problem.v0 == 0.0)
        assert cfg.echo["problem.alpha"] == "0.8"

    def test_alpha_out_of_range(self):
        text = MINIMAL.replace("alpha = 0.8", "alpha = 1.5")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "alpha=1.5 out of (0,1]" in str(err.value)
        assert err.value.line == 3

    # a value just outside each numeric key's range; control_modes is
    # also bounded by MINIMAL's 8 modes
    JUST_OUTSIDE = {
        "alpha": ("0", "1.0000000000000002"), "q": ("0", "1"), "p": ("1",),
        "horizon": ("0",), "modes": ("0",), "steps": ("1",), "controls": ("-1",),
        "tol": ("0",), "max_iter": ("0",), "quad_nodes": ("15",),
        "state_weight": ("-5e-324",), "control_weight": ("-5e-324",),
        "budget": ("0",), "grad_tol": ("0",), "fd_step": ("0",),
        "control_modes": ("0", "9"), "radius": ("0",), "seed": ("-1",),
    }

    @pytest.mark.parametrize("section, key", [
        entry for entry, (_, conv, _) in cli._KEYS.items() if conv in (int, float)])
    def test_numeric_key_refuses_just_outside_its_range(self, section, key):
        for bad in self.JUST_OUTSIDE[key]:
            given = f"{key} = {bad}"
            if re.search(rf"^{key} = ", MINIMAL, re.M):
                text = re.sub(rf"^{key} = .*$", given, MINIMAL, flags=re.M)
            else:
                text = MINIMAL + f"[{section}]\n{given}\n"
            with pytest.raises(ConfigError) as err:
                parse_config(text, mode="solve")
            assert err.value.line == text.splitlines().index(given) + 1, bad
            assert f"{key}={bad} out of " in str(err.value)

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

    @pytest.mark.parametrize("entry, line", (
        ("u0 = 1:0.5 1:0.7", 7),
        ("u0 = 1:0.5\nv0 = 2:1.0, 2:1.0", 8),
    ), ids=("u0", "v0"))
    def test_repeated_mode_rejected_with_line(self, entry, line):
        # the later value used to overwrite the earlier one silently
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("u0 = 1:0.5", entry))
        assert err.value.line == line
        assert "given twice" in str(err.value)

    @pytest.mark.parametrize("text", (
        "sin_gradXYZ", "sin_grad_typo:0.5", "sin_grad:", "sin_grad:0.5:1",
    ))
    def test_malformed_nonlinearity_rejected_with_line(self, text):
        # a typo used to parse as sin_grad with gain 1.0 or the given gain
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"nonlinearity = {text}\n")
        assert err.value.line == 8

    @pytest.mark.parametrize("text, gain", (
        ("sin_grad", 1.0), ("sin_grad:0.5", 0.5), ("sin_grad:-2", -2.0),
    ))
    def test_sin_grad_forms(self, text, gain):
        nl = parse_config(MINIMAL + f"nonlinearity = {text}\n").problem.nonlinearity
        assert nl == Nonlinearity(gain)

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

    @pytest.mark.parametrize("old, new, line", (
        ("u0 = 1:0.5", "u0 = 1:0_5", 7),
        ("u0 = 1:0.5", "u0 = 1_0:0.5", 7),
        ("u0 = 1:0.5", "u0 = 1:0.5\nnonlocal = 0.3@0_5", 8),
        ("u0 = 1:0.5", "u0 = 1:0.5\nnonlinearity = sin_grad:1_0", 8),
        ("steps = 64", "steps = 6_4", 6),
        ("u0 = 1:0.5", "u0 = 1:0.5\n[solver]\ntol = 1e-1_0", 9),
    ), ids=("u0", "u0_mode", "nonlocal", "nonlinearity", "steps", "solver_tol"))
    def test_digit_group_underscore_rejected_with_line(self, old, new, line):
        # Python's float and int read 0_5 as 5, so a typo for 0.5 used to
        # change the instance tenfold
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace(old, new))
        assert err.value.line == line

    def test_digit_group_underscore_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL.replace("u0 = 1:0.5", "u0 = 1:0_5"))
        assert main(["solve", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "line 7: bad mode entry '1:0_5'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        assert stated == {entry: default for entry, (default, _, _) in cli._KEYS.items()}

    def test_solve_and_optimize_bytes_cold_and_warm(self, tmp_path):
        # the second run of each mode reads the memoized grid state, time
        # heads, collocation labels and maps and columns; its artifacts are
        # the cold run's, byte for byte
        block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"),
                          re.S).group(1)
        mild_solver._grid_static.cache_clear()
        cli._time_heads.cache_clear()
        cli._collocation.cache_clear()
        spectral.collocation_maps.cache_clear()
        csvtable._column.cache_clear()
        for mode in ("solve", "optimize"):
            out = tmp_path / mode
            text = block.replace("directory = out", f"directory = {out}")
            artifacts = []
            for _ in range(2):
                hits = mild_solver._grid_static.cache_info().hits
                assert run(parse_config(text, mode)) == 0
                artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert mild_solver._grid_static.cache_info().hits > hits
            assert "trajectory.csv" in artifacts[0]
            assert artifacts[1] == artifacts[0], mode
        assert cli._time_heads.cache_info().misses == 1
        assert cli._collocation.cache_info().misses == 1
        assert spectral.collocation_maps.cache_info().misses == 1


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


@dataclass
class _Record:
    name: str
    values: list
    extra: dict = field(default_factory=dict)


class TestReportWriter:
    LEAVES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 0.1, 1e300,
              np.float64(math.nan), np.float64(-math.inf), np.float64(2.5),
              np.float32(0.1), np.int64(-3), np.bool_(True), True, False, None,
              0, -7, 2 ** 70, "", "ascii", "naïve ∞ 日本", 'quote" slash\\ nl\n tab\t',
              np.str_("np"), Path("a/b"))
    KEYS = ("a", "b", "zeta", "Ä", "ключ", "", "with space", "10", "9")

    def build(self, rng, depth):
        kind = rng.random()
        if depth == 0 or kind < 0.35:
            return self.LEAVES[rng.randrange(len(self.LEAVES))]
        n = rng.randrange(4)
        if kind < 0.55:
            return {rng.choice(self.KEYS): self.build(rng, depth - 1) for _ in range(n)}
        if kind < 0.7:
            return [self.build(rng, depth - 1) for _ in range(n)]
        if kind < 0.8:
            return tuple(self.build(rng, depth - 1) for _ in range(n))
        if kind < 0.9:
            values = np.array([rng.choice((math.nan, math.inf, rng.uniform(-9, 9)))
                               for _ in range(2 * n)])
            return values.reshape(2, n) if rng.random() < 0.5 else values
        return _Record(rng.choice(self.KEYS), [self.build(rng, depth - 1) for _ in range(n)],
                       {key: self.build(rng, depth - 1) for key in self.KEYS[:n]})

    def test_random_records_match_the_oracle(self):
        rng = random.Random(28)
        for _ in range(400):
            obj = self.build(rng, 4)
            assert cli._json_text(obj) == report_oracle(obj)
        for empty in ({}, [], (), np.array([]), _Record("", [])):
            assert cli._json_text(empty) == report_oracle(empty)


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

    def test_zero_gain_is_the_linear_solve(self, tmp_path):
        # f = 0 is gain 0: sin_grad:0 takes the one-sweep path and writes
        # the artifacts of nonlinearity = zero
        artifacts = {}
        for nonlinearity in ("zero", "sin_grad:0"):
            out = tmp_path / nonlinearity.replace(":", "_")
            text = (MINIMAL + f"\nnonlocal = 0.3@0.5\nnonlinearity = {nonlinearity}\n"
                    f"\n[output]\ndirectory = {out}\n")
            assert run(parse_config(text, mode="solve")) == 0
            report = strict_json(out / "report.json")
            assert report["solve"]["iterations"] == 1
            assert report["solve"]["residual_history"] == [0.0]
            assert report["hypothesis_check"]["nonlinearity"] == {
                "kind": "zero", "declared_a_f": 0.0, "lipschitz_bound": 0.0}
            artifacts[nonlinearity] = [(out / name).read_bytes()
                                       for name in ("trajectory.csv", "modes.csv")]
        assert artifacts["sin_grad:0"] == artifacts["zero"]

    def test_large_nonlocal_weight_solves(self, tmp_path):
        # plain Picard iteration diverges at this weight
        text = MINIMAL + f"\nnonlocal = 3.0@0.5\n\n[output]\ndirectory = {tmp_path}\n"
        assert run(parse_config(text, mode="solve")) == 0
        solve = strict_json(tmp_path / "report.json")["solve"]
        assert solve["converged"]
        assert solve["nonlocal_denominator_min"] > 1.0

    def test_alpha_below_floor_needs_more_quad_nodes(self, tmp_path, capsys):
        # the default 200-node psi rule serves alpha >= ALPHA_FLOOR; below
        # it, too few nodes are refused at parse, and enough nodes solve
        text = MINIMAL.replace("alpha = 0.8", "alpha = 0.01")
        cfg_path, out = tmp_path / "run.cfg", tmp_path / "out"
        argv = ["solve", "--config", str(cfg_path), "--out", str(out)]
        cfg_path.write_text(text)
        assert main(argv) == 2
        # the defaulted key has no line to blame
        assert capsys.readouterr().err.startswith("error: quad_nodes=200 is too few: ")
        assert not out.exists()
        cfg_path.write_text(text + "[solver]\nquad_nodes = 300\n")
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: line 9: quad_nodes=300 is too few")
        assert not out.exists()
        cfg_path.write_text(text + "[solver]\nquad_nodes = 400\n")
        assert main(argv) == 0
        report = strict_json(out / "report.json")
        assert report["solve"]["converged"]
        assert report["multiplier_rule"]["nodes"] == 400

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
        assert sorted(rule) == ["halving_defect", "kind", "nodes", "step", "t_window"]
        assert rule["nodes"] == 150
        assert rule["kind"] == "psi"
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
        assert report["optimize"]["stop_reason"] == "converged"

    def test_an_exhausted_budget_exits_1_and_says_so(self, tmp_path):
        text = (REFERENCE_CFG.replace("budget = 40", "budget = 2")
                + f"directory = {tmp_path}\n")
        assert run(parse_config(text, mode="optimize")) == 1
        report = strict_json(tmp_path / "report.json")
        assert "error" not in report
        assert report["optimize"]["converged"] is False
        assert report["optimize"]["stop_reason"] == "budget"

    def test_random_init_is_the_random_admissible_bundle(self, tmp_path, monkeypatch):
        starts, original = [], cli.optimize_controls

        def spy(problem, cost, init, **kw):
            starts.append(init)
            return original(problem, cost, init, **kw)

        monkeypatch.setattr(cli, "optimize_controls", spy)
        text = (REFERENCE_CFG.replace("budget = 40", "budget = 2")
                .replace("init = zero", "init = random") + f"directory = {tmp_path}\n")
        cfg = parse_config(text, mode="optimize")
        run(cfg)
        want = random_admissible_bundle(cfg.problem.grid, 2, 4, np.random.default_rng(7), 1.0)
        (init,) = starts
        assert init.radius == 1.0
        assert np.array_equal(init.cells, want.cells)
        # drawn inside the ball, not rescaled onto its boundary
        assert 0.0 < admissibility_value(init) < 1.0

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


class TestSolveContext:
    @pytest.mark.parametrize("mode", ["solve", "optimize"])
    def test_run_builds_one_workspace_and_no_operator_cache(self, tmp_path, monkeypatch,
                                                            mode):
        # the run's solve context is one workspace at the configured rule
        # size, handed to the solver or the optimizer
        def refuse(*args, **kwargs):
            raise AssertionError("the run built a SolutionOperatorCache")

        built = []
        workspace_init = mild_solver._SweepWorkspace.__init__

        def record(self, spec, node_count):
            built.append(node_count)
            workspace_init(self, spec, node_count)

        monkeypatch.setattr(cli, "SolutionOperatorCache", refuse)
        monkeypatch.setattr(mild_solver._SweepWorkspace, "__init__", record)
        text = REFERENCE_CFG + f"directory = {tmp_path}\n\n[solver]\nquad_nodes = 120\n"
        assert run(parse_config(text, mode=mode)) == 0
        assert built == [120]

    @pytest.mark.parametrize("alpha, rule", [
        ("0.6", lambda: solution_ops.psi_rule(0.6, 150).summary()),
        ("1.0", lambda: {"kind": "semigroup", "nodes": 0})])
    def test_multiplier_rule_is_the_parsed_rule(self, tmp_path, alpha, rule):
        # the summary of the rule parse_config built; the controlled
        # instance at alpha = 0.6 fails the exponent hypothesis, and its
        # optimize writes the entry before the error
        controlled = alpha == "0.6"
        for mode, base, status in (("solve", MINIMAL, 0),
                                   ("optimize", REFERENCE_CFG, int(controlled))):
            out = tmp_path / mode
            text = (base.replace("alpha = 0.8", f"alpha = {alpha}")
                    + f"\n[solver]\nquad_nodes = 150\n\n[output]\ndirectory = {out}\n")
            assert run(parse_config(text, mode=mode)) == status
            report = strict_json(out / "report.json")
            assert report["multiplier_rule"] == rule()
            if status:
                assert report["error"]["type"] == "RejectedInstanceError"


class TestMainEntry:
    def test_main_solve(self, tmp_path):
        # the overrides replace the file's entries, a seed the file gives
        # out of range included, and are stripped and echoed as a file's are
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL + "[output]\ndirectory = elsewhere\nseed = -5\n")
        status = main(["solve", "--config", str(cfg_path), "--seed", " 3 ",
                       "--out", str(tmp_path / "out")])
        assert status == 0
        echo = strict_json(tmp_path / "out" / "report.json")["config"]
        assert echo["output.seed"] == "3"
        assert echo["output.directory"] == str(tmp_path / "out")
        assert not (tmp_path / "elsewhere").exists()

    def test_main_empty_out_means_out(self, tmp_path, monkeypatch, capsys):
        # as an empty [output] directory does
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(MINIMAL)
        assert main(["solve", "--config", "run.cfg", "--out", ""]) == 0
        assert "(artifacts in out)" in capsys.readouterr().out
        assert strict_json(tmp_path / "out" / "report.json")["config"][
            "output.directory"] == ""
        assert not (tmp_path / "report.json").exists()

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
        ("solve", "nonlinearity = sin_grad_typo:0.5\n",
         "line 8: unknown nonlinearity 'sin_grad_typo:0.5'"),
        ("solve", "v0 = 1:1.0 1:2.0\n", "line 8: mode 1 given twice"),
    ), ids=("zero_cost_weights", "optimize_without_controls",
            "nonlinearity_typo", "repeated_mode"))
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

    def test_main_refuses_a_config_that_is_not_utf8(self, tmp_path, capsys):
        # read as an unreadable file is: one error line, exit 2, no output
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(MINIMAL.encode() + b"# \xff\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read config: ")
        assert captured.err.count("\n") == 1 and "utf-8" in captured.err
        assert sorted(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("out", ("afile/sub", "afile"))
    def test_main_refuses_an_output_directory_it_cannot_create(self, tmp_path, capsys,
                                                                out):
        # a regular file where the directory, or one of its parents, goes
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        (tmp_path / "afile").write_text("kept\n")
        out = tmp_path / out
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = os.strerror(errno.ENOTDIR if out.name == "sub" else errno.EEXIST)
        assert captured.err == f"error: cannot create output directory {out}: {reason}\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "afile", cfg_path]
        assert (tmp_path / "afile").read_text() == "kept\n"

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

    def test_cli_import_loads_no_oracles(self):
        # the density and Mittag-Leffler oracles load only for verify, and
        # argparse only for the command line
        probe = ("import sys, sobfrac.cli; print(sorted(m for m in ('sobfrac.specfun', "
                 "'sobfrac.verification', 'argparse') if m in sys.modules))")
        assert fresh_interpreter(probe) == "[]"

    def test_package_names_resolve_lazily_to_their_homes(self):
        # the 51 public names, each read from the module that defines it
        # or, for gamma, from specfun, which calls it
        probe = """
import importlib, sys, sobfrac
homes = {"errors": "ConfigError ConstructionError DomainError EvaluationError "
                   "NonConvergenceError OptimizationError RejectedInstanceError SobfracError",
         "fracops": "FracOrder SampledFn TimeGrid caputo_deriv frac_integral gl_deriv "
                    "rl_deriv",
         "mild_solver": "Nonlinearity ProblemSpec SolveReport Trajectory apply_P eval_f "
                        "picard_solve",
         "optctrl": "ControlBundle CostSpec admissibility_value cost_J hypothesis_check "
                    "optimize_controls random_admissible_bundle zero_bundle",
         "solution_ops": "SolutionOperatorCache",
         "specfun": "QuadratureRule gamma mainardi_density mainardi_moment "
                    "mittag_leffler theta_quadrature",
         "spectral": "BoundConstants apply_Bi collocation_grid field_to_grid "
                     "grid_to_field measure_bounds norm_q"}
assert "sobfrac.specfun" not in sys.modules
expected = sorted([*homes, *(n for names in homes.values() for n in names.split())])
assert sobfrac.__all__ == expected, sobfrac.__all__
for home, names in homes.items():
    module = importlib.import_module("sobfrac." + home)
    assert getattr(sobfrac, home) is module
    for name in names.split():
        assert getattr(sobfrac, name) is getattr(module, name), name
assert set(sobfrac.__all__) <= set(dir(sobfrac))
namespace = {}
exec("from sobfrac import *", namespace)
assert all(namespace[name] is getattr(sobfrac, name) for name in sobfrac.__all__)
print(len(sobfrac.__all__))
"""
        assert fresh_interpreter(probe) == "51"
        with pytest.raises(AttributeError, match="no_such_name"):
            sobfrac.no_such_name

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
    assert theta_quadrature(alpha).normalization_defect() <= 1e-8
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
