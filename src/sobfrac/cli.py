"""Batch front end: config parsing, run pipelines, CSV/JSON artifacts.

Usage: sobfrac <verify|solve|optimize> --config <path> [--out <dir>] [--seed <n>]

The config is sectioned key=value text ([problem], [solver], [cost],
[optimize], [output]); unknown keys are rejected with their line number.
Every run writes report.json with the effective config echo and the
hypothesis-check report; solve and optimize additionally emit the CSV
artifacts described in the README.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConstructionError, DomainError, SobfracError
from .fracops import TimeGrid
from .mild_solver import (Nonlinearity, ProblemSpec, ZERO_NONLINEARITY,
                          picard_solve, sin_gradient)
from .optctrl import (ControlBundle, CostSpec, admissibility_value, hypothesis_check,
                      optimize_controls, project_admissible, zero_bundle)
from .solution_ops import (ALPHA_FLOOR, HALVING_TOL, T_WINDOW, SolutionOperatorCache,
                           psi_rule)
from .specfun import FracOrder
from .spectral import (SpectralField, collocation_grid, default_collocation_size,
                       derivative_matrix, measure_bounds)
from .verification import run_battery

# (section, key) -> default; None marks a required key
_KEYS = {
    ("problem", "alpha"): None,
    ("problem", "q"): "0.25",
    ("problem", "p"): "2.0",
    ("problem", "horizon"): None,
    ("problem", "modes"): None,
    ("problem", "steps"): None,
    ("problem", "u0"): "",
    ("problem", "v0"): "",
    ("problem", "nonlocal"): "",
    ("problem", "nonlinearity"): "zero",
    ("problem", "controls"): "0",
    ("solver", "tol"): "1e-8",
    ("solver", "max_iter"): "80",
    ("solver", "quad_nodes"): "200",
    ("cost", "state_weight"): "1.0",
    ("cost", "control_weight"): "1.0",
    ("optimize", "budget"): "60",
    ("optimize", "grad_tol"): "1e-4",
    ("optimize", "fd_step"): "1e-4",
    ("optimize", "control_modes"): "4",
    ("optimize", "radius"): "1.0",
    ("optimize", "init"): "zero",
    ("output", "directory"): "out",
    ("output", "seed"): "0",
}


@dataclass
class RunConfig:
    """Validated run description assembled from one config file."""

    mode: str
    problem: ProblemSpec
    solver_tol: float
    solver_max_iter: int
    quad_nodes: int
    cost: CostSpec
    budget: int
    grad_tol: float
    fd_step: float
    control_modes: int
    radius: float
    init_kind: str
    out_dir: str
    seed: int
    echo: dict = field(default_factory=dict)


def _finite_float(text: str) -> float:
    """float(text), with a ValueError for inf and nan too."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _parse_modes_list(text: str, mode_count: int, line: int) -> SpectralField:
    coeffs = np.zeros(mode_count)
    if text.strip():
        for chunk in text.replace(",", " ").split():
            if ":" not in chunk:
                raise ConfigError(f"expected mode:coefficient, got {chunk!r}", line)
            n_str, v_str = chunk.split(":", 1)
            try:
                n, v = int(n_str), _finite_float(v_str)
            except ValueError:
                raise ConfigError(f"bad mode entry {chunk!r}", line) from None
            if not 1 <= n <= mode_count:
                raise ConfigError(f"mode {n} outside 1..{mode_count}", line)
            coeffs[n - 1] = v
    return SpectralField(coeffs)


def _parse_nonlocal(text: str, line: int) -> tuple:
    terms = []
    if text.strip():
        for chunk in text.replace(",", " ").split():
            if "@" not in chunk:
                raise ConfigError(f"expected weight@time, got {chunk!r}", line)
            c_str, t_str = chunk.split("@", 1)
            try:
                terms.append((_finite_float(c_str), _finite_float(t_str)))
            except ValueError:
                raise ConfigError(f"bad nonlocal entry {chunk!r}", line) from None
    return tuple(terms)


def _parse_nonlinearity(text: str, line: int) -> Nonlinearity:
    text = text.strip()
    if text == "zero" or not text:
        return ZERO_NONLINEARITY
    if text.startswith("sin_grad"):
        gain = 1.0
        if ":" in text:
            try:
                gain = _finite_float(text.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"bad sin_grad gain in {text!r}", line) from None
        return sin_gradient(gain)
    raise ConfigError(f"unknown nonlinearity {text!r}", line)


def parse_config(text: str, mode: str = "solve") -> RunConfig:
    """Parse and fully validate the sectioned key=value config format."""
    if mode not in ("verify", "solve", "optimize"):
        raise ConfigError(f"unknown mode {mode!r}")
    entries: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if all(section != known for known, _ in _KEYS):
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key = value, got {stripped!r}", lineno)
        if section is None:
            raise ConfigError("key outside any section", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if (section, key) not in _KEYS:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        entries[(section, key)] = (value, lineno)

    for (section, key), default in _KEYS.items():
        if (section, key) in entries:
            continue
        if default is None:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        # a defaulted key has no line to blame
        entries[(section, key)] = (default, None)

    def get(section, key, conv, check=None, describe=""):
        value, line = entries[(section, key)]
        try:
            out = conv(value)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"cannot parse {key}={value!r}", line) from None
        if isinstance(out, float) and not math.isfinite(out):
            raise ConfigError(f"{key}={value} is not finite", line)
        if check is not None and not check(out):
            raise ConfigError(f"{key}={value} out of {describe}", line)
        return out, line

    alpha, a_line = get("problem", "alpha", float)
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha out of (0,1]: {alpha}", a_line)
    q, q_line = get("problem", "q", float)
    if not 0.0 < q < 1.0:
        raise ConfigError(f"q out of (0,1): {q}", q_line)
    p, p_line = get("problem", "p", float)
    if not p > 1.0:
        raise ConfigError(f"p out of (1,inf): {p}", p_line)
    horizon, horizon_line = get("problem", "horizon", float, lambda v: v > 0, "(0,inf)")
    modes, _ = get("problem", "modes", int, lambda v: v >= 1, "[1,inf)")
    steps, steps_line = get("problem", "steps", int, lambda v: v >= 2, "[2,inf)")
    # below alpha = 1 every positive grid node, dt to horizon, has to lie in
    # the psi rule's window; the semigroup serves any time
    if alpha < 1.0:
        if horizon > T_WINDOW[1]:
            raise ConfigError(f"horizon={horizon:g} exceeds the psi rule's window "
                              f"{T_WINDOW} at alpha={alpha}", horizon_line)
        if horizon / steps < T_WINDOW[0]:
            raise ConfigError(f"horizon/steps={horizon / steps:g} falls below the psi "
                              f"rule's window {T_WINDOW} at alpha={alpha}", steps_line)
    controls, controls_line = get("problem", "controls", int, lambda v: v >= 0, "[0,inf)")

    u0_text, u0_line = entries[("problem", "u0")]
    v0_text, v0_line = entries[("problem", "v0")]
    nl_text, nl_line = entries[("problem", "nonlocal")]
    f_text, f_line = entries[("problem", "nonlinearity")]

    try:
        problem = ProblemSpec(
            order=FracOrder(alpha, q=q, p=p),
            horizon=horizon, mode_count=modes, step_count=steps,
            u0=_parse_modes_list(u0_text, modes, u0_line),
            v0=_parse_modes_list(v0_text, modes, v0_line),
            nonlocal_terms=_parse_nonlocal(nl_text, nl_line),
            nonlinearity=_parse_nonlinearity(f_text, f_line),
            control_count=controls)
    except SobfracError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), nl_line) from exc

    tol, _ = get("solver", "tol", float, lambda v: v > 0, "(0,inf)")
    max_iter, _ = get("solver", "max_iter", int, lambda v: v >= 1, "[1,inf)")
    quad_nodes, quad_line = get("solver", "quad_nodes", int, lambda v: v >= 16, "[16,inf)")
    # build the psi rule now, so that too few nodes blame this line; the
    # run reuses the cached rule.  Below ALPHA_FLOOR the run reports the
    # rule's own refusal.
    if ALPHA_FLOOR <= alpha < 1.0:
        try:
            psi_rule(alpha, quad_nodes)
        except ConstructionError as exc:
            raise ConfigError(
                f"quad_nodes={quad_nodes} is too few for the psi rule at alpha={alpha} "
                f"(halving defect {exc.achieved_defect:.3e} exceeds {HALVING_TOL:g})",
                quad_line) from exc
    state_w, state_line = get("cost", "state_weight", float, lambda v: v >= 0, "[0,inf)")
    control_w, control_line = get("cost", "control_weight", float,
                                  lambda v: v >= 0, "[0,inf)")
    try:
        cost = CostSpec(state_w, control_w)
    except DomainError as exc:
        # only both weights given as 0 get here
        raise ConfigError(str(exc), max(state_line, control_line)) from exc
    budget, _ = get("optimize", "budget", int, lambda v: v >= 1, "[1,inf)")
    grad_tol, _ = get("optimize", "grad_tol", float, lambda v: v > 0, "(0,inf)")
    fd_step, _ = get("optimize", "fd_step", float, lambda v: v > 0, "(0,inf)")
    if entries[("optimize", "control_modes")][1] is None:
        # the default fits every mode count; a value given is checked as given
        entries[("optimize", "control_modes")] = (str(min(4, modes)), None)
    control_modes, _ = get("optimize", "control_modes", int,
                           lambda v: 1 <= v <= modes, f"[1,{modes}]")
    radius, _ = get("optimize", "radius", float, lambda v: v > 0, "(0,inf)")
    init_kind, init_line = entries[("optimize", "init")]
    init_kind = init_kind.strip()
    if init_kind not in ("zero", "random"):
        raise ConfigError(f"init must be zero or random, got {init_kind!r}", init_line)
    out_dir, _ = entries[("output", "directory")]
    seed, _ = get("output", "seed", int, lambda v: v >= 0, "[0,inf)")
    if mode == "optimize" and controls < 1:
        raise ConfigError("optimize mode requires problem.controls >= 1", controls_line)

    echo = {f"{section}.{key}": entries[(section, key)][0]
            for section, key in sorted(entries)}
    echo["mode"] = mode
    return RunConfig(mode=mode, problem=problem, solver_tol=tol,
                     solver_max_iter=max_iter, quad_nodes=quad_nodes, cost=cost,
                     budget=budget, grad_tol=grad_tol, fd_step=fd_step,
                     control_modes=control_modes, radius=radius,
                     init_kind=init_kind, out_dir=out_dir.strip() or "out",
                     seed=seed, echo=echo)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: str, lines) -> None:
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")


def _table_lines(times, labels, values, prefix: str = "") -> list:
    """Rows "prefix t,label,value" of a (time x label) table, time-major.

    `times` and `labels` are strings, formatted once per table.  Each time
    row comes back as one multi-line string: a cell template built per
    table, joined behind the row's head and filled by one `%` call.
    """
    cells = [f"{label.replace('%', '%%')},%.17g" for label in labels]
    prefix = prefix.replace("%", "%%")
    lines = []
    for t, row in zip(times, values.tolist()):
        head = f"{prefix}{t},"
        lines.append((head + ("\n" + head).join(cells)) % tuple(row))
    return lines


def _mode_labels(mode_count: int) -> list:
    return [str(n) for n in range(1, mode_count + 1)]


def run(config: RunConfig) -> int:
    """Execute one pipeline; returns the process exit status."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = config.problem
    report = {"mode": config.mode, "config": config.echo}
    status = 0
    try:
        report["hypothesis_check"] = hypothesis_check(problem)
        if config.mode == "verify":
            rows = run_battery(problem.order, problem.mode_count, config.quad_nodes)
            _write_csv(out / "verify.csv", "check,detail,value,threshold,status",
                       [f"{r.name},{r.detail},{_fmt(r.value)},{_fmt(r.threshold)},"
                        f"{'pass' if r.passed else 'fail'}" for r in rows])
            report["verify"] = {
                "total": len(rows),
                "failed": [r.name for r in rows if not r.passed],
            }
            status = 0 if all(r.passed for r in rows) else 1
        else:
            cache = SolutionOperatorCache(problem.order, problem.mode_count,
                                          node_count=config.quad_nodes)
            report["multiplier_rule"] = cache.rule_summary()
            if config.mode == "solve":
                traj, solve_report = picard_solve(
                    problem, cache=cache, tol=config.solver_tol,
                    max_iter=config.solver_max_iter)
                report["solve"] = asdict(solve_report)
            else:
                grid = TimeGrid(problem.horizon, problem.step_count)
                k = problem.control_count
                if config.init_kind == "zero":
                    init = zero_bundle(grid, k, config.control_modes, config.radius)
                else:
                    x0 = np.random.default_rng(config.seed).uniform(
                        -1.0, 1.0, size=(k, grid.step_count, config.control_modes))
                    init = project_admissible(ControlBundle(x0, grid, config.radius))
                bundle, traj, log = optimize_controls(
                    problem, config.cost, init, budget=config.budget,
                    grad_tol=config.grad_tol, fd_step=config.fd_step,
                    solve_tol=config.solver_tol, cache=cache,
                    max_iter=config.solver_max_iter)
                _write_csv(out / "descent.csv", "iteration,J",
                           [f"{i},{_fmt(j)}" for i, j in enumerate(log.cost_values)])
                ts = [_fmt(t) for t in grid.nodes().tolist()]
                lines = []
                for j, ctrl in enumerate(bundle.controls):
                    lines.extend(_table_lines(ts, _mode_labels(ctrl.mode_count),
                                              ctrl.coeffs, prefix=f"{j + 1},"))
                _write_csv(out / "controls.csv", "control,t,n,coefficient", lines)
                report["optimize"] = {**asdict(log),
                                      "final_cost": float(log.cost_values[-1]),
                                      "admissibility_value": admissibility_value(bundle)}
                status = 0 if log.converged else 1
            ts = [_fmt(t) for t in traj.grid.nodes().tolist()]
            n_x = default_collocation_size(problem.mode_count)
            xs = [_fmt(x) for x in collocation_grid(n_x).tolist()]
            # stacked per-node products keep field_to_grid's rounding; a single
            # coeffs @ D.T product changes the last digit of many values
            values = np.matmul(derivative_matrix(0, problem.mode_count, n_x),
                               traj.coeffs[:, :, None])[:, :, 0]
            _write_csv(out / "trajectory.csv", "t,x,u", _table_lines(ts, xs, values))
            _write_csv(out / "modes.csv", "t,n,coefficient",
                       _table_lines(ts, _mode_labels(problem.mode_count), traj.coeffs))
            report["measured_constants"] = asdict(
                measure_bounds(problem.mode_count, q=problem.order.q))
    except SobfracError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        extra = getattr(exc, "residual_history", None)
        if extra:
            report["error"]["residual_history"] = list(extra)
        status = 1
    (out / "report.json").write_text(
        json.dumps(_strict_json(report), indent=2, sort_keys=True,
                   allow_nan=False, default=str) + "\n",
        encoding="utf-8")
    return status


def _strict_json(obj):
    """Plain containers and numbers, with every non-finite float as None:
    json.dumps writes NaN and Infinity as tokens strict parsers reject."""
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_strict_json(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sobfrac",
        description="Verify, solve, or optimize the fractional evolution instance "
                    "described by a config file.")
    parser.add_argument("mode", choices=("verify", "solve", "optimize"))
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, mode=args.mode)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed={args.seed} out of [0,inf)")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        config.out_dir = args.out
        config.echo["output.directory"] = args.out
    if args.seed is not None:
        config.seed = args.seed
        config.echo["output.seed"] = str(args.seed)
    status = run(config)
    print(f"sobfrac {args.mode}: {'ok' if status == 0 else 'FAILED'} "
          f"(artifacts in {config.out_dir})")
    return status


if __name__ == "__main__":
    sys.exit(main())
