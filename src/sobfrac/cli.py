"""Batch front end: config parsing, run pipelines, CSV/JSON artifacts.

Usage: sobfrac <verify|solve|optimize> --config <path> [--out <dir>] [--seed <n>]

The config is sectioned key=value text ([problem], [solver], [cost],
[optimize], [output]); unknown keys are rejected with their line number.
Every run writes report.json with the effective config echo and the
hypothesis-check report; solve and optimize additionally emit the CSV
artifacts described in the README.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .csvtable import write_table
from .errors import ConfigError, ConstructionError, DomainError, SobfracError
from .fracops import FracOrder, TimeGrid
from .mild_solver import MAX_ITER, Nonlinearity, ProblemSpec, _SweepWorkspace, picard_solve
from .optctrl import (CostSpec, admissibility_value, hypothesis_check, optimize_controls,
                      random_admissible_bundle, zero_bundle)
# SolutionOperatorCache and FracOrder stay importable here for perfbench's set-up probe
from .solution_ops import _DEFAULT_NODES, T_WINDOW, SolutionOperatorCache, psi_rule  # noqa: F401
from .spectral import collocation_grid, collocation_maps, measure_bounds

# (section, key) -> (default text, type, admissible range); a None default
# marks a required key, and the text keys, parsed on their own, have no type.
# A range reads as refusals name it: "(0,1]", "[1,inf)" or "{zero,random}".
_KEYS = {
    ("problem", "alpha"): (None, float, "(0,1]"),
    ("problem", "q"): ("0.25", float, "(0,1)"),
    ("problem", "p"): ("2.0", float, "(1,inf)"),
    ("problem", "horizon"): (None, float, "(0,inf)"),
    ("problem", "modes"): (None, int, "[1,inf)"),
    ("problem", "steps"): (None, int, "[2,inf)"),
    ("problem", "u0"): ("", None, None),
    ("problem", "v0"): ("", None, None),
    ("problem", "nonlocal"): ("", None, None),
    ("problem", "nonlinearity"): ("zero", None, None),
    ("problem", "controls"): ("0", int, "[0,inf)"),
    ("solver", "tol"): ("1e-8", float, "(0,inf)"),
    ("solver", "max_iter"): (str(MAX_ITER), int, "[1,inf)"),
    ("solver", "quad_nodes"): (str(_DEFAULT_NODES), int, "[16,inf)"),
    ("cost", "state_weight"): ("1.0", float, "[0,inf)"),
    ("cost", "control_weight"): ("1.0", float, "[0,inf)"),
    ("optimize", "budget"): ("60", int, "[1,inf)"),
    ("optimize", "grad_tol"): ("1e-4", float, "(0,inf)"),
    ("optimize", "fd_step"): ("1e-4", float, "(0,inf)"),
    # at most the mode count too, which parse_config checks
    ("optimize", "control_modes"): ("4", int, "[1,inf)"),
    ("optimize", "radius"): ("1.0", float, "(0,inf)"),
    ("optimize", "init"): ("zero", str, "{zero,random}"),
    ("output", "directory"): ("out", None, None),
    ("output", "seed"): ("0", int, "[0,inf)"),
}

# the command-line flags, each of which replaces one key's entry
_FLAGS = {"--out": ("output", "directory"), "--seed": ("output", "seed")}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description assembled from one config file and its overrides."""

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
    echo: dict


def _number(text: str, conv=float):
    """conv(text), with a ValueError for any underscore: Python reads
    digit groups, so a typo 1:0_5 would read as 5."""
    if "_" in text:
        raise ValueError(f"{text!r} has an underscore")
    return conv(text)


def _finite_float(text: str) -> float:
    """float(text), with a ValueError for inf, nan and underscores too."""
    value = _number(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _range_test(admissible: str):
    """The test of whether a value lies in a range written as in _KEYS."""
    if admissible[0] == "{":
        return frozenset(admissible[1:-1].split(",")).__contains__
    lo, hi = (float(bound) for bound in admissible[1:-1].split(","))
    lo_open, hi_open = admissible[0] == "(", admissible[-1] == ")"
    return lambda value: ((lo < value if lo_open else lo <= value)
                          and (value < hi if hi_open else value <= hi))


# _KEYS's sections, and each typed key's range test, parsed once
_SECTIONS = frozenset(section for section, _ in _KEYS)
_WITHIN = {entry: _range_test(admissible)
           for entry, (_, conv, admissible) in _KEYS.items() if conv is not None}


def _pairs(text: str, sep: str, form: str, what: str, line: int, conv):
    """conv(left, right) of each left<sep>right chunk of text, split at commas
    and spaces, lazily, so a bad chunk is blamed where the loop meets it."""
    for chunk in text.replace(",", " ").split():
        if sep not in chunk:
            raise ConfigError(f"expected {form}, got {chunk!r}", line)
        try:
            pair = conv(*chunk.split(sep, 1))
        except ValueError:
            raise ConfigError(f"bad {what} entry {chunk!r}", line) from None
        yield pair


def _parse_modes_list(text: str, mode_count: int, line: int) -> np.ndarray:
    coeffs = np.zeros(mode_count)
    seen = set()
    for n, v in _pairs(text, ":", "mode:coefficient", "mode", line,
                       lambda n, v: (_number(n, int), _finite_float(v))):
        if not 1 <= n <= mode_count:
            raise ConfigError(f"mode {n} outside 1..{mode_count}", line)
        if n in seen:
            raise ConfigError(f"mode {n} given twice", line)
        seen.add(n)
        coeffs[n - 1] = v
    return coeffs


def _parse_nonlocal(text: str, line: int) -> tuple:
    return tuple(_pairs(text, "@", "weight@time", "nonlocal", line,
                        lambda c, t: (_finite_float(c), _finite_float(t))))


def _parse_nonlinearity(text: str, line: int) -> Nonlinearity:
    text = text.strip()
    if text == "zero" or not text:
        return Nonlinearity()
    name, colon, gain_text = text.partition(":")
    if name != "sin_grad":
        raise ConfigError(f"unknown nonlinearity {text!r}", line)
    if not colon:
        return Nonlinearity(1.0)
    try:
        return Nonlinearity(_finite_float(gain_text))
    except ValueError:
        raise ConfigError(f"bad sin_grad gain in {text!r}", line) from None


def parse_config(text: str, mode: str = "solve", overrides: dict | None = None) -> RunConfig:
    """Parse and fully validate the sectioned key=value config format;
    overrides maps flags of _FLAGS to text (None: no override) that
    replaces their keys' entries."""
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
            if section not in _SECTIONS:
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
    for flag, value in (overrides or {}).items():
        if value is not None:
            entries[_FLAGS[flag]] = (value.strip(), flag)

    # every scalar key converted and checked against its range, at its line
    # or, for an override, under its flag
    values, line = {}, {}
    for (section, key), (default, conv, admissible) in _KEYS.items():
        if (section, key) not in entries:
            if default is None:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
            # a defaulted key has no line to blame
            entries[(section, key)] = (default, None)
        given, where = entries[(section, key)]
        name, line[key] = (where, None) if isinstance(where, str) else (key, where)
        if conv is None:
            values[key] = given  # a text key, parsed below
            continue
        try:
            value = _number(given, conv)
        except ValueError:
            raise ConfigError(f"cannot parse {name}={given!r}", line[key]) from None
        # inf and nan lie outside every range
        if not _WITHIN[(section, key)](value):
            raise ConfigError(f"{name}={given} out of {admissible}", line[key])
        values[key] = value

    alpha, horizon, modes, steps = (values[k] for k in ("alpha", "horizon", "modes", "steps"))
    # below alpha = 1 every positive grid node, dt to horizon, has to lie in
    # the psi rule's window (the semigroup serves any time), and the rule is
    # built now, so that too few nodes blame their line; the run reuses it
    if alpha < 1.0:
        if horizon > T_WINDOW[1]:
            raise ConfigError(f"horizon={horizon:g} exceeds the psi rule's window "
                              f"{T_WINDOW} at alpha={alpha}", line["horizon"])
        if horizon / steps < T_WINDOW[0]:
            raise ConfigError(f"horizon/steps={horizon / steps:g} falls below the psi "
                              f"rule's window {T_WINDOW} at alpha={alpha}", line["steps"])
        try:
            psi_rule(alpha, values["quad_nodes"])
        except ConstructionError as exc:
            raise ConfigError(f"quad_nodes={values['quad_nodes']} is too few: {exc}",
                              line["quad_nodes"]) from exc

    try:
        problem = ProblemSpec(
            order=FracOrder(alpha, q=values["q"], p=values["p"]),
            horizon=horizon, mode_count=modes, step_count=steps,
            u0=_parse_modes_list(values["u0"], modes, line["u0"]),
            v0=_parse_modes_list(values["v0"], modes, line["v0"]),
            nonlocal_terms=_parse_nonlocal(values["nonlocal"], line["nonlocal"]),
            nonlinearity=_parse_nonlinearity(values["nonlinearity"], line["nonlinearity"]),
            control_count=values["controls"])
    except DomainError as exc:
        raise ConfigError(str(exc), line["nonlocal"]) from exc

    try:
        cost = CostSpec(values["state_weight"], values["control_weight"])
    except DomainError as exc:
        # only both weights given as 0 get here
        raise ConfigError(str(exc), max(line["state_weight"], line["control_weight"])) from exc
    if line["control_modes"] is None:
        # the default fits every mode count; a value given is checked as given
        values["control_modes"] = min(values["control_modes"], modes)
        entries[("optimize", "control_modes")] = (str(values["control_modes"]), None)
    elif values["control_modes"] > modes:
        raise ConfigError(f"control_modes={values['control_modes']} out of [1,{modes}]",
                          line["control_modes"])
    if mode == "optimize" and values["controls"] < 1:
        raise ConfigError("optimize mode requires problem.controls >= 1", line["controls"])

    echo = {f"{section}.{key}": entries[(section, key)][0]
            for section, key in sorted(entries)}
    echo["mode"] = mode
    return RunConfig(mode=mode, problem=problem, solver_tol=values["tol"],
                     solver_max_iter=values["max_iter"], quad_nodes=values["quad_nodes"],
                     cost=cost, budget=values["budget"], grad_tol=values["grad_tol"],
                     fd_step=values["fd_step"], control_modes=values["control_modes"],
                     radius=values["radius"], init_kind=values["init"],
                     out_dir=values["directory"] or "out", seed=values["seed"], echo=echo)


# time grids, and mode counts, whose CSV heads and labels one process keeps
_HEADS_MEMO = 4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@functools.lru_cache(maxsize=_HEADS_MEMO)
def _time_heads(grid: TimeGrid) -> tuple:
    """The grid's node times as CSV heads, '%.17g' each."""
    return tuple(_fmt(t) for t in grid.nodes().tolist())


@functools.lru_cache(maxsize=_HEADS_MEMO)
def _control_heads(control_count: int, grid: TimeGrid) -> tuple:
    """controls.csv's row heads "j,t": every node time of the grid under
    each control j in turn."""
    return tuple(f"{j},{t}" for j in range(1, control_count + 1) for t in _time_heads(grid))


def _write_artifact(path: Path, text: str, *table) -> None:
    """Write `text`, then the `csvtable.write_table` lines of `table`
    (heads, labels, values) if given, as UTF-8 bytes with "\\n" line ends
    on every platform."""
    with open(path, "wb") as out:
        out.write(text.encode("utf-8"))
        if table:
            write_table(out, *table)


def _mode_labels(mode_count: int) -> list:
    return [str(n) for n in range(1, mode_count + 1)]


@functools.lru_cache(maxsize=_HEADS_MEMO)
def _collocation(mode_count: int) -> tuple:
    """The 4N collocation nodes as CSV labels, '%.17g' each."""
    return tuple(_fmt(x) for x in collocation_grid(4 * mode_count).tolist())


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
            # the oracles load only for verify
            from .verification import run_battery
            rows = run_battery(problem.order, problem.mode_count, config.quad_nodes)
            lines = [f"{r.name},{r.detail},{_fmt(r.value)},{_fmt(r.threshold)},"
                     f"{'pass' if r.passed else 'fail'}\n" for r in rows]
            _write_artifact(out / "verify.csv",
                            "check,detail,value,threshold,status\n" + "".join(lines))
            report["verify"] = {
                "total": len(rows),
                "failed": [r.name for r in rows if not r.passed],
            }
            status = 0 if all(r.passed for r in rows) else 1
        else:
            # the rule parse_config built, and the run's one solve context
            alpha = problem.order.alpha
            report["multiplier_rule"] = (psi_rule(alpha, config.quad_nodes).summary()
                                         if alpha < 1.0 else {"kind": "semigroup", "nodes": 0})
            workspace = _SweepWorkspace(problem, config.quad_nodes)
            grid = problem.grid
            ts = _time_heads(grid)
            if config.mode == "solve":
                traj, report["solve"] = picard_solve(
                    problem, tol=config.solver_tol, max_iter=config.solver_max_iter,
                    workspace=workspace)
            else:
                k = problem.control_count
                if config.init_kind == "zero":
                    init = zero_bundle(grid, k, config.control_modes, config.radius)
                else:
                    init = random_admissible_bundle(grid, k, config.control_modes,
                                                    np.random.default_rng(config.seed),
                                                    config.radius)
                bundle, traj, log = optimize_controls(
                    problem, config.cost, init, budget=config.budget,
                    grad_tol=config.grad_tol, fd_step=config.fd_step,
                    solve_tol=config.solver_tol, workspace=workspace,
                    max_iter=config.solver_max_iter)
                _write_artifact(out / "descent.csv", "iteration,J\n" + "".join(
                    f"{i},{_fmt(j)}\n" for i, j in enumerate(log.cost_values)))
                # control j's node rows; the final node repeats the last cell
                cells = bundle.cells
                nodes = np.concatenate((cells, cells[:, -1:]), axis=1)
                _write_artifact(out / "controls.csv", "control,t,n,coefficient\n",
                                _control_heads(k, grid), _mode_labels(config.control_modes),
                                nodes.reshape(-1, config.control_modes))
                report["optimize"] = {**vars(log),
                                      "final_cost": float(log.cost_values[-1]),
                                      "admissibility_value": admissibility_value(bundle)}
                status = 0 if log.converged else 1
            values = np.matmul(traj.coeffs, collocation_maps(problem.mode_count)[0].T)
            _write_artifact(out / "trajectory.csv", "t,x,u\n", ts,
                            _collocation(problem.mode_count), values)
            _write_artifact(out / "modes.csv", "t,n,coefficient\n",
                            ts, _mode_labels(problem.mode_count), traj.coeffs)
            report["measured_constants"] = measure_bounds(problem.mode_count,
                                                          q=problem.order.q)
    except SobfracError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        extra = getattr(exc, "residual_history", None)
        if extra:
            report["error"]["residual_history"] = list(extra)
        status = 1
    _write_artifact(out / "report.json", _json_text(report) + "\n")
    return status


def _json_text(obj, newline: str = "\n") -> str:
    """Strict JSON of obj, laid out as json.dumps(obj, indent=2,
    sort_keys=True) lays it out, in one pass over the objects themselves:
    dicts (str keys) and dataclass records as objects, lists, tuples and
    arrays as lists, numpy scalars as their Python values, every float
    that is not finite as null (json.dumps writes NaN and Infinity,
    tokens strict parsers reject), and any other object as its str.
    newline is the line break plus the indentation of obj's own line."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if hasattr(type(obj), "__dataclass_fields__"):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in sorted(obj.items())]) + newline + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if len(obj) == 0:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _json_text(value, inner) for value in obj]) + newline + "]"
    return encode_basestring_ascii(str(obj))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="sobfrac",
        description="Verify, solve, or optimize the fractional evolution instance "
                    "described by a config file.")
    parser.add_argument("mode", choices=("verify", "solve", "optimize"))
    parser.add_argument("--config", required=True, help="path to the config file")
    for flag, (section, key) in _FLAGS.items():
        parser.add_argument(flag, help=f"replaces [{section}] {key}")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, mode=args.mode, overrides={
            flag: getattr(args, flag[2:]) for flag in _FLAGS})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # made here too, so that a path that cannot be a directory is refused
    # like a config; run makes it for callers that skip main
    try:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {config.out_dir}: {exc.strerror}",
              file=sys.stderr)
        return 2
    status = run(config)
    print(f"sobfrac {args.mode}: {'ok' if status == 0 else 'FAILED'} "
          f"(artifacts in {config.out_dir})")
    return status


if __name__ == "__main__":
    sys.exit(main())
