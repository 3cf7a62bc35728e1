"""Artifact diff: run one config set through the CLI on two source trees
and compare what the runs leave behind.

Run from anywhere inside the repository:

    python tools/artifacts.py --against REV > report.json
    python tools/artifacts.py --selftest

--against exports the commit REV with `git archive` into a temporary
directory and runs every config of the set twice, once on REV's `src/`
and once on this tree's, each in a fresh `python -m sobfrac.cli`
process whose working directory holds only the config and whose
`--out` is the same relative path on both sides.  The JSON report, on
stdout (a one-line summary goes to stderr), gives for each config the
two exit codes and whether stdout and stderr are equal, and for each
file one of: identical; missing (REV wrote it, this tree did not);
extra (the reverse); or differs.  A differing .json file that parses on
both sides is compared by its leaves, each named by its dotted key path
(list items by their index): the paths found only in REV's file, those
found only in this tree's, the paths of non-numeric leaves that differ,
and the count and the max absolute and relative difference of the
numeric leaves that differ.  Any other differing file gets the max
absolute and relative difference over its numeric fields when both
files have the same text between their numbers.  The exit status is 0
when every config and file is identical, and 1 otherwise.

The config set is data: the README `ini` block under named edits, and
the perfbench templates, imported read-only.  It is also the one
declaration of what each run must do: every run names its exit status
and the report.json facts it must show.  An exit-0 run leaves every
artifact its mode writes, non-empty; an exit-1 run leaves a non-empty
report.json; an exit-2 run leaves no output directory.  The bytes
depend on the host's numpy kernels, so the claim checked is two trees
on one host, not a recorded digest.

--selftest runs the set twice on this tree, requires every run of the
first pass to meet its expectation and every file to be identical, then
requires a copy with one perturbed CSV value, and one with a file
removed, to be flagged with the right difference.  Everything is
written under temporary directories, which are removed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import operator
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CONFIG, OUT = "config.ini", "out"
# one BLAS and OpenMP thread per run, as perfbench pins them
THREADS = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"), "1")
RUN_TIMEOUT_S = 600

# the artifacts each mode writes besides report.json
ARTIFACTS = {"verify": ("verify.csv",),
             "solve": ("trajectory.csv", "modes.csv"),
             "optimize": ("descent.csv", "controls.csv", "trajectory.csv", "modes.csv")}


class Run(NamedTuple):
    """One config of the set and what its run must do: exit with `exit`
    and show `facts`, each (dotted path into report.json, "==" or "<=",
    value)."""

    name: str
    mode: str
    text: str
    exit: int = 0
    facts: tuple = ()


# the fact of a run refused by the hypothesis check
REJECTED = (("error.type", "==", "RejectedInstanceError"),)

# README-block runs: (name, mode, edits, exit, facts), each edit (key, value)
# replacing the value of the block's one `key = ` line and keeping its comment
README_RUNS = (
    ("readme-verify", "verify", (), 0, ()),
    ("readme-solve", "solve", (), 0, ()),
    # the adjoint gradient, through the kernel's transpose, against its
    # finite difference
    ("readme-optimize", "optimize", (), 0,
     (("optimize.gradient_check.relative_residual", "<=", 1e-5),)),
    # from a random start inside the ball, the descent converges in it
    ("readme-optimize-random", "optimize", (("init", "random"),), 0,
     (("optimize.converged", "==", True), ("optimize.admissibility_value", "<=", 1.0))),
    # the ball binds, and the descent still converges
    ("readme-optimize-binding", "optimize", (("radius", "0.05"),), 0,
     (("optimize.converged", "==", True),)),
    # every trial solve starts from the data term, so a tight stationarity
    # test is met
    ("readme-optimize-tight", "optimize",
     (("tol", "1e-11"), ("grad_tol", "1e-9"), ("budget", "500")), 0,
     (("optimize.converged", "==", True),)),
    # solved from the S rows alone
    ("linear-solve", "solve", (("nonlinearity", "zero"), ("controls", "0")), 0, ()),
    # the operator-bound and multiplier rows of the configured order on
    # the semigroup branch
    ("semigroup-verify", "verify", (("alpha", "1.0"),), 0, ()),
    ("semigroup-solve", "solve", (("alpha", "1.0"),), 0,
     (("multiplier_rule.kind", "==", "semigroup"),)),
    ("semigroup-optimize", "optimize", (("alpha", "1.0"),), 0, ()),
    ("sin-grad-40-solve", "solve", (("nonlinearity", "sin_grad:40"),), 1, ()),
    # the descent's first inner solve diverges, and the run says so
    ("sin-grad-40-optimize", "optimize", (("nonlinearity", "sin_grad:40"),), 1,
     (("error.type", "==", "OptimizationError"),)),
    # p*alpha*(1-q) = 0.66 fails the controlled-instance hypothesis
    ("low-p-solve", "solve", (("p", "1.1"),), 1, REJECTED),
    ("low-p-optimize", "optimize", (("p", "1.1"),), 1, REJECTED),
    # the report names the rule the config's parse built
    ("nodes300-solve", "solve", (("quad_nodes", "300"),), 0,
     (("multiplier_rule.nodes", "==", 300),)),
    # 200 psi-rule nodes are too few, refused at parse before any output
    ("low-alpha-solve", "solve", (("alpha", "0.01"),), 2, ()),
    # a nonlocal time between nodes (0.4 = 204.8 dt), read from its two
    # neighbours: the solve converges, and the adjoint through the two-node
    # elimination passes the gradient check
    ("offgrid-nonlocal-solve", "solve", (("nonlocal", "0.3@0.4"),), 0,
     (("solve.converged", "==", True),)),
    ("offgrid-nonlocal-optimize", "optimize", (("nonlocal", "0.3@0.4"),), 0,
     (("optimize.gradient_check.relative_residual", "<=", 1e-5),)),
)
# perfbench runs: the seed-1 operation of the solve and optimize
# workloads, and the sweep template at two alphas
TEMPLATE_SEED = 1
SWEEP_ALPHAS = ("0.641", "0.372")

NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def readme_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"```ini\n(.*?)```", text, re.S).group(1)


def edited(text: str, edits) -> str:
    for key, value in edits:
        text, count = re.subn(rf"(?m)^{re.escape(key)} = \S+", f"{key} = {value}", text)
        if count != 1:
            raise SystemExit(f"error: the README block has {count} '{key} = ' lines")
    return text


def perfbench_workloads():
    """perfbench/workloads.py, imported without writing bytecode there."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def config_set() -> list:
    """[Run] of every run the diff makes; the perfbench runs exit 0."""
    block = readme_block()
    runs = [Run(name, mode, edited(block, edits), code, facts)
            for name, mode, edits, code, facts in README_RUNS]
    workloads = perfbench_workloads()
    for name, workload in (("perfbench-solve", "solve_nonlinear"),
                           ("perfbench-optimize", "optimize_linear")):
        entry = workloads.WORKLOADS[workload]
        runs.append(Run(name, entry.mode, next(entry.configs(TEMPLATE_SEED, OUT, 1))))
    runs += [Run(f"perfbench-sweep-{alpha}", "solve",
                 workloads.SWEEP_TEMPLATE.format(alpha=alpha, out=OUT))
             for alpha in SWEEP_ALPHAS]
    return runs


def tree_env(tree: Path) -> dict:
    """The environment that makes `python -m sobfrac.cli` load tree's
    sources, checked: an installed copy must not stand in for them."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    found = subprocess.run([sys.executable, "-c", "import sobfrac; print(sobfrac.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if Path(found.strip()).resolve().parent != (tree / "src" / "sobfrac").resolve():
        raise SystemExit(f"error: sobfrac loads from {found.strip()}, not {tree / 'src'}")
    return env


def run_set(tree: Path, runs: list, into: Path) -> dict:
    """Run every config on tree, each in its own working directory under
    into; returns {name: (exit code, stdout, stderr)}."""
    env = tree_env(tree)
    results = {}
    for run in runs:
        workdir = into / run.name
        workdir.mkdir(parents=True)
        (workdir / CONFIG).write_text(run.text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "sobfrac.cli", run.mode, "--config", CONFIG, "--out", OUT],
            cwd=workdir, env=env, capture_output=True, timeout=RUN_TIMEOUT_S)
        results[run.name] = (proc.returncode, proc.stdout, proc.stderr)
    return results


# a fact's comparison of the value read with the value declared, which
# must also share its type: a bool is not a number, and 1 is not true
FACT_TESTS = {"==": operator.eq, "<=": operator.le}


def expectation_failures(runs: list, into: Path, results: dict) -> list:
    """One message, led by the run's name, for each way a run under into
    breaks its declared outcome (see the module docstring)."""
    failures = []
    for run in runs:
        out = into / run.name / OUT
        code = results[run.name][0]
        if code != run.exit:
            failures.append(f"{run.name}: exited {code}, not {run.exit}")
        if run.exit == 2:
            if out.exists():
                failures.append(f"{run.name}: exit 2 left {OUT}/")
            continue
        for artifact in ("report.json", *(ARTIFACTS[run.mode] if run.exit == 0 else ())):
            if not (out / artifact).is_file() or (out / artifact).stat().st_size == 0:
                failures.append(f"{run.name}: {artifact} is missing or empty")
        if not run.facts:
            continue
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            failures.append(f"{run.name}: report.json does not read: {exc}")
            continue
        for path, test, want in run.facts:
            got = report
            for key in path.split("."):
                got = got.get(key) if isinstance(got, dict) else None
            if type(got) is not type(want) or not FACT_TESTS[test](got, want):
                failures.append(f"{run.name}: {path} is {got!r}, not {test} {want!r}")
    return failures


def numeric_moves(pairs) -> dict:
    """The count of (base, head) number pairs that differ, with their max
    absolute and relative difference."""
    fields, max_abs, max_rel = 0, 0.0, 0.0
    for a, b in pairs:
        fields += 1
        max_abs = max(max_abs, abs(a - b))
        if a != b:
            max_rel = max(max_rel, abs(a - b) / max(abs(a), abs(b)))
    return {"fields": fields, "max_abs": max_abs, "max_rel": max_rel}


def compare_bytes(base: bytes, head: bytes) -> dict:
    """identical, or differs with the max absolute and relative difference
    over the numbers of two texts that agree between their numbers."""
    if base == head:
        return {"status": "identical"}
    if NUMBER.sub(b"#", base) != NUMBER.sub(b"#", head):
        return {"status": "differs", "same_layout": False}
    return {"status": "differs", "same_layout": True,
            **numeric_moves((float(x), float(y))
                            for x, y in zip(NUMBER.findall(base), NUMBER.findall(head))
                            if x != y)}


def json_leaves(value, path: str = "") -> dict:
    """{dotted key path: leaf} of a parsed JSON value; an empty object or
    list is a leaf."""
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and value:
        items = enumerate(value)
    else:
        return {path: value}
    return {leaf: v for key, item in items
            for leaf, v in json_leaves(item, f"{path}.{key}" if path else str(key)).items()}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_json(base: bytes, head: bytes) -> dict | None:
    """differs, leaf by leaf (see the module docstring), for two JSON
    texts that differ and both parse; None when either does not parse."""
    try:
        b, h = json_leaves(json.loads(base)), json_leaves(json.loads(head))
    except ValueError:
        return None
    shared = b.keys() & h.keys()
    numbers = {p for p in shared if is_number(b[p]) and is_number(h[p])}
    return {"status": "differs",
            "base_only": sorted(b.keys() - h.keys()), "head_only": sorted(h.keys() - b.keys()),
            "changed": sorted(p for p in shared - numbers
                              if b[p] != h[p] or type(b[p]) is not type(h[p])),
            **numeric_moves((b[p], h[p]) for p in numbers if b[p] != h[p])}


def compare_file(rel: str, base: bytes, head: bytes) -> dict:
    """The entry of one file that both runs wrote."""
    if base != head and rel.endswith(".json"):
        leafwise = compare_json(base, head)
        if leafwise is not None:
            return leafwise
    return compare_bytes(base, head)


def files_under(workdir: Path) -> dict:
    return {p.relative_to(workdir).as_posix(): p for p in sorted(workdir.rglob("*"))
            if p.is_file() and p.name != CONFIG}


def compare_runs(runs: list, base: Path, head: Path, base_results: dict,
                 head_results: dict) -> dict:
    """The report of two run directories (see the module docstring)."""
    configs, files, same = {}, 0, 0
    for name, mode, *_ in runs:
        (b_exit, b_out, b_err), (h_exit, h_out, h_err) = base_results[name], head_results[name]
        b_files, h_files = files_under(base / name), files_under(head / name)
        entries = {}
        for rel in sorted(b_files.keys() | h_files.keys()):
            if rel not in h_files:
                entries[rel] = {"status": "missing"}
            elif rel not in b_files:
                entries[rel] = {"status": "extra"}
            else:
                entries[rel] = compare_file(rel, b_files[rel].read_bytes(),
                                            h_files[rel].read_bytes())
        identical = sum(e["status"] == "identical" for e in entries.values())
        files += len(entries)
        same += identical
        configs[name] = {
            "mode": mode, "exit": [b_exit, h_exit],
            "stdout_equal": b_out == h_out, "stderr_equal": b_err == h_err,
            "files": entries,
            "identical": (b_exit == h_exit and b_out == h_out and b_err == h_err
                          and identical == len(entries)),
        }
    return {"configs": configs,
            "summary": {"configs": len(configs), "files": files, "identical_files": same,
                        "differing_configs": [n for n, c in configs.items()
                                              if not c["identical"]]}}


def export(rev: str, into: Path) -> Path:
    """REV's committed files, from `git archive`, under into/tree."""
    tree = into / "tree"
    tree.mkdir()
    archive = into / "tree.tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                       stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def against(rev: str) -> dict:
    runs = config_set()
    with tempfile.TemporaryDirectory(prefix="sobfrac-artifacts-") as tmp:
        tmp = Path(tmp)
        base_tree = export(rev, tmp)
        base_results = run_set(base_tree, runs, tmp / "base")
        head_results = run_set(ROOT, runs, tmp / "head")
        report = compare_runs(runs, tmp / "base", tmp / "head", base_results, head_results)
    report["base"], report["head"] = rev, str(ROOT)
    return report


def perturb_one_value(path: Path) -> float:
    """Move the last field of a CSV's last row by 1e-9 relative; returns
    the exact change of the value as read."""
    lines = path.read_text(encoding="utf-8").split("\n")
    head, _, old = lines[-2].rpartition(",")
    new = f"{float(old) * (1.0 + 1e-9):.17g}"
    lines[-2] = f"{head},{new}"
    path.write_text("\n".join(lines), encoding="utf-8")
    return abs(float(new) - float(old))


def selftest() -> list:
    """Failure messages (empty when the diff behaves)."""
    failures = []
    runs = config_set()
    if len(runs) != 22:
        failures.append(f"the config set has {len(runs)} configs, not 22")
    with tempfile.TemporaryDirectory(prefix="sobfrac-artifacts-") as tmp:
        tmp = Path(tmp)
        first = run_set(ROOT, runs, tmp / "first")
        failures += expectation_failures(runs, tmp / "first", first)
        second = run_set(ROOT, runs, tmp / "second")
        summary = compare_runs(runs, tmp / "first", tmp / "second", first, second)["summary"]
        if summary["differing_configs"] or summary["identical_files"] != summary["files"]:
            failures.append(f"the tree against itself differs: {summary}")
        shutil.copytree(tmp / "second", tmp / "changed")
        delta = perturb_one_value(tmp / "changed" / "readme-solve" / OUT / "modes.csv")
        (tmp / "changed" / "linear-solve" / OUT / "modes.csv").unlink()
        report = compare_runs(runs, tmp / "first", tmp / "changed", first, second)
        flagged = {(name, rel): entry for name, config in report["configs"].items()
                   for rel, entry in config["files"].items() if entry["status"] != "identical"}
        want = {("readme-solve", f"{OUT}/modes.csv"), ("linear-solve", f"{OUT}/modes.csv")}
        if set(flagged) != want:
            failures.append(f"flagged {sorted(flagged)}, not {sorted(want)}")
        else:
            moved = flagged[("readme-solve", f"{OUT}/modes.csv")]
            if not (moved.get("fields") == 1 and moved["max_abs"] == delta > 0.0):
                failures.append(f"perturbed modes.csv reads {moved}, not one field by {delta}")
            if flagged[("linear-solve", f"{OUT}/modes.csv")] != {"status": "missing"}:
                failures.append("the removed modes.csv is not reported missing")
        if sorted(report["summary"]["differing_configs"]) != ["linear-solve", "readme-solve"]:
            failures.append(f"differing configs {report['summary']['differing_configs']}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="REV", help="the commit to compare this tree with")
    mode.add_argument("--selftest", action="store_true", help="check the diff itself")
    args = parser.parse_args(argv)
    if args.selftest:
        failures = selftest()
        for line in failures:
            print(f"FAIL: {line}")
        print("selftest failed" if failures else "selftest passed")
        return 1 if failures else 0
    report = against(args.against)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(report["summary"], file=sys.stderr)
    return 0 if not report["summary"]["differing_configs"] else 1


if __name__ == "__main__":
    sys.exit(main())
