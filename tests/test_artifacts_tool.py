"""The expectation check and the file comparison of tools/artifacts.py,
on synthetic run directories and files: no CLI process is started.

Each run of the declared set is given the outcome it declares (its exit
status, an "x" line in every artifact it must leave, and a report.json
that holds its facts), and then one outcome at a time is broken.  Two
report.json files are compared leaf by leaf.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifacts.py"


@pytest.fixture(scope="module")
def artifacts():
    """tools/artifacts.py, imported without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("sobfrac_artifacts_tool", TOOL)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    yield module
    del sys.modules[spec.name]


def report_with(facts) -> dict:
    """A report that holds each fact at its declared value."""
    report = {}
    for path, _, want in facts:
        *parents, leaf = path.split(".")
        node = report
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = want
    return report


def declared_outcomes(artifacts, runs, into: Path) -> dict:
    """Run directories under into that meet every expectation of runs;
    returns the results run_set would."""
    for run in runs:
        (into / run.name).mkdir(parents=True)
        if run.exit == 2:
            continue
        out = into / run.name / artifacts.OUT
        out.mkdir()
        (out / "report.json").write_text(json.dumps(report_with(run.facts)))
        for artifact in artifacts.ARTIFACTS[run.mode] if run.exit == 0 else ():
            (out / artifact).write_text("x\n")
    return {run.name: (run.exit, b"", b"") for run in runs}


@pytest.fixture
def declared(artifacts, tmp_path):
    runs = artifacts.config_set()
    return runs, declared_outcomes(artifacts, runs, tmp_path)


def test_a_matching_set_reports_nothing(artifacts, declared, tmp_path):
    runs, results = declared
    assert artifacts.expectation_failures(runs, tmp_path, results) == []


def break_exit(out: Path, results: dict):
    results["nodes300-solve"] = (1, b"", b"")


def empty_artifact(out: Path, results: dict):
    (out / "readme-verify" / "out" / "verify.csv").write_text("")


def missing_artifact(out: Path, results: dict):
    (out / "readme-optimize-random" / "out" / "descent.csv").unlink()


def missing_report(out: Path, results: dict):
    (out / "sin-grad-40-solve" / "out" / "report.json").unlink()


def wrong_fact(out: Path, results: dict):
    (out / "semigroup-solve" / "out" / "report.json").write_text(
        json.dumps({"multiplier_rule": {"kind": "psi", "nodes": 200}}))


def residual_over_its_bound(out: Path, results: dict):
    (out / "readme-optimize" / "out" / "report.json").write_text(
        json.dumps({"optimize": {"gradient_check": {"relative_residual": 2e-5}}}))


def one_for_true(out: Path, results: dict):
    (out / "readme-optimize-binding" / "out" / "report.json").write_text(
        json.dumps({"optimize": {"converged": 1}}))


def exit_2_left_a_directory(out: Path, results: dict):
    (out / "low-alpha-solve" / "out").mkdir()


@pytest.mark.parametrize("breach, message", (
    (break_exit, "nodes300-solve: exited 1, not 0"),
    (empty_artifact, "readme-verify: verify.csv is missing or empty"),
    (missing_artifact, "readme-optimize-random: descent.csv is missing or empty"),
    (missing_report, "sin-grad-40-solve: report.json is missing or empty"),
    (wrong_fact, "semigroup-solve: multiplier_rule.kind is 'psi', not == 'semigroup'"),
    (residual_over_its_bound, "readme-optimize: optimize.gradient_check.relative_residual "
                              "is 2e-05, not <= 1e-05"),
    (one_for_true, "readme-optimize-binding: optimize.converged is 1, not == True"),
    (exit_2_left_a_directory, "low-alpha-solve: exit 2 left out/"),
), ids=lambda value: getattr(value, "__name__", None))
def test_each_breach_is_reported_with_its_run(artifacts, declared, tmp_path,
                                              breach, message):
    runs, results = declared
    breach(tmp_path, results)
    assert artifacts.expectation_failures(runs, tmp_path, results) == [message]


REPORT = {"mode": "solve", "multiplier_rule": {"kind": "psi", "nodes": 200, "step": 0.25,
                                              "weight_sum_defect": 1e-16},
          "solve": {"residual_history": [1.0, 0.5]}}


def compared(artifacts, tmp_path, base: dict, head: dict) -> dict:
    """The entry compare_runs gives two report.json files with these contents."""
    for side, report in (("base", base), ("head", head)):
        (tmp_path / side).write_text(json.dumps(report, indent=2), encoding="utf-8")
    return artifacts.compare_file("out/report.json", (tmp_path / "base").read_bytes(),
                                  (tmp_path / "head").read_bytes())


def moved(base_only=(), head_only=(), changed=(), fields=0, max_abs=0.0, max_rel=0.0):
    return {"status": "differs", "base_only": list(base_only), "head_only": list(head_only),
            "changed": list(changed), "fields": fields, "max_abs": max_abs, "max_rel": max_rel}


def test_identical_reports(artifacts, tmp_path):
    assert compared(artifacts, tmp_path, REPORT, REPORT) == {"status": "identical"}


def test_a_dropped_key_is_named_by_its_path(artifacts, tmp_path):
    head = json.loads(json.dumps(REPORT))
    del head["multiplier_rule"]["weight_sum_defect"]
    head["solve"]["converged"] = True
    assert compared(artifacts, tmp_path, REPORT, head) == moved(
        base_only=["multiplier_rule.weight_sum_defect"], head_only=["solve.converged"])


def test_a_changed_number_is_measured(artifacts, tmp_path):
    head = json.loads(json.dumps(REPORT))
    head["solve"]["residual_history"][1] = 0.4
    head["multiplier_rule"]["nodes"] = 250
    assert compared(artifacts, tmp_path, REPORT, head) == moved(
        fields=2, max_abs=50.0, max_rel=0.2)


def test_a_changed_string_or_type_is_named(artifacts, tmp_path):
    head = json.loads(json.dumps(REPORT))
    head["multiplier_rule"]["kind"] = "semigroup"
    # a bool is not a number: 1 against true is a changed leaf
    base = {**REPORT, "flag": 1}
    head["flag"] = True
    assert compared(artifacts, tmp_path, base, head) == moved(
        changed=["flag", "multiplier_rule.kind"])


def test_an_unparsed_json_falls_back_to_the_text_diff(artifacts):
    assert artifacts.compare_file("out/report.json", b'{"a": 1', b'{"a": 2') == {
        "status": "differs", "same_layout": True, "fields": 1, "max_abs": 1.0,
        "max_rel": 0.5}
