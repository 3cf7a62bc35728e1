"""Self-test of the benchmark harness at tiny problem sizes.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import re
import sys
import time
import unittest
from dataclasses import replace
from functools import partial
from itertools import islice
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the thread pins before numpy is imported)
from workloads import (ALPHA_HI, ALPHA_LO, WORKLOADS, data_configs,  # noqa: E402
                       strict_json, sweep_alphas)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
OUT = run.OUT_ROOT / "selftest"

TINY_SOLVE = """\
[problem]
alpha = 0.8
horizon = 1.0
modes = 4
steps = 16
u0 = 1:{u1} 2:{u2}
v0 = 1:{v1}
nonlocal = 0.3@0.5
nonlinearity = sin_grad:0.1

[solver]
max_iter = 80

[output]
directory = {out}
"""
# Three operations per 0.3 s run.
TINY = replace(WORKLOADS["solve_nonlinear"], name="tiny_solve",
               configs=partial(data_configs, TINY_SOLVE), op_s=0.1)
TINY_FAILING = replace(TINY, configs=partial(
    data_configs, TINY_SOLVE.replace("max_iter = 80", "max_iter = 1")))
TINY_WRONG = replace(TINY, check=lambda *args: ["gate forced to fail"])


def first(stream, count=5):
    return list(islice(stream, count))


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_configs_other_seed_differs(self):
        for workload in WORKLOADS.values():
            a = first(workload.configs(7, "x", 5))
            self.assertEqual(a, first(workload.configs(7, "x", 5)), workload.name)
            self.assertNotEqual(a, first(workload.configs(8, "x", 5)), workload.name)

    def test_alpha_sweep_never_repeats(self):
        alphas = first(sweep_alphas(3, 53), 3000)
        self.assertEqual(len(set(alphas)), len(alphas))
        self.assertTrue(all(ALPHA_LO <= float(a) <= ALPHA_HI for a in alphas))

    def test_alpha_sweep_run_visits_every_stratum(self):
        width = (ALPHA_HI - ALPHA_LO) / 53
        alphas = first(sweep_alphas(3, 53), 53)
        strata = {int((float(a) - ALPHA_LO) / width) for a in alphas}
        self.assertEqual(strata, set(range(53)))


class MetricNameTests(unittest.TestCase):
    def test_names_and_units(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertTrue(NAME.fullmatch(name), name)
                self.assertTrue(UNIT.fullmatch(unit), unit)


class HarnessTests(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (50.0, 2.0))
        pct, value = run.tail([float(i) for i in range(100)])
        self.assertEqual((pct, value), (90.0, 89.0))

    def test_host_scaling(self):
        nominal = run.REF_NOMINAL_S
        self.assertEqual(run.Reference.scaled(2.0, [nominal, nominal]), 2.0)
        self.assertAlmostEqual(run.Reference.scaled(2.0, [nominal, 3 * nominal]), 1.0)
        reference = run.Reference()
        with reference.sampling():
            start = time.perf_counter()
            while time.perf_counter() - start < 3 * run.REF_SAMPLE_EVERY_S:
                pass
        self.assertGreaterEqual(len(reference.samples), 2)
        self.assertEqual(reference.spent, sum(reference.samples))

    def test_strict_json_rejects_nan_and_infinity(self):
        self.assertEqual(strict_json('{"a": 1.5}'), {"a": 1.5})
        for token in ("NaN", "Infinity", "-Infinity"):
            with self.assertRaises(ValueError):
                strict_json('{"a": %s}' % token)

    def test_passing_operations(self):
        records, setup = run.measure(TINY, 1, 0.3, False, OUT / "pass",
                                     probe=lambda: 1.0)
        self.assertEqual((len(records), len(setup)), (3, run.SETUP_PROBES))
        self.assertEqual([r["failures"] for r in records], [[]] * len(records))
        metrics, _, failed = run.end_to_end(records, 1.0)
        self.assertEqual((failed, metrics["ok_ratio"]), (0, 1.0))

    def test_forced_failure_is_counted(self):
        records, _ = run.measure(TINY_FAILING, 1, 0.3, False, OUT / "fail")
        metrics, _, failed = run.end_to_end(records, 1.0)
        self.assertEqual(failed, len(records))
        self.assertEqual(metrics["ok_ratio"], 0.0)
        # NonConvergenceError: the program refuses, it does not answer wrongly.
        self.assertEqual(run.wrong_answers(records), 0)

    def test_gate_failure_is_a_wrong_answer(self):
        records, _ = run.measure(TINY_WRONG, 1, 0.3, False, OUT / "wrong")
        _, _, failed = run.end_to_end(records, 1.0)
        self.assertEqual(failed, len(records))
        self.assertEqual(run.wrong_answers(records), len(records))

    def test_same_seed_same_fingerprint(self):
        first_run = run.fingerprint(run.measure(TINY, 5, 0.3, True, OUT / "fp")[0])
        second_run = run.fingerprint(run.measure(TINY, 5, 0.3, True, OUT / "fp")[0])
        self.assertEqual(len(first_run), run.FINGERPRINT_OPS)
        self.assertEqual(first_run, second_run)

    def test_traced_operations_report_every_layer_metric(self):
        records, _ = run.measure(TINY, 1, 0.3, True, OUT / "trace")
        metrics = run.per_layer(records)
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        self.assertGreater(metrics["mild_solver.sweeps"], 0)
        self.assertAlmostEqual(metrics["trace.self_sum_ratio"], 1.0, delta=0.05)
        traced = [r for r in records if r["traced"]]
        self.assertEqual(traced[0]["layers"]["mild_solver.sweeps"],
                         traced[0]["sweeps"])


if __name__ == "__main__":
    unittest.main()
