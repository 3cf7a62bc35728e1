"""sobfrac benchmark: time CLI operations on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One operation is one in-process `sobfrac.cli.run(parse_config(text, mode))`
call on a config that workloads.py generates from the seed; every
operation's artifacts pass a correctness gate outside the timed interval.
The host is shared and its speed changes from second to second, so a fixed
reference kernel is timed between and during operations, and every
reported time is scaled to a host on which that kernel takes
REF_NOMINAL_S (see Reference).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced operations and reports per-layer metrics
from the spans (see tracing.py).  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the full record
(environment, per-operation counts and artifact digests) goes to
.perfbench_out/results/.

An operation fails when it raises, exits nonzero or fails its gate; every
failure counts in `failed`.  A failure the program reports itself (a
raised error or a nonzero exit, such as a ConstructionError) is a refusal;
a gate failure on an operation that exited 0 is a wrong answer.  `correct`
is false, and the exit status 1, only when some operation gave a wrong
answer.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP: set before numpy is imported anywhere.
PINNED_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = PINNED_THREADS

import argparse
import contextlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from tracing import ROOT, Tracer, layer_metrics
from workloads import WORKLOADS, artifact_digests

OUT_ROOT = Path(".perfbench_out")
SETUP_PROBES = 5
FINGERPRINT_OPS = 3
TAIL_BEYOND = 10
COUNT_SUFFIXES = (".calls", ".cold", ".distinct_t", ".sweeps", ".iterations",
                  ".inner_solves", ".bytes_written")
PROBE_TIMEOUT_S = 120
# Host-speed reference: one unit is fixed interpreter-bound and small-array
# numpy work, the mix sobfrac's operations are made of, independent of
# sobfrac.  REF_NOMINAL_S is the time of one unit on a 2-vCPU container
# when the shared host is in its fast state (about the 10th percentile of
# unit times measured over a busy half minute there).
REF_LOOPS = 25_000
REF_ARRAY_ROUNDS = 20
REF_UNITS_BETWEEN = 8
REF_SAMPLE_EVERY_S = 0.25
REF_NOMINAL_S = 0.0031

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Set-up probe: a fresh interpreter imports the CLI and builds the
# workload's fixed theta rule, as `sobfrac solve` does before solving.
PROBE_CODE = """\
import sys
import sobfrac.cli
if sys.argv[1] != "none":
    sobfrac.cli.SolutionOperatorCache(sobfrac.cli.FracOrder(float(sys.argv[1])), 1)
"""


def environment(root: Path) -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "pinned_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def git_commit(root: Path):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_setup(root: Path, fixed_alpha) -> float:
    """Wall seconds from process start to a ready CLI with a warm theta rule."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE_CODE,
                    "none" if fixed_alpha is None else repr(fixed_alpha)],
                   cwd=root, env=env, check=True, timeout=PROBE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Reference:
    """Gauges the host's speed with a fixed kernel.

    between() times REF_UNITS_BETWEEN units; inside sampling(), a timer
    signal times one unit every REF_SAMPLE_EVERY_S and the units' time is
    added to `spent`, for the caller to take out of its own timing.
    Traced operations are not sampled, so that the spans hold only the
    program's own time.  All
    values are seconds per unit.  scaled() turns wall seconds into seconds
    on a host where a unit takes REF_NOMINAL_S.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vector = rng.standard_normal(4096)
        self.matrix = rng.standard_normal((64, 64))
        self.samples = []
        self.between()   # first calls pay one-off costs

    def unit(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(REF_LOOPS):
            acc += i * 0.5
        for _ in range(REF_ARRAY_ROUNDS):
            np.fft.rfft(self.vector)
            self.matrix @ self.matrix
            np.sin(self.vector)
        return time.perf_counter() - start

    def between(self) -> float:
        return statistics.fmean(self.unit() for _ in range(REF_UNITS_BETWEEN))

    @contextlib.contextmanager
    def sampling(self, enabled: bool = True):
        self.samples = []
        if not enabled:
            yield
            return

        def sample(signum, frame):
            self.samples.append(self.unit())

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, REF_SAMPLE_EVERY_S, REF_SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def spent(self) -> float:
        return sum(self.samples)

    @staticmethod
    def scaled(seconds: float, units: list) -> float:
        return seconds * REF_NOMINAL_S / statistics.fmean(units)


def tail(times: list) -> tuple:
    """(percentile, value): the highest percentile with TAIL_BEYOND
    operations beyond it, or the median when there are fewer than
    2 * TAIL_BEYOND operations."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


class Operation:
    """Runs one config through the CLI and its gate; records the outcome."""

    def __init__(self, workload, out: Path, reference: Reference):
        from sobfrac import cli, specfun
        self.cli = cli
        self.density_cache = specfun._density_cached
        self.workload = workload
        self.out = out
        self.reference = reference

    def execute(self, text: str):
        config = self.cli.parse_config(text, self.workload.mode)
        return self.cli.run(config)

    def __call__(self, text: str, op_seed: int, tracer: Tracer | None = None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        misses = self.density_cache.cache_info().misses
        execute = self.execute
        if tracer is not None:
            tracer.reset()
            tracer.install()
            execute = tracer.wrap(ROOT, self.execute)
        error = None
        start = time.perf_counter()
        try:
            with self.reference.sampling(enabled=tracer is None):
                status = execute(text)
        except Exception as exc:   # an operation that raises is a failed operation
            status, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start - self.reference.spent
        if tracer is not None:
            tracer.uninstall()
        record = {"seconds": elapsed, "status": status,
                  "ref_samples": list(self.reference.samples),
                  "refused": error is not None or status != 0,
                  "density_evals": self.density_cache.cache_info().misses - misses}
        if error is None:
            config = self.cli.parse_config(text, self.workload.mode)
            try:
                failures = self.workload.check(config, self.out, status, op_seed)
            except Exception as exc:   # a gate that cannot read the artifacts fails
                failures = [f"gate raised {type(exc).__name__}: {exc}"]
            record["digests"] = artifact_digests(self.out)
            record["bytes_written"] = sum(d["bytes"] for d in record["digests"].values())
            try:
                report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
            except (OSError, ValueError):
                report = {}
            record["sweeps"] = report.get("solve", {}).get("iterations")
            record["inner_solves"] = report.get("optimize", {}).get("inner_solves")
        else:
            failures = [error]
        record["failures"] = failures
        if tracer is not None and error is None:
            record["layers"] = layer_metrics(tracer)
            record["layers"]["cli.bytes_written"] = record["bytes_written"]
        return record


def measure(workload, seed: int, seconds: float, trace: bool, out: Path,
            probe=None) -> tuple:
    """Warm up, then run the workload's operations for `seconds`.

    Returns the operation records and the host-scaled set-up samples.
    With trace, operations alternate untraced and traced; with a probe,
    SETUP_PROBES set-up probes are spread between the operations.  Either
    way the values compared see the same host drift.  The host's speed
    is gauged before and after every operation and probe, and during
    every operation; a probe's child process is not sampled.
    """
    ops = max(2 if trace else 1, workload.operations(seconds))
    reference = Reference()
    op = Operation(workload, out, reference)
    configs = workload.configs(seed, str(out), ops)
    for _ in range(workload.warmup):
        op(next(configs), op_seed=seed)
    tracer = Tracer() if trace else None
    records, setup = [], []
    ref = reference.between()
    for index in range(ops):
        while probe is not None and len(setup) * ops < SETUP_PROBES * (index + 1):
            seconds = probe()
            ref_after = reference.between()
            setup.append(Reference.scaled(seconds, [ref, ref_after]))
            ref = ref_after
        traced = trace and index % 2 == 1
        record = op(next(configs), op_seed=seed * 1_000_003 + index,
                    tracer=tracer if traced else None)
        ref_after = reference.between()
        record["ref_s"] = [ref, *record.pop("ref_samples"), ref_after]
        record["scaled_s"] = Reference.scaled(record["seconds"], record["ref_s"])
        ref = ref_after
        record["traced"] = traced
        records.append(record)
    return records, setup


def wrong_answers(records: list) -> int:
    """Operations that exited 0 but failed their gate."""
    return sum(1 for r in records if r["failures"] and not r["refused"])


def end_to_end(records: list, setup_s: float) -> tuple:
    """Metrics from host-scaled times, with failed operations counted as
    infinitely slow."""
    times = [r["scaled_s"] if not r["failures"] else math.inf for r in records]
    failed = sum(1 for r in records if r["failures"])
    pct, tail_value = tail(times)
    metrics = {
        "run_s_p50": statistics.median(times),
        "run_s_tail": tail_value,
        "ok_ratio": (len(records) - failed) / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, pct, failed


def per_layer(records: list) -> dict:
    """Medians over the operations that passed their gate."""
    passed = [r for r in records if not r["failures"]]
    traced = [r["layers"] for r in passed if r["traced"]]
    untraced = [r["scaled_s"] for r in passed if not r["traced"]]
    if not traced or not untraced:
        return {}
    metrics = {key: statistics.median(m[key] for m in traced) for key in traced[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["scaled_s"] for r in passed if r["traced"])
        / statistics.median(untraced))
    return {key: metrics[key] for key in PER_LAYER}


def fingerprint(records: list) -> list:
    """Exact counts and artifact digests of the first operations; two runs
    with the same seed and code must produce identical fingerprints."""
    keys = ("status", "sweeps", "inner_solves", "density_evals", "bytes_written",
            "digests")
    prints = []
    for r in records[:FINGERPRINT_OPS]:
        entry = {key: r.get(key) for key in keys}
        if "layers" in r:
            entry["layer_counts"] = {k: v for k, v in r["layers"].items()
                                     if k.endswith(COUNT_SUFFIXES)}
        prints.append(entry)
    return prints


def finite_or_none(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def run_workload(args, root: Path) -> int:
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(root / "src"))
    import sobfrac.cli  # noqa: F401  (imported before the probes: writes bytecode once)
    env = environment(root)
    probe = None if args.trace else partial(probe_setup, root, workload.fixed_alpha)
    if workload.fixed_alpha is not None:
        sobfrac.cli.SolutionOperatorCache(sobfrac.cli.FracOrder(workload.fixed_alpha), 1)

    out = OUT_ROOT / "work" / workload.name
    records, setup_samples = measure(workload, args.seed, args.seconds,
                                     bool(args.trace), out, probe)
    failed = sum(1 for r in records if r["failures"])
    wrong = wrong_answers(records)
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "operations": len(records), "failed": failed,
               "failed_ratio": failed / len(records), "wrong_answers": wrong,
               "unscaled_run_s_p50": statistics.median(r["seconds"] for r in records)}
    if args.trace:
        metrics = per_layer(records)
        units = PER_LAYER
    else:
        metrics, pct, _ = end_to_end(records, statistics.median(setup_samples))
        units = END_TO_END
        summary["run_s_tail_percentile"] = pct
        summary["setup_samples_s"] = setup_samples
    for r in records:
        kind = "REFUSED" if r["refused"] else "WRONG"
        for message in r["failures"]:
            print(f"{kind} {workload.name}: {message}", file=sys.stderr)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(records)}  failed {failed} "
          f"(failed_ratio {summary['failed_ratio']:.4f}, wrong answers {wrong})  "
          f"unscaled wall p50 {summary['unscaled_run_s_p50']:.4f} s")
    for name, value in metrics.items():
        extra = (f"  (p{summary['run_s_tail_percentile']:.1f})"
                 if name == "run_s_tail" else "")
        print(f"  {name:40s} {value!r:>24} {units[name]}{extra}")
    print("env " + json.dumps(env, sort_keys=True))

    full = dict(summary, env=env, metrics=metrics,
                fingerprint=fingerprint(records),
                op_seconds=[r["seconds"] for r in records],
                op_scaled_s=[r["scaled_s"] for r in records],
                op_ref_s=[r["ref_s"] for r in records])
    results = OUT_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": finite_or_none(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


def run_all(args, root: Path) -> int:
    """Every workload, each in its own process; exit 1 if any gives a
    wrong answer."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=root).returncode != 0
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sobfrac" / "__init__.py").is_file():
        print("error: run from the repository root (src/sobfrac not found)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
