"""Spans around sobfrac's layers, recorded from outside the package.

Tracer.install() rebinds each traced function in every sobfrac module
namespace that holds it (and each traced method on its class), so calls
made through any of those names open a span.  uninstall() restores the
originals; untimed and untraced operations run the unmodified code.
Spans are kept in memory as [name, start, end, parent] and reduced to
per-operation metrics by layer_metrics().
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute, span name).  Span names are
# "<layer>.<function>"; the layer is the sobfrac module that owns the code,
# or for scipy's fftconvolve the module that calls it.
FUNCTIONS = (
    ("sobfrac.cli", "parse_config", "cli.parse_config"),
    ("sobfrac.cli", "run", "cli.run"),
    ("sobfrac.optctrl", "optimize_controls", "optctrl.optimize_controls"),
    ("sobfrac.optctrl", "cost_J", "optctrl.cost_J"),
    ("sobfrac.optctrl", "hypothesis_check", "optctrl.hypothesis_check"),
    ("sobfrac.mild_solver", "picard_solve", "mild_solver.picard_solve"),
    ("sobfrac.mild_solver", "eval_f", "mild_solver.eval_f"),
    ("sobfrac.mild_solver", "fftconvolve", "mild_solver.fftconvolve"),
    ("sobfrac.spectral", "apply_Bi", "spectral.apply_Bi"),
    ("sobfrac.spectral", "grid_to_field", "spectral.grid_to_field"),
    ("sobfrac.spectral", "field_to_grid", "spectral.field_to_grid"),
    ("sobfrac.spectral", "measure_bounds", "spectral.measure_bounds"),
    ("sobfrac.specfun", "theta_quadrature", "specfun.theta_quadrature"),
    ("sobfrac.specfun", "mainardi_density", "specfun.mainardi_density"),
)
# (defining module, class, method, span name)
METHODS = (
    ("sobfrac.solution_ops", "SolutionOperatorCache", "multiplier_rows",
     "solution_ops.multiplier_rows"),
    ("sobfrac.mild_solver", "_SweepWorkspace", "__init__", "mild_solver.workspace"),
    ("sobfrac.mild_solver", "_SweepWorkspace", "sweep", "mild_solver.sweep"),
)
ROOT = "bench.operation"
LAYERS = ("cli", "optctrl", "mild_solver", "solution_ops", "spectral", "specfun")


class Tracer:
    """Span recorder plus counters read from the values traced calls return."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._patches = []
        self.counts = Counter()
        self.distinct_t = set()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.distinct_t.clear()

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _after_picard(self, args, kwargs, result):
        self.counts["mild_solver.sweeps"] += result[1].iterations

    def _after_rows(self, args, kwargs, result):
        self.distinct_t.add(float(args[1]))

    def _after_optimize(self, args, kwargs, result):
        init, log = args[2], result[2]
        c = self.counts
        c["optctrl.iterations"] += len(log.gradient_norms)
        c["optctrl.inner_solves"] += log.inner_solves
        c["optctrl.accepted_steps"] += len(log.cost_values) - 1
        coefficients = sum(ctrl.coeffs[:-1].size for ctrl in init.controls)
        # every inner solve is the initial one, a gradient probe or a trial step
        c["optctrl.trial_steps"] += (log.inner_solves - 1
                                     - 2 * coefficients * len(log.gradient_norms))

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "sobfrac" or key.startswith("sobfrac.")]
        hooks = {"mild_solver.picard_solve": self._after_picard,
                 "optctrl.optimize_controls": self._after_optimize,
                 "solution_ops.multiplier_rows": self._after_rows}
        for home, attr, name in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            wrapped = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)
        for home, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, hooks.get(name)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-operation metrics from one traced operation's spans."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
            has_child[parent] = True
    calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
    layer_self = defaultdict(float)
    cold = 0
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        busy[name] += duration
        own = duration - child_time[i]
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if name == "specfun.theta_quadrature" and has_child[i]:
            cold += 1
    op_s = next(end - start for name, start, end, parent in spans if name == ROOT)
    c = tracer.counts
    out = {}
    for name in calls.keys() | {n for _, _, n in FUNCTIONS} | {m[3] for m in METHODS}:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = busy[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.share"] = busy[name] / op_s
        out[f"{name}.self_share"] = self_s[name] / op_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["specfun.theta_quadrature.cold"] = cold
    out["solution_ops.multiplier_rows.distinct_t"] = len(tracer.distinct_t)
    out["mild_solver.sweeps"] = c["mild_solver.sweeps"]
    sweeps = calls["mild_solver.sweep"]
    out["mild_solver.sweep_s"] = busy["mild_solver.sweep"] / sweeps if sweeps else 0.0
    iterations = c["optctrl.iterations"]
    out["optctrl.iterations"] = iterations
    out["optctrl.inner_solves"] = c["optctrl.inner_solves"]
    out["optctrl.solves_per_iteration"] = (
        c["optctrl.inner_solves"] / iterations if iterations else 0.0)
    trials = c["optctrl.trial_steps"]
    out["optctrl.accepted_step_ratio"] = (
        c["optctrl.accepted_steps"] / trials if trials else 0.0)
    out["trace.op_s"] = op_s
    out["trace.self_sum_ratio"] = sum(layer_self[layer] for layer in LAYERS) / op_s
    return out

