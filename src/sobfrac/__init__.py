"""Mild solutions and optimal multi-integral controls for Sobolev-type
fractional evolution equations on the sine eigenbasis of [0, pi].

The package names resolve lazily (PEP 562): `import sobfrac.cli` loads
only the solver path, not the density and Mittag-Leffler oracles of
`specfun` and `verification`.
"""

import importlib as _importlib

# public name -> the submodule that defines it
_HOMES = {name: module for module, names in {
    "errors": ("ConfigError", "ConstructionError", "DomainError", "EvaluationError",
               "NonConvergenceError", "OptimizationError", "RejectedInstanceError",
               "SobfracError"),
    "fracops": ("FracOrder", "SampledFn", "TimeGrid", "caputo_deriv", "frac_integral",
                "gamma", "gl_deriv", "rl_deriv"),
    "mild_solver": ("Nonlinearity", "ProblemSpec", "SolveReport", "Trajectory",
                    "apply_P", "eval_f", "picard_solve"),
    "optctrl": ("ControlBundle", "CostSpec", "admissibility_value", "cost_J",
                "hypothesis_check", "optimize_controls", "random_admissible_bundle",
                "zero_bundle"),
    "solution_ops": ("SolutionOperatorCache",),
    "specfun": ("QuadratureRule", "mainardi_density", "mainardi_moment",
                "mittag_leffler", "theta_quadrature"),
    "spectral": ("BoundConstants", "apply_Bi", "collocation_grid",
                 "field_to_grid", "grid_to_field", "measure_bounds", "norm_q"),
}.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
