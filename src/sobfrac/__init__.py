"""Mild solutions and optimal multi-integral controls for Sobolev-type
fractional evolution equations on the sine eigenbasis of [0, pi]."""

from .errors import (ConfigError, ConstructionError, DomainError,
                     EvaluationError, GridTooCoarseError, NonConvergenceError,
                     OptimizationError, PropertyFailure, RejectedInstanceError,
                     SobfracError)
from .fracops import SampledFn, TimeGrid, caputo_deriv, frac_integral, gl_deriv, rl_deriv
from .mild_solver import (Nonlinearity, ProblemSpec, SolveReport, Trajectory,
                          ZERO_NONLINEARITY, apply_P, eval_f, picard_solve,
                          sin_gradient)
from .optctrl import (ControlBundle, CostSpec, admissibility_value, cost_J,
                      hypothesis_check, optimize_controls, project_admissible,
                      random_admissible_bundle, zero_bundle)
from .solution_ops import SolutionOperatorCache, verify_operator_bounds
from .specfun import (FracOrder, QuadratureRule, gamma, mainardi_density,
                      mainardi_moment, mittag_leffler, theta_quadrature)
from .spectral import (BoundConstants, SpectralField, apply_Bi, collocation_grid,
                       field_to_grid, grid_to_field, measure_bounds, norm_q)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
