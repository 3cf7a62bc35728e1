"""Exception types shared across the package, and the one check of the
array every record holds."""

import numpy as np


class SobfracError(Exception):
    """Base class for all package errors."""


class DomainError(SobfracError, ValueError):
    """An argument lies outside the documented domain."""


def frozen_array(values, shape: tuple, what: str, finite: bool = True) -> np.ndarray:
    """A read-only float copy of values, in C order.  shape gives each
    axis's length, a str entry naming an axis of any length.  Raises
    DomainError on another shape, and on a non-finite entry unless
    finite is False.  The frozen records that hold one are declared
    eq=False, so they compare and hash by identity, not by an elementwise
    == with no single truth value."""
    array = np.array(values, dtype=float, order="C")
    if array.ndim != len(shape) or any(
            not isinstance(want, str) and n != want for n, want in zip(array.shape, shape)):
        raise DomainError(f"{what} must have shape ({', '.join(map(str, shape))}), "
                          f"got {array.shape}")
    if finite and not np.isfinite(array).all():
        raise DomainError(f"{what} must be finite")
    array.setflags(write=False)
    return array


class EvaluationError(SobfracError, RuntimeError):
    """A series or iteration failed to meet its tolerance within budget."""


class ConstructionError(SobfracError):
    """A quadrature rule could not reach its tolerance at the requested size."""


class NonConvergenceError(SobfracError):
    """Picard iteration exhausted its budget without meeting the tolerance."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class RejectedInstanceError(DomainError):
    """A problem instance violates the exponent preconditions of the solver."""


class OptimizationError(SobfracError):
    """The control optimizer hit an unrecoverable inner-solve failure."""


class ConfigError(SobfracError):
    """A run configuration file failed to parse or validate."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
