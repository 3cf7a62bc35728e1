"""Sine eigenbasis on [0, pi] and the per-mode operator symbols.

All fields live in the orthonormal basis w_n(x) = sqrt(2/pi) sin(nx).
The operators of the explicit example instance are diagonal in that
basis and are applied as per-mode multipliers; the fractional power is
taken of the negated generator, whose spectrum is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_BASIS_NORM = math.sqrt(2.0 / math.pi)

# highest spatial derivative order the nonlinearity may read
MAX_DERIVATIVE_ORDER = 2


@dataclass(frozen=True)
class SpectralField:
    """Coefficients (u_n)_{n=1..N} w.r.t. the orthonormal sine basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise DomainError("coeffs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise DomainError("coeffs must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def mode_count(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        """L2[0, pi] norm via Parseval."""
        return float(np.linalg.norm(self.coeffs))

    def __sub__(self, other):
        return SpectralField(self.coeffs - other.coeffs)

    @staticmethod
    def zero(mode_count: int) -> "SpectralField":
        return SpectralField(np.zeros(mode_count))

    @staticmethod
    def unit(mode_count: int, n: int) -> "SpectralField":
        """The basis field w_n."""
        c = np.zeros(mode_count)
        c[n - 1] = 1.0
        return SpectralField(c)


def generator_symbol(mode_count: int) -> np.ndarray:
    """Per-mode symbol lambda_n = n^2/(1+n^2) of -A, the negated generator.

    A = L^-1 E has symbol -n^2/(1+n^2); the semigroup Q(t) = exp(tA) has
    symbol exp(-lambda_n t).
    """
    n = np.arange(1, mode_count + 1, dtype=float)
    return n * n / (1.0 + n * n)


def l_inverse_symbol(mode_count: int) -> np.ndarray:
    """Per-mode symbol 1/(1+n^2) of L^-1, the inverse of L = 1 - d^2/dx^2."""
    n = np.arange(1, mode_count + 1, dtype=float)
    return 1.0 / (1.0 + n * n)


def data_smoothing_symbol(mode_count: int) -> np.ndarray:
    """Per-mode symbol of the L-after-M composition applied to the data.

    The inverse in the initial-data map must be the bounded compact
    smoothing operator (symbol -1/n^2); composing it with L gives
    -(1+n^2)/n^2.  Its sign keeps every nonlocal denominator
    d_n = 1 - sum c (S [smoothing] kappa)_n(t_eta) at or above 1, so the
    solver's closed-form elimination of h never divides by zero.
    """
    n = np.arange(1, mode_count + 1, dtype=float)
    return -(1.0 + n * n) / (n * n)


def q_weights(mode_count: int, q: float) -> np.ndarray:
    """Per-mode symbol lambda_n^q of (-A)^q, the weights of the q-norm."""
    return generator_symbol(mode_count) ** q


def norm_q(u: SpectralField, q: float) -> float:
    """Interpolation norm ||u||_q = ||(-A)^q u||."""
    return float(np.linalg.norm(q_weights(u.mode_count, q) * u.coeffs))


def collocation_grid(n_x: int) -> np.ndarray:
    """Interior nodes x_j = j pi/(n_x+1), exact for the discrete sine basis."""
    j = np.arange(1, n_x + 1)
    return j * math.pi / (n_x + 1)


def default_collocation_size(mode_count: int) -> int:
    return 4 * mode_count


def derivative_matrix(i: int, mode_count: int, n_x: int) -> np.ndarray:
    """(n_x, mode_count) map from sine coefficients to the i-th spatial
    derivative at the collocation nodes; i = 0 evaluates the field.

    Spectral differentiation is exact: sine modes map to cosine modes for
    odd i with multiplier n^i and alternating sign per parity.
    """
    x = collocation_grid(n_x)
    n = np.arange(1, mode_count + 1)
    phase = i % 4
    basis = np.sin(np.outer(x, n)) if phase % 2 == 0 else np.cos(np.outer(x, n))
    sign = -1.0 if phase >= 2 else 1.0
    return (sign * _BASIS_NORM) * basis * n.astype(float) ** i


def projection_matrix(mode_count: int, n_x: int) -> np.ndarray:
    """(mode_count, n_x) map from collocation values to sine coefficients.

    Uses the exact discrete orthogonality of sin(n x_j) on the interior
    grid, so fields with at most n_x modes round-trip to rounding error.
    """
    if mode_count > n_x:
        raise DomainError("mode_count exceeds collocation resolution")
    weights = math.pi / (n_x + 1)
    return weights * derivative_matrix(0, mode_count, n_x).T


def field_to_grid(u: SpectralField) -> np.ndarray:
    """Evaluate the field at the collocation nodes."""
    n_x = default_collocation_size(u.mode_count)
    return derivative_matrix(0, u.mode_count, n_x) @ u.coeffs


def grid_to_field(values: np.ndarray, mode_count: int) -> SpectralField:
    """Project collocation values back to N modes (see projection_matrix)."""
    values = np.asarray(values, dtype=float)
    return SpectralField(projection_matrix(mode_count, values.size) @ values)


def apply_Bi(i: int, u: SpectralField) -> np.ndarray:
    """i-th spatial derivative of the field on the collocation grid."""
    if not 1 <= i <= MAX_DERIVATIVE_ORDER:
        raise DomainError(f"derivative order {i} outside 1..{MAX_DERIVATIVE_ORDER}")
    n_x = default_collocation_size(u.mode_count)
    return derivative_matrix(i, u.mode_count, n_x) @ u.coeffs


@dataclass(frozen=True)
class BoundConstants:
    """The paper's operator bound constants over the retained modes."""

    C1: float       # ||L^-1||
    C2: float       # ||M_inv|| restricted to the retained modes
    M0: float       # sup_t ||Q(t)||
    Mq: float       # envelope constant for ||A^q Q(t)|| <= Mq t^-q
    q: float

    def __post_init__(self):
        for name in ("C1", "C2", "M0", "Mq"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {v}")


def measure_bounds(mode_count: int, q: float = 0.25) -> BoundConstants:
    """C1, C2, M0 and Mq over the first mode_count modes, in closed form.

    C1 = max_n 1/(1+n^2) = 1/2 and C2 = N^2.  M0 = sup_t ||Q(t)|| is 1:
    every symbol exp(-lambda_n t) lies in (0, 1] for t >= 0 and equals 1
    at t = 0.  Mq = (q/e)^q: every mode attains
    sup_t t^q lambda_n^q exp(-lambda_n t) = (q/e)^q, at t = q/lambda_n.
    """
    if mode_count < 1:
        raise DomainError(f"mode_count must be >= 1, got {mode_count}")
    return BoundConstants(C1=float(np.max(l_inverse_symbol(mode_count))),
                          C2=float(mode_count * mode_count), M0=1.0,
                          Mq=q ** q * math.exp(-q), q=q)
