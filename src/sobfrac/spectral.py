"""Sine eigenbasis on [0, pi] and the per-mode operator symbols.

A field is its array of coefficients (u_n)_{n=1..N} in the orthonormal
basis w_n(x) = sqrt(2/pi) sin(nx); ProblemSpec checks the two a solve
starts from.  The operators of the explicit example instance are
diagonal in that basis and are applied as per-mode multipliers; the
fractional power is taken of the negated generator, whose spectrum is
positive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_BASIS_NORM = math.sqrt(2.0 / math.pi)


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


def norm_q(u: np.ndarray, q: float) -> float:
    """Interpolation norm ||u||_q = ||(-A)^q u|| of a coefficient array."""
    return float(np.linalg.norm(q_weights(u.size, q) * u))


def collocation_grid(n_x: int) -> np.ndarray:
    """Interior nodes x_j = j pi/(n_x+1), exact for the discrete sine basis."""
    j = np.arange(1, n_x + 1)
    return j * math.pi / (n_x + 1)


# mode counts whose collocation maps one process keeps
COLLOCATION_MEMO = 8


@functools.lru_cache(maxsize=COLLOCATION_MEMO)
def collocation_maps(mode_count: int) -> tuple:
    """(D0, D1, P) on the 4N collocation nodes x, read-only and shared:
    D0 = sqrt(2/pi) sin(x n^T) evaluates the field, D1 = sqrt(2/pi)
    cos(x n^T) n its first derivative (spectral differentiation is exact),
    and P = (pi/(4N+1)) D0^T maps node values back to coefficients, exact
    for N modes by the discrete orthogonality of sin(n x_j) on the
    interior grid."""
    n = np.arange(1, mode_count + 1)
    xn = np.outer(collocation_grid(4 * mode_count), n)
    d0 = _BASIS_NORM * np.sin(xn)
    d1 = _BASIS_NORM * np.cos(xn) * n
    maps = (d0, d1, math.pi / (4 * mode_count + 1) * d0.T)
    for arr in maps:
        arr.setflags(write=False)
    return maps


def field_to_grid(u: np.ndarray) -> np.ndarray:
    """Evaluate the field with coefficients u at the 4N collocation nodes."""
    return collocation_maps(u.size)[0] @ u


def grid_to_field(values: np.ndarray, mode_count: int) -> np.ndarray:
    """Project the values at the 4N collocation nodes back to N mode
    coefficients."""
    values = np.asarray(values, dtype=float)
    if values.shape != (4 * mode_count,):
        raise DomainError(f"expected {4 * mode_count} collocation values, got {values.shape}")
    return collocation_maps(mode_count)[2] @ values


def apply_Bi(i: int, u: np.ndarray) -> np.ndarray:
    """First spatial derivative (i = 1) of the field with coefficients u on
    the collocation grid, from the shared D1 of collocation_maps; the
    nonlinearity reads no other order, so every other i is refused."""
    if i != 1:
        raise DomainError(f"derivative order {i} is not 1, the one order the nonlinearity reads")
    return collocation_maps(u.size)[1] @ u


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

    C1 = max_n 1/(1+n^2) = 1/2, the n = 1 term, and C2 = N^2.
    M0 = sup_t ||Q(t)|| is 1: every symbol exp(-lambda_n t) lies in
    (0, 1] for t >= 0 and equals 1 at t = 0.  Mq = (q/e)^q: every mode attains
    sup_t t^q lambda_n^q exp(-lambda_n t) = (q/e)^q, at t = q/lambda_n.
    """
    if mode_count < 1:
        raise DomainError(f"mode_count must be >= 1, got {mode_count}")
    return BoundConstants(C1=0.5, C2=float(mode_count * mode_count), M0=1.0,
                          Mq=q ** q * math.exp(-q), q=q)
