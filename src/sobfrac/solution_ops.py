"""Mild-solution operators as per-mode multipliers from a closed-form psi rule.

For each mode n with generator symbol -lambda_n = -n^2/(1+n^2), the two
operators reduce to scalar multipliers

    s(t, n) = E_a(-lambda_n t^a) / (1+n^2)
    t(t, n) = E_{a,a}(-lambda_n t^a) / (1+n^2).

The paper writes them as theta-integrals of the Mainardi density against
the semigroup; specfun.theta_quadrature keeps that form as the oracle.
The solver evaluates them from the real-line form of the Mittag-Leffler
function instead (Gorenflo, Kilbas, Mainardi and Rogosin, Mittag-Leffler
Functions, 2014):

    E_a(-x) = 1/(a pi) int_0^{a pi} exp(-x^(1/a) g(psi)) dpsi,
    g(psi) = (sin(a pi - psi) / sin(psi))^(1/a),

and E_{a,a}(-x) = -a dE_a(-x)/dx.  With tau = lambda^(1/a) t a fixed psi
rule (nodes g_k, weights w_k that sum to 1) gives

    s = L^-1 sum_k w_k exp(-tau g_k),
    t = L^-1 tau^(1-a) sum_k w_k g_k exp(-tau g_k).

The nodes and weights are elementary functions of alpha; no density or
series enters.  At alpha = 1 the multipliers come straight from the
semigroup, and at t = 0 from their closed forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DomainError
from .fracops import FracOrder, TimeGrid, gamma
from .spectral import generator_symbol, l_inverse_symbol

_DEFAULT_NODES = 200

# Times the psi rule serves, for every symbol 1/2 <= lambda_n < 1;
# multiplier_table and grid_table refuse t > 0 outside them.
T_WINDOW = (1e-8, 1e4)
# Largest discretization estimate a rule may carry: the gap between the
# rule and its every-other-node half, maximized over probe times across
# T_WINDOW.  The rule's own error is about the square of that gap (the
# step halves, the exponent of the error doubles): at 1e-5, near 1e-10.
HALVING_TOL = 1e-5
# Smallest alpha the default 200-node rule serves within HALVING_TOL.
ALPHA_FLOOR = 0.028
# tau g at the left end of the rule's uniform part for the smallest tau
# served: the integrands are below exp(-40) beyond it.
_EDGE_DECAY = 40.0
# Uniform part past the right-end feature of the largest tau served.
_RIGHT_MARGIN = 4.6
# Each double-exponential tail runs until alpha e^(length) reaches this,
# so the weights beyond it are below exp(-40).
_TAIL_REACH = 40.0
# log g stays below this at every node, so g is a finite double.
_LOG_G_CAP = 650.0
# Exponents -tau g below -_EXP_FLOOR are raised to it.  Those terms are
# below exp(-500) times their weights (the T weights stay below exp(50)),
# so no row moves by a representable amount at the scale of its entries,
# while exp, which is many times slower on arguments whose result
# underflows, and the products after it stay in the normal range.
_EXP_FLOOR = 500.0
_PROBES = 40


@dataclass(frozen=True)
class PsiRule:
    """Nodes g_k and weights of the psi rule for one alpha < 1.

    rows(tau) gives E_a(-tau^a) = sum_k weights_k exp(-tau g_k) and
    E_{a,a}(-tau^a) = tau^(1-a) sum_k t_weights_k exp(-tau g_k) for
    tau = lambda^(1/a) t with 1/2 <= lambda <= 1 and t in T_WINDOW.
    t_weights_k = weights_k g_k, except on the left double-exponential
    tail, where it is 0: there tau g_k > e * _EDGE_DECAY for every tau
    served, so tau g_k exp(-tau g_k) < exp(-100).
    step is the node spacing in the rule's variable and halving_defect
    the discretization estimate that construction checks against
    HALVING_TOL.
    """

    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    t_weights: np.ndarray
    step: float
    halving_defect: float

    def rows(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(E_a(-tau^a), E_{a,a}(-tau^a)) over an array of tau > 0."""
        return _rule_rows(self.alpha, _exp_block(self.nodes, tau), self.weights,
                          self.t_weights, tau)

    def summary(self) -> dict:
        return {"kind": "psi", "nodes": int(self.nodes.size), "step": self.step,
                "halving_defect": self.halving_defect,
                "t_window": list(T_WINDOW)}


def _exp_block(nodes, tau):
    """exp(-tau g_k), its exponents raised to -_EXP_FLOOR."""
    expo = tau[..., None] * -nodes
    np.maximum(expo, -_EXP_FLOOR, out=expo)
    np.exp(expo, out=expo)
    return expo


def _rule_rows(alpha, expo, weights, t_weights, tau):
    # one exp block shared by both sums
    return expo @ weights, tau ** (1.0 - alpha) * (expo @ t_weights)


@functools.lru_cache(maxsize=256)
def psi_rule(alpha: float, node_count: int = _DEFAULT_NODES) -> PsiRule:
    """The psi rule with node_count nodes, built from elementary functions.

    psi = a pi sigma(a u) with sigma the logistic function, so both ends
    of (0, a pi) are uniform in log psi and log(a pi - psi); there
    log g = -u + (log sinc(a pi - psi) - log sinc(psi)) / a, and the
    integrands are exp(-tau e^(-u)) up to a shift: doubly exponential in
    u, analytic in a strip of half-width pi/2 whatever alpha.  The
    trapezoid rule in s with u = s - e^(s_L - s) + e^(s - s_R) is uniform
    on [s_L, s_R], which holds every feature of the served taus, and
    double-exponential beyond, where only the weights' tails remain.
    Refuses with ConstructionError when the halving estimate exceeds
    HALVING_TOL: below ALPHA_FLOOR at 200 nodes, or at too few nodes.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"psi_rule requires 0 < alpha < 1, got {alpha}")
    if node_count < 16:
        raise DomainError(f"node_count must be at least 16, got {node_count}")
    # far below the floor g overflows; the halving gate then refuses
    with np.errstate(over="ignore", invalid="ignore"):
        a_pi = alpha * math.pi
        # 1 - alpha is exact for alpha >= 1/2, so sin(a pi) keeps its digits
        # as alpha nears 1
        sin_a_pi = math.sin(math.pi * min(alpha, 1.0 - alpha))
        # log g runs from -u - shift (psi -> 0) to -u + shift (psi -> a pi)
        shift = math.log(a_pi / sin_a_pi) / alpha
        log_tau_lo = math.log(T_WINDOW[0]) - math.log(2.0) / alpha
        log_tau_hi = math.log(T_WINDOW[1])
        s_left = log_tau_lo - math.log(_EDGE_DECAY) - shift
        s_right = log_tau_hi + shift + _RIGHT_MARGIN
        left_tail = min(math.log(_TAIL_REACH / alpha),
                        math.log(max(_LOG_G_CAP + s_left + shift, math.e)))
        right_tail = math.log(_TAIL_REACH / alpha)
        s0 = s_left - left_tail
        step = (s_right + right_tail - s0) / (node_count - 1)
        s = s0 + step * np.arange(node_count)
        left, right = np.exp(s_left - s), np.exp(s - s_right)
        au = alpha * (s - left + right)
        sig_hi = 1.0 / (1.0 + np.exp(-au))   # psi / (a pi)
        sig_lo = 1.0 / (1.0 + np.exp(au))    # (a pi - psi) / (a pi)
        psi, eps = a_pi * sig_hi, a_pi * sig_lo
        # sin of an angle past pi/2 through its supplement: pi - psi =
        # (1 - alpha) pi + eps carries no cancellation
        sin_psi = np.sin(np.where(psi <= 0.5 * math.pi, psi, (1.0 - alpha) * math.pi + eps))
        sin_eps = np.sin(np.where(eps <= 0.5 * math.pi, eps, (1.0 - alpha) * math.pi + psi))
        log_g = -au / alpha + (np.log(sin_eps / eps) - np.log(sin_psi / psi)) / alpha
        nodes = np.exp(log_g)
        weights = step * alpha * sig_hi * sig_lo * (1.0 + left + right)
        t_weights = np.where(s < s_left, 0.0, weights * nodes)

        probes = np.exp(np.linspace(log_tau_lo, log_tau_hi, _PROBES))
        expo = _exp_block(nodes, probes)
        full = _rule_rows(alpha, expo, weights, t_weights, probes)
        # the half rule's block is the full block's even columns, made
        # contiguous so that its products run as the full block's do
        half = _rule_rows(alpha, np.ascontiguousarray(expo[:, ::2]), 2.0 * weights[::2],
                          2.0 * t_weights[::2], probes)
        halving = float(max(np.max(np.abs(f - h)) for f, h in zip(full, half)))
    for arr in (nodes, weights, t_weights):
        arr.setflags(write=False)
    if not halving <= HALVING_TOL:
        raise ConstructionError(
            f"psi rule halving defect {halving:.3e} exceeds {HALVING_TOL:g} at "
            f"alpha={alpha}, node_count={node_count}; the {_DEFAULT_NODES}-node "
            f"rule serves alpha >= {ALPHA_FLOOR}")
    return PsiRule(alpha, nodes, weights, t_weights, float(step), halving)


@dataclass
class SolutionOperatorCache:
    """Per-(time, mode) multipliers for the two solution operators.

    Holds the psi rule (psi_rule(alpha, node_count); None at alpha = 1)
    and the per-mode symbols; multiplier_table evaluates the S and T rows
    at any set of times from them, one time at a time, and grid_table the
    S rows at the nodes of a uniform grid, one matrix product per mode.
    """

    order: FracOrder
    mode_count: int
    node_count: int = _DEFAULT_NODES
    rule: PsiRule | None = field(init=False)
    _lam: np.ndarray = field(init=False, repr=False)
    _linv: np.ndarray = field(init=False, repr=False)
    _rate: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode_count < 1:
            raise DomainError(f"mode_count must be >= 1, got {self.mode_count}")
        alpha = self.order.alpha
        self._lam = generator_symbol(self.mode_count)
        self._linv = l_inverse_symbol(self.mode_count)
        # tau = lambda^(1/alpha) t
        self._rate = self._lam ** (1.0 / alpha)
        # the semigroup itself at alpha = 1: no psi integration
        self.rule = psi_rule(alpha, self.node_count) if alpha < 1.0 else None

    def multiplier_table(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """(s_table, t_table), one row over all modes per time in ts."""
        ts = [float(t) for t in ts]
        if any(t < 0.0 for t in ts):
            raise DomainError(f"t must be nonnegative, got {min(ts)}")
        if self.rule is None:
            s_table = self._semigroup_table(np.array(ts))
            return s_table, s_table.copy()
        outside = [t for t in ts if t > 0.0 and not T_WINDOW[0] <= t <= T_WINDOW[1]]
        if outside:
            raise DomainError(f"t={outside[0]} lies outside the psi rule's window "
                              f"{T_WINDOW} (and is not 0)")
        s_table = np.empty((len(ts), self.mode_count))
        t_table = np.empty((len(ts), self.mode_count))
        for m, t in enumerate(ts):
            s_rows, t_rows = self.rule.rows(t * self._rate)
            s_table[m] = self._linv * s_rows
            t_table[m] = self._linv * t_rows
        # t = 0 in closed form: S(0) = L^-1, T(0) = L^-1 / Gamma(alpha)
        zero = [m for m, t in enumerate(ts) if t == 0.0]
        s_table[zero] = self._linv
        t_table[zero] = self._linv / gamma(self.order.alpha)
        return s_table, t_table

    def grid_table(self, grid: TimeGrid) -> np.ndarray:
        """The S rows of multiplier_table(grid.nodes()), one matrix product
        per mode.

        On the grid t_m = m dt, and with m = b B + j (B = isqrt(M) + 1)
        exp(-t_m r g_k) = exp(-b B dt r g_k) exp(-j dt r g_k).  So a mode's
        column is the product of a left factor w_k exp(-b B dt r g_k) and a
        right factor exp(-j dt r g_k), raveled over (b, j).  The weights
        ride in the left exponent as log w_k, and every factor is built by
        a matrix product into a reused buffer, because numpy's
        broadcasting ufuncs allocate a buffer the size of their operand.
        Each factor's exponent is raised to -_EXP_FLOOR / 2, so products
        of factors stay normal.  Nodes with
        dt r g_k > _EXP_FLOOR are dropped: their terms are below
        w_k exp(-_EXP_FLOOR) at every t >= dt, where multiplier_table
        floors them.  Agrees with multiplier_table within 3e-15 relative.
        """
        if self.rule is None:
            return self._semigroup_table(grid.nodes())
        if grid.dt < T_WINDOW[0] or grid.horizon > T_WINDOW[1]:
            raise DomainError(f"grid dt={grid.dt}, horizon={grid.horizon} leaves the "
                              f"psi rule's window {T_WINDOW}")
        rule = self.rule
        nodes, size = rule.nodes, rule.nodes.size
        rows = grid.step_count + 1
        block = math.isqrt(grid.step_count) + 1
        blocks = -(-rows // block)
        floor = -0.5 * _EXP_FLOOR
        # exponent rows log w and -r g (per mode), against columns (1, b B dt)
        expo = np.zeros((2, size))
        np.log(rule.weights, out=expo[0])
        np.maximum(expo, floor, out=expo)
        cols = np.stack([np.ones(blocks), (block * grid.dt) * np.arange(blocks)], axis=1)
        lags = grid.dt * np.arange(block)
        # first node kept per mode: the nodes fall with k
        kept = np.count_nonzero(nodes > (_EXP_FLOOR / grid.dt) / self._rate[:, None],
                                axis=1).tolist()
        width = size - min(kept)
        left_buf = np.empty(blocks * width)
        right_buf = np.empty(width * block)
        product = np.empty((blocks, block))
        column = product.reshape(-1)[:rows]
        s_table = np.empty((rows, self.mode_count))
        for n, (rate, k0) in enumerate(zip(self._rate, kept)):
            np.multiply(nodes[k0:], -rate, out=expo[1, k0:])
            right = right_buf[:(size - k0) * block].reshape(size - k0, block)
            np.matmul(expo[1, k0:, None], lags[None, :], out=right)
            np.maximum(right, floor, out=right)
            np.exp(right, out=right)
            left = left_buf[:blocks * (size - k0)].reshape(blocks, size - k0)
            np.matmul(cols, expo[:, k0:], out=left)
            np.maximum(left, floor, out=left)
            np.exp(left, out=left)
            np.matmul(left, right, out=product)
            np.multiply(column, self._linv[n], out=s_table[:, n])
        s_table[0] = self._linv
        return s_table

    def _semigroup_table(self, ts: np.ndarray) -> np.ndarray:
        # alpha = 1: S(t) = T(t) = L^-1 exp(-lambda t), at any t >= 0
        return self._linv * np.exp(-self._lam[None, :] * ts[:, None])

    def multiplier_rows(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(s_row, t_row) over all modes at time t."""
        s_table, t_table = self.multiplier_table([t])
        return s_table[0], t_table[0]

