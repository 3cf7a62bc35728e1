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

from .errors import ConstructionError, DomainError, PropertyFailure
from .spectral import generator_symbol, l_inverse_symbol, measure_bounds, q_weights
from .specfun import FracOrder, gamma

_DEFAULT_NODES = 200
# times per exp block of multiplier_table; larger blocks raise peak memory
_TABLE_BLOCK = 4

# Times the psi rule serves, for every symbol 1/2 <= lambda_n < 1;
# multiplier_table refuses t > 0 outside them.
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
    step is the node spacing in the rule's variable, weight_sum_defect
    is |sum_k weights_k - 1| and halving_defect the discretization
    estimate that construction checks against HALVING_TOL.
    """

    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    t_weights: np.ndarray
    step: float
    weight_sum_defect: float
    halving_defect: float

    def rows(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(E_a(-tau^a), E_{a,a}(-tau^a)) over an array of tau > 0."""
        return _rule_rows(self.alpha, self.nodes, self.weights, self.t_weights, tau)

    def summary(self) -> dict:
        return {"kind": "psi", "nodes": int(self.nodes.size), "step": self.step,
                "weight_sum_defect": self.weight_sum_defect,
                "halving_defect": self.halving_defect,
                "t_window": list(T_WINDOW)}


def _rule_rows(alpha, nodes, weights, t_weights, tau):
    # one exp block shared by both sums
    expo = tau[..., None] * -nodes
    np.maximum(expo, -_EXP_FLOOR, out=expo)
    np.exp(expo, out=expo)
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
        full = _rule_rows(alpha, nodes, weights, t_weights, probes)
        half = _rule_rows(alpha, nodes[::2], 2.0 * weights[::2], 2.0 * t_weights[::2], probes)
        halving = float(max(np.max(np.abs(f - h)) for f, h in zip(full, half)))
    for arr in (nodes, weights, t_weights):
        arr.setflags(write=False)
    if not halving <= HALVING_TOL:
        raise ConstructionError(
            f"psi rule halving defect {halving:.3e} exceeds {HALVING_TOL:g} at "
            f"alpha={alpha}, node_count={node_count}; the {_DEFAULT_NODES}-node "
            f"rule serves alpha >= {ALPHA_FLOOR}", achieved_defect=halving)
    return PsiRule(alpha, nodes, weights, t_weights, float(step),
                   abs(float(np.sum(weights)) - 1.0), halving)


@dataclass
class SolutionOperatorCache:
    """Per-(time, mode) multipliers for the two solution operators.

    Holds the psi rule (psi_rule(alpha, node_count); None at alpha = 1)
    and the per-mode symbols; multiplier_table evaluates the rows at any
    set of times from them.
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

    def rule_summary(self) -> dict:
        """Node count and construction defects of the multiplier rule."""
        if self.rule is None:
            return {"kind": "semigroup", "nodes": 0}
        return self.rule.summary()

    def multiplier_table(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """(s_table, t_table), one row over all modes per time in ts."""
        ts = [float(t) for t in ts]
        if any(t < 0.0 for t in ts):
            raise DomainError(f"t must be nonnegative, got {min(ts)}")
        alpha = self.order.alpha
        if alpha >= 1.0:
            decay = np.exp(-self._lam[None, :] * np.array(ts)[:, None])
            return self._linv * decay, self._linv * decay
        outside = [t for t in ts if t > 0.0 and not T_WINDOW[0] <= t <= T_WINDOW[1]]
        if outside:
            raise DomainError(f"t={outside[0]} lies outside the psi rule's window "
                              f"{T_WINDOW} (and is not 0)")
        s_table = np.empty((len(ts), self.mode_count))
        t_table = np.empty((len(ts), self.mode_count))
        for start in range(0, len(ts), _TABLE_BLOCK):
            block = slice(start, start + _TABLE_BLOCK)
            s_rows, t_rows = self.rule.rows(np.array(ts[block])[:, None] * self._rate)
            s_table[block] = self._linv * s_rows
            t_table[block] = self._linv * t_rows
        # t = 0 in closed form: S(0) = L^-1, T(0) = L^-1 / Gamma(alpha)
        zero = [m for m, t in enumerate(ts) if t == 0.0]
        s_table[zero] = self._linv
        t_table[zero] = self._linv / gamma(alpha)
        return s_table, t_table

    def multiplier_rows(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(s_row, t_row) over all modes at time t."""
        s_table, t_table = self.multiplier_table([t])
        return s_table[0], t_table[0]


def verify_operator_bounds(cache: SolutionOperatorCache, t_samples,
                           raise_on_failure: bool = True) -> dict:
    """Check of the boundedness/continuity/envelope claims on the table.

    (a) ||S(t)|| <= C1 M0 and ||T(t)|| <= C1 M0 / Gamma(alpha) at every
        sampled t, exactly: each operator is diagonal, so its norm is its
        largest |multiplier|.  The paper's clause (e), the same bounds in
        the q-norm, follows from (a): the q-weights commute with the
        diagonal operators, so both norms of each operator agree;
    (b) multiplier continuity in t against the exact Lipschitz envelope
        lambda_n |t2^a - t1^a| / (Gamma(1+a) (1+n^2));
    (d) ||A^q T(t)|| t^(q a) stays below a C1 Mq Gamma(2-q)/Gamma(1+a(1-q))
        with the closed-form Mq = (q/e)^q.

    Returns a report with each clause's worst ratio and the cap it must
    stay within (1, or 1 + 1e-9 where the bound is attained); raises
    PropertyFailure on the first violated clause unless told not to.
    """
    t_samples = sorted(float(t) for t in t_samples)
    if not t_samples:
        raise DomainError("t_samples must be nonempty")
    alpha = cache.order.alpha
    q = cache.order.q
    n_modes = cache.mode_count
    bounds = measure_bounds(n_modes, q=q)
    slack = 1.0 + 1e-9

    report = {"C1": bounds.C1, "M0": bounds.M0, "Mq": bounds.Mq, "q": q,
              "clauses": {}}

    # S and T rows at every sampled time, shared by clauses (a) and (b)
    s_table, t_table = cache.multiplier_table(t_samples)

    # (a) boundedness, in the plain norm and so in the q-norm
    s_cap = bounds.C1 * bounds.M0
    t_cap = bounds.C1 * bounds.M0 / gamma(alpha)
    worst_a = max(np.max(np.abs(s_table)) / s_cap, np.max(np.abs(t_table)) / t_cap)
    report["clauses"]["a_bounded"] = _clause(worst_a, slack)

    # (b) strong continuity via the Mittag-Leffler Lipschitz envelope,
    # between consecutive sampled times
    steps = np.abs(np.diff(np.array(t_samples) ** alpha))[:, None]
    envelope = cache._lam * steps / gamma(1.0 + alpha) * cache._linv
    gap = np.abs(np.diff(s_table, axis=0))
    worst_b = np.max(gap / (envelope * 1.05 + 1e-8), initial=0.0)
    jumps = np.flatnonzero(~np.all(np.abs(np.diff(t_table, axis=0)) < 1.0, axis=1))
    if jumps.size:
        raise PropertyFailure("T multiplier jump", clause="b", t=t_samples[jumps[0] + 1])
    report["clauses"]["b_continuity"] = _clause(worst_b, 1.0)

    # (d) the t^{-q alpha} envelope for ||A^q T(t)||
    cap_d = (alpha * bounds.C1 * bounds.Mq * gamma(2.0 - q)
             / gamma(1.0 + alpha * (1.0 - q)))
    weights = q_weights(n_modes, q)
    worst_d = 0.0
    ts = np.geomspace(1e-3, max(t_samples) if max(t_samples) > 0 else 1.0, 40)
    for t, t_row in zip(ts, cache.multiplier_table(ts)[1]):
        measured = float(np.max(weights * t_row)) * t ** (q * alpha)
        worst_d = max(worst_d, measured / cap_d)
    report["clauses"]["d_envelope"] = _clause(worst_d, slack)

    report["passed"] = all(c["passed"] for c in report["clauses"].values())
    if raise_on_failure and not report["passed"]:
        bad = [k for k, c in report["clauses"].items() if not c["passed"]]
        raise PropertyFailure(f"operator bound clauses failed: {bad}",
                              clause=",".join(bad), report=report)
    return report


def _clause(worst, cap) -> dict:
    return {"worst_ratio": float(worst), "cap": float(cap), "passed": bool(worst <= cap)}
