"""Mild-solution operators realized as theta-quadratures per spectral mode.

For each mode n with generator symbol -lambda_n = -n^2/(1+n^2), the two
operators reduce to scalar multipliers

    s(t, n) = 1/(1+n^2) * int zeta_a(th) exp(-lambda_n t^a th) dth
    t(t, n) = a/(1+n^2) * int th zeta_a(th) exp(-lambda_n t^a th) dth

which a Mittag-Leffler series evaluates independently (E_a and E_{a,a}
of -lambda_n t^a, divided by 1+n^2).  At alpha = 1 the density collapses
to a Dirac delta and the multipliers come straight from the semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PropertyFailure
from .spectral import generator_symbol, l_inverse_symbol, measure_bounds, q_weights
from .specfun import FracOrder, QuadratureRule, gamma, theta_quadrature

_DEFAULT_NODES = 200
# times per exp block of multiplier_table; larger blocks raise peak memory
_TABLE_BLOCK = 4


@dataclass
class SolutionOperatorCache:
    """Per-(time, mode) multipliers for the two solution operators.

    Holds the theta rule (theta_quadrature(alpha, node_count); None at
    alpha = 1) and the per-mode symbols; multiplier_table evaluates the
    rows at any set of times from them.
    """

    order: FracOrder
    mode_count: int
    node_count: int = _DEFAULT_NODES
    rule: QuadratureRule | None = field(init=False)
    _lam: np.ndarray = field(init=False, repr=False)
    _linv: np.ndarray = field(init=False, repr=False)
    _wz: np.ndarray = field(init=False, repr=False)
    _wzt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode_count < 1:
            raise DomainError(f"mode_count must be >= 1, got {self.mode_count}")
        alpha = self.order.alpha
        self._lam = generator_symbol(self.mode_count)
        self._linv = l_inverse_symbol(self.mode_count)
        if alpha < 1.0:
            self.rule = theta_quadrature(alpha, self.node_count)
            wz = self.rule.weights * self.rule.density_values
            self._wz = wz
            self._wzt = wz * self.rule.nodes
        else:
            # delta limit: theta integration is bypassed entirely
            self.rule = None
            self._wz = np.empty(0)
            self._wzt = np.empty(0)

    def multiplier_table(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """(s_table, t_table), one row over all modes per time in ts."""
        ts = [float(t) for t in ts]
        if any(t < 0.0 for t in ts):
            raise DomainError(f"t must be nonnegative, got {min(ts)}")
        alpha = self.order.alpha
        if alpha >= 1.0:
            decay = np.exp(-self._lam[None, :] * np.array(ts)[:, None])
            return self._linv * decay, self._linv * decay
        s_table = np.empty((len(ts), self.mode_count))
        t_table = np.empty((len(ts), self.mode_count))
        nodes = self.rule.nodes
        for start in range(0, len(ts), _TABLE_BLOCK):
            block = slice(start, start + _TABLE_BLOCK)
            # t ** alpha as a Python float: numpy's array power can differ
            # from it in the last bit
            scaled = self._lam[None, :] * np.array([t ** alpha for t in ts[block]])[:, None]
            expo = np.exp(-scaled[:, :, None] * nodes)
            s_table[block] = self._linv * (expo @ self._wz)
            t_table[block] = alpha * self._linv * (expo @ self._wzt)
        return s_table, t_table

    def multiplier_rows(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(s_row, t_row) over all modes at time t."""
        s_table, t_table = self.multiplier_table([t])
        return s_table[0], t_table[0]


def verify_operator_bounds(cache: SolutionOperatorCache, t_samples, trials: int = 200,
                        seed: int = 0, raise_on_failure: bool = True) -> dict:
    """Empirical check of the boundedness/continuity/envelope claims.

    (a) ||S u|| <= C1 M0 ||u|| and ||T u|| <= C1 M0 / Gamma(alpha) ||u||
        on random fields, plus the same bounds in the q-norm;
    (b) multiplier continuity in t against the exact Lipschitz envelope
        lambda_n |t2^a - t1^a| / (Gamma(1+a) (1+n^2));
    (d) ||A^q T(t)|| t^(q a) stays below a C1 Mq Gamma(2-q)/Gamma(1+a(1-q))
        with the measured Mq.

    Returns a report with worst-case margins per clause; raises
    PropertyFailure on the first violated clause unless told not to.
    """
    t_samples = sorted(float(t) for t in t_samples)
    if not t_samples:
        raise DomainError("t_samples must be nonempty")
    alpha = cache.order.alpha
    q = cache.order.q
    n_modes = cache.mode_count
    bounds = measure_bounds(max(n_modes, 4), [t for t in t_samples if t > 0] or [1.0], q=q)
    rng = np.random.default_rng(seed)
    slack = 1.0 + 1e-9

    report = {"C1": bounds.C1, "M0": bounds.M0, "Mq": bounds.Mq, "q": q,
              "clauses": {}}

    # S and T rows at every sampled time, shared by clauses (a), (e) and (b)
    s_table, t_table = cache.multiplier_table(t_samples)

    # (a) boundedness
    s_cap = bounds.C1 * bounds.M0
    t_cap = bounds.C1 * bounds.M0 / gamma(alpha)
    per_t = max(1, trials // max(1, len(t_samples)))
    worst_a = 0.0
    for s_row, t_row in zip(s_table, t_table):
        for u in rng.standard_normal((per_t, n_modes)):
            nu = np.linalg.norm(u)
            worst_a = max(worst_a,
                          np.linalg.norm(s_row * u) / (s_cap * nu),
                          np.linalg.norm(t_row * u) / (t_cap * nu))
    report["clauses"]["a_bounded"] = _clause(worst_a, slack)

    # (e) same bounds in the q-norm: multipliers are diagonal, so the
    # scaled coefficients obey the identical per-mode inequality
    weights = q_weights(n_modes, q)
    stride = max(1, len(t_samples) // 4)
    worst_e = 0.0
    for s_row, t_row in zip(s_table[::stride], t_table[::stride]):
        u = rng.standard_normal(n_modes)
        nq = np.linalg.norm(weights * u)
        worst_e = max(worst_e,
                      np.linalg.norm(weights * (s_row * u)) / (s_cap * nq),
                      np.linalg.norm(weights * (t_row * u)) / (t_cap * nq))
    report["clauses"]["e_bounded_q"] = _clause(worst_e, slack)

    # (b) strong continuity via the Mittag-Leffler Lipschitz envelope
    worst_b = 0.0
    lam = cache._lam
    linv = cache._linv
    for i in range(1, len(t_samples)):
        t1, t2 = t_samples[i - 1], t_samples[i]
        envelope = lam * abs(t2 ** alpha - t1 ** alpha) / gamma(1.0 + alpha) * linv
        gap = np.abs(s_table[i] - s_table[i - 1])
        ratio = float(np.max(gap / (envelope * 1.05 + 1e-8)))
        worst_b = max(worst_b, ratio)
        if not np.all(np.abs(t_table[i] - t_table[i - 1]) < 1.0):
            raise PropertyFailure("T multiplier jump", clause="b", t=t2)
    report["clauses"]["b_continuity"] = _clause(worst_b, 1.0)

    # (d) the t^{-q alpha} envelope for ||A^q T(t)||
    cap_d = (alpha * bounds.C1 * bounds.Mq * gamma(2.0 - q)
             / gamma(1.0 + alpha * (1.0 - q)))
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
    return {"worst_ratio": float(worst), "passed": bool(worst <= cap)}
