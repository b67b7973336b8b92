"""Weighted secrecy sum-rate maximization under a total power budget.

The optimizer works on the downlink covariances directly.  Users are first
relabeled so that position k encodes user pi_k; everything below then runs
in position space with ascending indices; the relabelling also checks that
every incoming plan is a downlink plan of the right shape.

Structure:

* a price search bisects the power price ``lam`` over ``[LAMBDA_LO,
  LAMBDA_HI]``; each price evaluation is one :class:`_Eval` record, and the
  search stops at the first record that passes the budget rule,
* at fixed ``lam`` the penalized objective (weighted secrecy sum minus
  ``lam`` times the power excess) is maximized by cyclic block updates; a
  sweep computes the weighted sum once and derives the objective from it,
* each block update maximizes a concave surrogate: the block's concave part
  of the objective plus the tangent plane of its convex part, over the PSD
  cone, by projected gradient ascent with a backtracking line search.

The budget rule: a record passes when its power is at most
``(1 + BUDGET_SLACK) P`` and either within ``lambda_tol * P`` of the budget
or reached at the bottom price ``LAMBDA_LO``, where the budget is slack.
The solve returns the highest-WSR record within the slack (the lowest-power
one if none is) and labels that record: ``max_iters`` if its sweeps hit the
cap, ``converged`` if it passes the rule, ``stalled`` otherwise.

The surrogate is a global lower bound of the block objective that is tight
at the expansion point, so no accepted block step lowers the true penalized
objective; the test suite asserts this rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .channel import ChannelSet, WeightVector
from .errors import DimensionMismatch, InnerNotImproved
from .linalg import herm, hermitize, inv_i_plus, logdet_i_plus, project_psd
from .rates import (BC, CovariancePlan, EncodingOrder, RatePoint, by_position,
                    by_user, dpc_rates_arrays, dpc_secrecy_rates, random_plan,
                    suffix_sums)

CONVERGED = "converged"
MAX_ITERS = "max_iters"
STALLED = "stalled"

# absolute price bracket, and the opening step of each block's projected ascent
LAMBDA_LO = 1e-6
LAMBDA_HI = 1e3
INNER_STEP_INIT = 1.0
# share of the budget a plan's power may exceed it by and still count as feasible
BUDGET_SLACK = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps; defaults are sized for desk-scale runs."""

    max_outer_iters: int = 2000
    objective_tol: float = 1e-8
    lambda_tol: float = 1e-6
    inner_max_iters: int = 500

    def __post_init__(self):
        if not (self.objective_tol > 0 and self.lambda_tol > 0):
            raise ValueError("tolerances must be positive")
        for name in ("max_outer_iters", "inner_max_iters"):
            cap = getattr(self, name)
            if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {cap!r}")


@dataclass(frozen=True)
class SolverReport:
    """Solve outcome: final downlink plan plus convergence diagnostics."""

    plan: CovariancePlan
    rates: RatePoint
    objective_trace: tuple[float, ...]
    lambda_trace: tuple[float, ...]
    lambda_final: float
    outer_iters: int
    termination: str


class _Problem:
    """Channels, weights and budget relabeled into position space."""

    __slots__ = ("ch", "order", "H", "G", "w", "P", "K", "n_t", "idx")

    def __init__(self, ch: ChannelSet, order: EncodingOrder, w: WeightVector):
        if len(order) != ch.num_users or len(w) != ch.num_users:
            raise DimensionMismatch(
                f"channels ({ch.num_users}), order ({len(order)}) and weights "
                f"({len(w)}) disagree on the user count")
        self.ch, self.order = ch, order
        self.idx = order.zero_based
        self.H = [ch.user_channels[u] for u in self.idx]
        self.G = ch.eavesdropper
        self.w = w.as_array()[self.idx]
        self.P = ch.power
        self.K = ch.num_users
        self.n_t = ch.n_t

    def blocks(self, plan: Optional[CovariancePlan]) -> list[np.ndarray]:
        """A downlink plan's covariances by position; None: P/(K n_t) I each."""
        if plan is None:
            scale = self.P / (self.K * self.n_t)
            return [scale * np.eye(self.n_t, dtype=complex) for _ in range(self.K)]
        return [np.array(q) for q in by_position(self.ch, self.order, plan, BC)[2]]


def _total_trace(Q: Sequence[np.ndarray]) -> float:
    return float(sum(np.trace(q).real for q in Q))


def _wsr(prob: _Problem, Q: Sequence[np.ndarray]) -> float:
    return float(prob.w @ dpc_rates_arrays(prob.H, prob.G, Q))


def _lagrangian(prob: _Problem, Q: Sequence[np.ndarray], lam: float) -> float:
    return _wsr(prob, Q) - lam * (_total_trace(Q) - prob.P)


def _concave_part(prob: _Problem, Q: Sequence[np.ndarray], suf: Sequence[np.ndarray],
                  lam: float, k: int):
    """(value, gradient) in block k's covariance x, other blocks fixed, of
    w_k logdet(I + H_k (S_{k+1} + x) H_k^H)
    + sum_{j<k} w_j logdet(I + G (S_{j+1} - Q_k + x) G^H) - lam tr(x),
    with S_j = ``suf[j]`` the suffix sums of the current blocks."""
    H, G, w = prob.H, prob.G, prob.w
    hk, hkh = H[k], herm(H[k])
    gh = herm(G)
    base_user = hk @ suf[k + 1] @ hkh
    base_eve = [G @ (suf[j + 1] - Q[k]) @ gh for j in range(k)]
    lam_eye = lam * np.eye(prob.n_t)

    def value(x):
        v = w[k] * logdet_i_plus(base_user + hk @ x @ hkh)
        for j in range(k):
            v += w[j] * logdet_i_plus(base_eve[j] + G @ x @ gh)
        v -= lam * float(np.trace(x).real)
        return v

    def gradient(x):
        g = w[k] * (hkh @ inv_i_plus(base_user + hk @ x @ hkh) @ hk)
        for j in range(k):
            g = g + w[j] * (gh @ inv_i_plus(base_eve[j] + G @ x @ gh) @ G)
        return g - lam_eye

    return value, gradient


def _split(prob: _Problem, Q: Sequence[np.ndarray], lam: float, k: int
           ) -> tuple[float, float]:
    """(concave, convex) block decomposition of the penalized objective: the
    concave part at Q[k] less its constant w_k logdet(I + H_k S_{k+1} H_k^H)."""
    suf, hk = suffix_sums(Q), prob.H[k]
    ccv = (_concave_part(prob, Q, suf, lam, k)[0](Q[k])
           - prob.w[k] * logdet_i_plus(hk @ suf[k + 1] @ herm(hk)))
    return float(ccv), float(_lagrangian(prob, Q, lam) - ccv)


def _grad_cvx(prob: _Problem, suf: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Gradient of the convex block part with respect to the k-th covariance.

    Only the terms whose interference sums contain position k survive:
    the block's own eavesdropper term and, for every earlier position j < k,
    the user log-ratio and the leading eavesdropper log of position j.
    """
    H, G, w = prob.H, prob.G, prob.w
    gh = herm(G)
    A = -w[k] * (gh @ inv_i_plus(G @ suf[k] @ gh) @ G)
    for j in range(k):
        hj, hjh = H[j], herm(H[j])
        A = A + w[j] * (hjh @ inv_i_plus(hj @ suf[j] @ hjh) @ hj
                        - hjh @ inv_i_plus(hj @ suf[j + 1] @ hjh) @ hj)
        A = A - w[j] * (gh @ inv_i_plus(G @ suf[j] @ gh) @ G)
    return hermitize(A)


def _block_update(prob: _Problem, Q: list[np.ndarray], lam: float, k: int,
                  cfg: SolverConfig, step: float) -> tuple[np.ndarray, float]:
    """Maximize the block surrogate (concave part plus the convex part's
    tangent at Q[k]) over PSD matrices by projected ascent.

    Returns the new block and the last successful step size (reused as the
    next call's opening step).  Never returns a block with a lower surrogate
    value than the incoming one.
    """
    suf = suffix_sums(Q)
    A = _grad_cvx(prob, suf, k)
    ccv_value, ccv_gradient = _concave_part(prob, Q, suf, lam, k)
    q0 = Q[k]

    def value(x):
        return ccv_value(x) + float(np.real(np.trace(A @ (x - q0))))

    def gradient(x):
        return hermitize(ccv_gradient(x) + A)

    x = q0
    u = value(x)
    g = gradient(x)
    ftol = max(1e-16, 1e-2 * cfg.objective_tol)
    scale_tol = 1e-12 * (1.0 + float(np.linalg.norm(x)))
    flat_steps = 0
    for _ in range(cfg.inner_max_iters):
        t = step
        accepted = False
        while t >= 1e-14:
            xn = project_psd(x + t * g)
            d = xn - x
            dn = float(np.linalg.norm(d))
            if dn <= scale_tol:
                break  # projection is a fixed point at this step size
            lin = float(np.real(np.trace(g @ d)))
            un = value(xn)
            if un >= u + 1e-4 * lin:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            mapping = float(np.linalg.norm(project_psd(x + g) - x))
            if mapping > 1e-6:
                raise InnerNotImproved(
                    f"no ascent found for block {k + 1} despite gradient mapping "
                    f"norm {mapping:.3e}")
            return x, step
        flat_steps = flat_steps + 1 if un - u <= ftol * (1.0 + abs(u)) else 0
        x, u = xn, un
        g = gradient(x)
        step = min(t * 2.0, 1e6)
        scale_tol = 1e-12 * (1.0 + float(np.linalg.norm(x)))
        if dn <= 1e-10 * (1.0 + float(np.linalg.norm(x))) or flat_steps >= 2:
            break
    return x, step


@dataclass(frozen=True)
class _Eval:
    """One run of block sweeps at price ``lam``: the plan it settled on, that
    plan's power and weighted sum, and the weighted-sum and objective traces."""

    lam: float
    Q: list
    power: float
    wsr: float
    hit_cap: bool
    wsr_trace: tuple[float, ...]
    lag_trace: tuple[float, ...]

    @classmethod
    def cold(cls, prob: _Problem, Q: list) -> "_Eval":
        """A start record for plan ``Q``: no price and no sweeps yet."""
        return cls(0.0, Q, _total_trace(Q), _wsr(prob, Q), False, (), ())

    def feasible(self, P: float) -> bool:
        """Power at most ``(1 + BUDGET_SLACK) P``."""
        return self.power - P <= BUDGET_SLACK * P

    def passes(self, P: float, cfg: SolverConfig) -> bool:
        """The budget rule (see the module docstring)."""
        return self.feasible(P) and (abs(self.power - P) <= cfg.lambda_tol * P
                                     or self.lam == LAMBDA_LO)


def _evaluate(prob: _Problem, cfg: SolverConfig, lam: float, start: _Eval,
              power_stop: Optional[float] = None,
              per_block_trace: bool = False) -> _Eval:
    """Cyclic block sweeps at price ``lam`` from a copy of ``start``'s plan
    until the penalized objective (traced per block update if asked) settles.

    ``power_stop`` aborts the run once the total trace exceeds that level:
    the price is then clearly below the budget-tight one and the caller only
    needs the sign of the power residual, not a converged plan.
    """
    Q = [np.array(q) for q in start.Q]
    lag = start.wsr - lam * (start.power - prob.P)
    lag_trace = [lag]
    wsr_trace = []
    steps = [INNER_STEP_INIT] * prob.K
    hit_cap = True
    for _ in range(cfg.max_outer_iters):
        for k in range(prob.K):
            Q[k], steps[k] = _block_update(prob, Q, lam, k, cfg, steps[k])
            if per_block_trace:
                lag_trace.append(_lagrangian(prob, Q, lam))
        wsr, power = _wsr(prob, Q), _total_trace(Q)
        new_lag = wsr - lam * (power - prob.P)
        if not per_block_trace:
            lag_trace.append(new_lag)
        wsr_trace.append(wsr)
        if power_stop is not None and power > power_stop:
            hit_cap = False
            break
        if abs(new_lag - lag) <= cfg.objective_tol * (1.0 + abs(lag)):
            hit_cap = False
            break
        lag = new_lag
    return _Eval(lam, Q, power, wsr, hit_cap, tuple(wsr_trace), tuple(lag_trace))


def _price_search(prob: _Problem, cfg: SolverConfig, start: _Eval) -> list[_Eval]:
    """Bisect the power price over ``[LAMBDA_LO, LAMBDA_HI]`` from ``start``.

    Returns every evaluation in the order it was made; the search stops at
    the first one that passes the budget rule.  The top price warm-starts
    from the bottom price's record, and each midpoint from the last record
    on the feasible side of the bracket.
    """
    P = prob.P
    power_stop = max(2.0 * P, P + 1.0)
    evals = [_evaluate(prob, cfg, LAMBDA_LO, start, power_stop)]
    if evals[-1].passes(P, cfg):
        return evals  # budget slack at the bottom price
    warm = _evaluate(prob, cfg, LAMBDA_HI, evals[-1])
    evals.append(warm)
    if warm.passes(P, cfg) or warm.power > P:
        return evals  # tight at the top price, or even it cannot meet the budget
    # The sweep tolerance bounds how precisely the power at a given price is
    # resolved, so it tightens as the interval narrows; otherwise the bracket
    # collapses onto a zero crossing of the coarse residual, which sits a few
    # 1e-5 off the true one.
    lo, hi = LAMBDA_LO, LAMBDA_HI
    gap_floor = max(1e-12, 0.01 * cfg.lambda_tol)
    for _ in range(200):
        if hi - lo <= gap_floor * max(1.0, hi):
            break
        gap = (hi - lo) / max(1.0, hi)
        run_cfg = cfg if gap > 1e-2 else replace(
            cfg, objective_tol=max(cfg.objective_tol * (1e-3 if gap > 1e-4 else 1e-6),
                                   5e-15))
        mid = 0.5 * (lo + hi)
        ev = _evaluate(prob, run_cfg, mid, warm, power_stop)
        evals.append(ev)
        if ev.passes(P, cfg):
            return evals
        if ev.power > P:
            lo = mid
        else:
            hi, warm = mid, ev
    return evals


# ---------------------------------------------------------------------------
# public operations


def lagrangian(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
               w: WeightVector, lam: float) -> float:
    """Weighted secrecy sum minus ``lam`` times the power excess."""
    prob = _Problem(ch, order, w)
    return _lagrangian(prob, prob.blocks(plan), lam)


def _block_args(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                w: WeightVector, k: int):
    """Problem and covariance copies by position for a 1-based block index."""
    prob = _Problem(ch, order, w)
    if not 1 <= k <= prob.K:
        raise DimensionMismatch(f"block index {k} out of range 1..{prob.K}")
    return prob, prob.blocks(plan)


def split_objective(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                    w: WeightVector, lam: float, k: int) -> tuple[float, float]:
    """(concave, convex) parts for block k (1-based position); they sum to
    the full penalized objective."""
    prob, Q = _block_args(ch, order, plan, w, k)
    return _split(prob, Q, lam, k - 1)


def gradient_cvx(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                 w: WeightVector, lam: float, k: int) -> np.ndarray:
    """Analytic gradient of the convex block part at the current plan."""
    prob, Q = _block_args(ch, order, plan, w, k)
    return _grad_cvx(prob, suffix_sums(Q), k - 1)


def surrogate_update(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                     w: WeightVector, lam: float, k: int,
                     cfg: Optional[SolverConfig] = None) -> np.ndarray:
    """One maximizing update of block k's surrogate; other blocks stay fixed."""
    prob, Q = _block_args(ch, order, plan, w, k)
    return _block_update(prob, Q, lam, k - 1, cfg or SolverConfig(), INNER_STEP_INIT)[0]


def maximize_lagrangian(ch: ChannelSet, w: WeightVector, order: EncodingOrder,
                        lam: float, cfg: Optional[SolverConfig] = None,
                        plan0: Optional[CovariancePlan] = None,
                        per_block_trace: bool = False
                        ) -> tuple[CovariancePlan, list[float]]:
    """Fixed-multiplier block-sweep maximization from ``plan0`` (default:
    the uniform start); returns plan and the penalized-objective trace (per
    block update when requested)."""
    prob = _Problem(ch, order, w)
    ev = _evaluate(prob, cfg or SolverConfig(), lam,
                   _Eval.cold(prob, prob.blocks(plan0)), per_block_trace=per_block_trace)
    plan = CovariancePlan(BC, by_user([project_psd(q) for q in ev.Q], prob.idx))
    return plan, list(ev.lag_trace)


def solve_wsr(ch: ChannelSet, w: Union[WeightVector, Sequence[float]],
              order: EncodingOrder, cfg: Optional[SolverConfig] = None,
              plan0: Optional[CovariancePlan] = None) -> SolverReport:
    """Maximize the weighted secrecy sum under the total power budget.

    Bisection on the power price (see ``_price_search``) from the downlink
    plan ``plan0`` (default: the uniform start); the returned plan and its
    termination label follow the budget rule in the module docstring.  The
    objective trace records the weighted secrecy sum after every sweep of
    every evaluation (not the penalized objective), and the multiplier trace
    records each evaluated price.
    """
    cfg = cfg or SolverConfig()
    if not isinstance(w, WeightVector):
        w = WeightVector(w)
    prob = _Problem(ch, order, w)
    evals = _price_search(prob, cfg, _Eval.cold(prob, prob.blocks(plan0)))
    feasible = ([ev for ev in evals if ev.feasible(prob.P)]
                or [min(evals, key=lambda ev: ev.power)])
    best = max(feasible, key=lambda ev: ev.wsr)
    termination = (MAX_ITERS if best.hit_cap
                   else CONVERGED if best.passes(prob.P, cfg) else STALLED)

    plan = CovariancePlan(BC, by_user([project_psd(q) for q in best.Q], prob.idx))
    clamped = dpc_secrecy_rates(ch, order, plan).clamped()
    rates = RatePoint(clamped.per_user,
                      float(w.as_array() @ np.array(clamped.per_user)))
    return SolverReport(plan=plan, rates=rates,
                        objective_trace=tuple(v for ev in evals for v in ev.wsr_trace),
                        lambda_trace=tuple(ev.lam for ev in evals),
                        lambda_final=float(best.lam),
                        outer_iters=sum(len(ev.wsr_trace) for ev in evals),
                        termination=termination)


def solve_wsr_multistart(ch: ChannelSet, w: Union[WeightVector, Sequence[float]],
                         order: EncodingOrder, cfg: Optional[SolverConfig] = None,
                         starts: int = 1, seed: int = 0) -> SolverReport:
    """Best of several solves: the uniform start plus seeded random ones.

    Block updates only reach stationary points of a nonconvex objective, so
    restarting from random feasible plans and keeping the best weighted sum
    is the standard hedge.  Deterministic given (cfg, starts, seed).
    """
    best = solve_wsr(ch, w, order, cfg)
    rng = np.random.default_rng(seed)
    for _ in range(max(0, starts - 1)):
        plan0 = random_plan(BC, [ch.n_t] * ch.num_users, ch.power, rng)
        trial = solve_wsr(ch, w, order, cfg, plan0=plan0)
        if trial.rates.weighted_sum > best.rates.weighted_sum:
            best = trial
    return best
