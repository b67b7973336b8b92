"""Weighted secrecy sum-rate maximization under a total power budget.

The optimizer works on the downlink covariances directly.  Users are first
relabeled so that position k encodes user pi_k; everything below then runs
in position space with ascending indices; the relabelling also checks that
every incoming plan is a downlink plan of the right shape.

Layers, outermost first; each function's docstring describes its layer:

* the tick loop over one search or a shape group's: :func:`lockstep`
  (:func:`solve_wsr_batch` forms the groups),
* the price search: :func:`_price_search`,
* one evaluation at a fixed price: :func:`_evaluation` and :func:`_anderson`,
* one sweep: :func:`_sweep`,
* one block update: :func:`_block_update`.

The budget rule: a record passes when its power is within the slack
(``rates.within_budget``) and either within ``lambda_tol * P`` of the budget
or reached at the bottom price ``LAMBDA_LO``, where the budget is slack.
The solve returns the highest-WSR record within the slack (the lowest-power
one if none is) and labels that record: ``max_iters`` if its sweeps hit the
cap, ``converged`` if it passes the rule, ``stalled`` otherwise.  The rule
and the labels judge the records alone, not how their prices were chosen.

The surrogate is a global lower bound of the block objective that is tight
at the expansion point, so no accepted block step lowers the true penalized
objective, and an Anderson or over-relaxed candidate is kept only when it
raises that objective; the test suite asserts both rather than assuming
them.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Generator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .channel import ChannelSet, WeightVector
from .errors import DimensionMismatch, InnerNotImproved, integer_at_least, positive_number
from .linalg import (anderson_psd, herm, hermitize, inv_i_plus, logdet_i_plus,
                     project_psd, real_trace)
from .rates import (BC, CovariancePlan, EncodingOrder, RatePoint, by_position, by_user,
                    dpc_rates_arrays, dpc_secrecy_rates, positions, suffix_sums,
                    total_trace, weighted_sum, within_budget)

CONVERGED = "converged"
MAX_ITERS = "max_iters"
STALLED = "stalled"

# bottom of the price bracket
LAMBDA_LO = 1e-6
# the power cap in budgets: evaluations stop above it, unbounded water-fills at it
POWER_CAP = 2.0
# the price search switches to tight sweeps within NEAR * P of the budget
NEAR = 1e-3
# an Anderson step draws on this many (start, swept) plan pairs
ANDERSON_MEMORY = 4
# a tick stacks its block updates from this many pending rows on; fewer
# rows sweep one by one (a stack of one took about twice as long as the
# per-problem sweep, two rows timed no faster stacked, three about a tenth
# faster)
LOCKSTEP_MIN = 3


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps; defaults are sized for desk-scale runs."""

    max_outer_iters: int = 2000
    objective_tol: float = 1e-8
    lambda_tol: float = 1e-6

    def __post_init__(self):
        positive_number(self.objective_tol, "objective_tol")
        positive_number(self.lambda_tol, "lambda_tol")
        integer_at_least(self.max_outer_iters, 1, "max_outer_iters")


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

    __slots__ = ("ch", "order", "H", "G", "w", "P", "idx")

    def __init__(self, ch: ChannelSet, order: EncodingOrder,
                 w: Union[WeightVector, Sequence[float]]):
        w = WeightVector.of(w, ch.num_users)
        self.ch, self.order = ch, order
        self.idx, self.H = positions(ch, order)
        self.G = ch.eavesdropper
        self.w = w.as_array()[self.idx]
        self.P = ch.power

    def blocks(self, plan: Optional[CovariancePlan]) -> list[np.ndarray]:
        """A downlink plan's own covariances by position; None: the zero plan."""
        plan = CovariancePlan.zero(BC, self.ch) if plan is None else plan
        return by_position(self.ch, self.order, plan, BC)[2]

    def plan(self, Q: Sequence[np.ndarray]) -> CovariancePlan:
        """The downlink plan of covariances ``Q`` by position, each made PSD."""
        return CovariancePlan._of_projected(BC, by_user([project_psd(q) for q in Q], self.idx))


# From _wsr to _block_update, the functions that a sweep calls take
# one problem and plan, or problems of one shape stacked along a leading
# row axis (a Stack) with their plans stacked the same
# way and one price per row; then they give one value per row.


def _wsr(prob: _Problem, Q: Sequence[np.ndarray]) -> float | np.ndarray:
    rates = np.ascontiguousarray(dpc_rates_arrays(prob.H, prob.G, Q).T)
    # a (1, K) @ (K, 1) product per row takes the 1-D dot product's own sum
    return (prob.w[..., None, :] @ rates[..., :, None])[..., 0, 0]


def _penalized(prob: _Problem, lam: float, wsr: float, power: float) -> float:
    """The penalized objective: weighted sum minus ``lam`` times the power excess."""
    return wsr - lam * (power - prob.P)


def _lagrangian(prob: _Problem, Q: Sequence[np.ndarray], lam: float) -> float:
    return float(_penalized(prob, lam, _wsr(prob, Q), total_trace(Q)))


def _concave_value(w: np.ndarray, lam: float, k: int, user: np.ndarray,
                   eve: Sequence[np.ndarray], power: float) -> float | np.ndarray:
    """Block k's concave part at a covariance x of trace ``power``, other
    blocks fixed:
    w_k logdet(I + H_k (S_{k+1} + x) H_k^H)
    + sum_{j<k} w_j logdet(I + G (S_{j+1} - Q_k + x) G^H) - lam tr(x),
    from the weights by position and the log-det arguments ``user`` and
    ``eve[j]`` (S_j the suffix sums of the current blocks)."""
    w = w.T  # by position, then row
    v = w[k] * logdet_i_plus(user)
    for j, e in enumerate(eve):
        v += w[j] * logdet_i_plus(e)
    return v - lam * power


def _grad_cvx(prob: _Problem, suf: Sequence[np.ndarray], k: int) -> tuple:
    """Gradient A of the convex block part with respect to the k-th
    covariance, with the eavesdropper terms it is built from: the lists of
    G S_j G^H and Gamma_j = G^H (I + G S_j G^H)^{-1} G for j = 0..k.

    Only the terms whose interference sums contain position k survive:
    the block's own eavesdropper term and, for every earlier position j < k,
    the user log-ratio and the leading eavesdropper log of position j.
    """
    H, G = prob.H, prob.G
    w = prob.w.T[..., None, None]  # by position, then row
    gh = herm(G)
    gsg = [G @ suf[j] @ gh for j in range(k + 1)]
    gam = [gh @ inv_i_plus(e) @ G for e in gsg]
    A = -w[k] * gam[k]
    for j in range(k):
        hj, hjh = H[j], herm(H[j])
        A = A + w[j] * (hjh @ inv_i_plus(hj @ suf[j] @ hjh) @ hj
                        - hjh @ inv_i_plus(hj @ suf[j + 1] @ hjh) @ hj)
        A = A - w[j] * gam[j]
    return hermitize(A), gsg, gam


def _fill(h: np.ndarray, w: float | np.ndarray, b_inv: np.ndarray, m_val: np.ndarray,
          m_vec: np.ndarray) -> np.ndarray:
    """:func:`_waterfill` for a positive definite M = m_vec diag(m_val) m_vec^H,
    from b_inv = (I + base)^{-1}; a stack's weights come as a (B, 1) column."""
    m_isqrt = (m_vec / np.sqrt(m_val)[..., None, :]) @ herm(m_vec)
    f = h @ m_isqrt
    s, v = np.linalg.eigh(hermitize(herm(f) @ b_inv @ f))
    pour = w * s > 1.0
    # where nothing pours, w - w = +0.0
    p = w - np.divide(1.0, s, out=np.full_like(s, w), where=pour)
    g = m_isqrt @ v
    return hermitize((g * p[..., None, :]) @ herm(g))


def _waterfill(h: np.ndarray, w: float | np.ndarray, base: np.ndarray, M: np.ndarray,
               P: float | np.ndarray, power: float | np.ndarray) -> np.ndarray:
    """Maximizer over PSD x of w logdet(I + base + h x h^H) - tr(M x).

    For positive definite M: water-filling on the eigenvalues s of
    T = M^{-1/2} h^H (I + base)^{-1} h M^{-1/2}, with powers (w - 1/s)^+ along
    T's eigenvectors, mapped back through M^{-1/2} (:func:`_fill`, every row
    at once); a zero weight pours nothing.  Otherwise the maximum is unbounded,
    and the maximizer under tr(x) <= cap = max(``POWER_CAP`` P, ``power``) is
    returned instead: the water-fill of M + mu I at the least shift mu that
    meets the cap, found by bisection (with a zero weight, the whole cap
    along M's lowest eigenvector); a stack then goes row by row.
    """
    m_val, m_vec = np.linalg.eigh(M)
    if all((m_val.T[0] > 0.0).flat):
        return _fill(h, w if M.ndim == 2 else w[:, None], inv_i_plus(base), m_val, m_vec)
    if M.ndim > 2:
        return np.stack([_waterfill(*row) for row in zip(h, w, base, M, P, power)])
    cap = np.fmax(POWER_CAP * P, power)
    if w == 0.0:
        return cap * np.outer(m_vec[:, 0], m_vec[:, 0].conj())
    # bisect on nu, the least eigenvalue of the shifted M: each of the n
    # powers is at most w / nu, so nu = n w / cap meets the cap
    b_inv = inv_i_plus(base)
    m_val = m_val - m_val[0]
    lo, hi = 0.0, len(m_val) * w / cap
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if real_trace(_fill(h, w, b_inv, m_val + mid, m_vec)) > cap:
            lo = mid
        else:
            hi = mid
    return _fill(h, w, b_inv, m_val + hi, m_vec)


def _inner(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Re <a, b> of two matrices, or row by row of stacks, as one product."""
    row, n2 = a.shape[:-2], a.shape[-1] * a.shape[-2]
    return (a.conj().reshape(*row, 1, n2) @ b.reshape(*row, n2, 1)).real[..., 0, 0]


def _block_update(prob: _Problem, Q: list[np.ndarray], lam, k: int) -> np.ndarray:
    """One ascent step on block k's surrogate (concave part plus the convex
    part's tangent at x = Q[k]), other blocks fixed.

    The step linearizes the surrogate's eavesdropper logs (positions j < k)
    at x as well, leaving w_k logdet(I + H_k (S_{k+1} + y) H_k^H) - tr(M y)
    with M = lam I - A - E, A the convex part's gradient and E that of the
    eavesdropper logs.  Its maximizer y (:func:`_waterfill`, capped at trace
    max(``POWER_CAP`` P, tr x) when M is not positive definite) gives the
    direction d = y - x, whose ascent gap <grad, d> is nonnegative and zero
    only at a block stationary point.  An Armijo search on t = 1, 1/2, ...
    along the segment x + t d, which stays PSD, picks the step.  At position
    1 there are no eavesdropper logs, so t = 1 is the exact block maximizer.
    Each trial evaluates every row of a stack, at a point of its own
    segment, and a row takes the first step that passes its own test.

    Returns Q[k] itself when the gap is at round-off level (on every row),
    and raises :class:`InnerNotImproved` when a larger gap admits no step.
    """
    suf = suffix_sums(Q)
    hk, G, w = prob.H[k], prob.G, prob.w.T  # weights by position, then row
    hkh, gh = herm(hk), herm(G)
    x = Q[k]
    A, gsg, gam = _grad_cvx(prob, suf, k)
    user = hk @ suf[k] @ hkh
    eve = gsg[1:]
    M = np.multiply.outer(lam, np.eye(x.shape[-1])) - A
    for j in range(k):
        M = M - w[j, ..., None, None] * gam[j + 1]
    M = hermitize(M)
    power = real_trace(x)
    d = _waterfill(hk, w[k], hk @ suf[k + 1] @ hkh, M, prob.P, power) - x
    hdh, gdg = hk @ d @ hkh, G @ d @ gh
    gap = w[k] * _inner(inv_i_plus(user), hdh) - _inner(M, d)
    tr_d, tr_ad = real_trace(d), _inner(A, d)
    u0 = _concave_value(prob.w, lam, k, user, eve, power)
    # rows whose gap is not round-off in the concave value, NaN too; the
    # tests read .flat, as numpy's any() and all() are slow on a 0-d mask
    search = ~(gap <= np.finfo(float).eps * (1.0 + abs(u0)))
    new, t = x, 1.0
    while any(search.flat):
        if t < 1e-14:
            raise InnerNotImproved(f"no ascent found for block {k + 1} despite ascent "
                                   f"gap {gap[search][0]:.3e}")
        u = _concave_value(prob.w, lam, k, user + t * hdh, [e + t * gdg for e in eve],
                           power + t * tr_d) + t * tr_ad
        step = search & (u >= u0 + 1e-4 * t * gap)
        if all(step.flat):
            return x + t * d
        if any(step.flat):
            new = np.where(step[..., None, None], x + t * d, new)
        search = search & ~step
        t *= 0.5
    return new


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
        return cls(0.0, Q, float(total_trace(Q)), float(_wsr(prob, Q)), False, (), ())

    def passes(self, P: float, cfg: SolverConfig) -> bool:
        """The budget rule (see the module docstring)."""
        return within_budget(self.power, P) and (abs(self.power - P) <= cfg.lambda_tol * P
                                                 or self.lam == LAMBDA_LO)


def _evaluation(prob: _Problem, lam: float, start: _Eval, cfg: SolverConfig,
                power_stop: Optional[float]
                ) -> Generator[tuple[float, list], tuple[list, float, float], _Eval]:
    """One evaluation: cyclic block sweeps at price ``lam`` from ``start``'s
    plan under ``cfg`` until the penalized objective (weighted secrecy sum
    minus ``lam`` times the power excess) settles.

    A generator: it yields ``(lam, Q)`` for each sweep it needs, the price
    and the plan to sweep from, and is sent back the swept plan with its
    weighted sum and power (what :func:`_sweep` returns).  It returns the
    :class:`_Eval` once the stop test passes or the sweeps reach the cap.

    ``power_stop`` aborts the run once the total trace exceeds that level:
    the price is then clearly below the budget-tight one and the search
    only needs the sign of the power residual, not a converged plan.  With
    ``power_stop`` set, every sweep that creeps, one whose objective gain
    exceeds half the previous sweep's and does not settle, is followed by
    the projected Anderson step :func:`_anderson` on the last
    ``ANDERSON_MEMORY`` (start, swept) plan pairs, or, where that step is
    refused, by over-relaxing the sweep.  The stop test reads each sweep's
    own gain, before the step, and the traces record the plan kept."""
    Q, lag = start.Q, _penalized(prob, lam, start.wsr, start.power)
    lag_trace, wsr_trace, prev_gain, pairs = [lag], [], np.inf, []
    while True:
        new, wsr, power = yield lam, Q
        new_lag = _penalized(prob, lam, wsr, power)
        gain = new_lag - lag
        done = ((power_stop is not None and power > power_stop)
                or abs(gain) <= cfg.objective_tol * (1.0 + abs(lag)))
        pairs = pairs[1 - ANDERSON_MEMORY:] + [(Q, new)]
        if power_stop is not None and not done and gain > 0.5 * prev_gain:
            new, wsr, power, new_lag = _anderson(prob, lam, pairs, wsr, power, new_lag,
                                                 power_stop)
        lag_trace.append(new_lag)
        wsr_trace.append(wsr)
        if done or len(wsr_trace) == cfg.max_outer_iters:
            return _Eval(lam, new, power, wsr, not done, tuple(wsr_trace), tuple(lag_trace))
        Q, lag, prev_gain = new, new_lag, gain


def _anderson(prob: _Problem, lam: float, pairs: list, wsr: float, power: float,
              lag: float, power_stop: float) -> tuple[list, float, float, float]:
    """The projected Anderson step :func:`~securebc.linalg.anderson_psd` on
    ``pairs``, an evaluation's last (start, swept) plans, kept only if its
    power is at most ``power_stop`` and its penalized objective is strictly
    above the last sweep's, whose weighted sum, power and objective are
    given; so every evaluation still ascends.  Returns (plan, weighted sum,
    power, objective) of the plan kept.

    A refused step falls back on over-relaxing the last sweep, from Q0 to
    Q: the candidates ``project_psd(Q + beta (Q - Q0))``, block by block,
    for beta = 1, 2, 4, ..., each kept under the same two tests against the
    best plan so far; the first that fails either ends the search.  Anderson
    fits differences of residuals, which vanish when a sweep drifts at
    constant velocity; doubling covers a drift of length L in about
    log2(L / |Q - Q0|) objective evaluations.  The loop ends: beta stops at
    2^63 at the latest, and power stops it much sooner whenever a block of
    the step Q - Q0 has an eigenvalue mu > 0, since that block's candidate
    then holds power at least beta mu, above ``power_stop`` once
    beta > power_stop / mu.  (Random solves from P = 1e-2 to 1e7 kept
    beta = 2^14 at most.)"""
    def scored(cand, floor):
        c_power = float(total_trace(cand))
        if c_power <= power_stop:
            c_wsr = float(_wsr(prob, cand))
            c_lag = _penalized(prob, lam, c_wsr, c_power)
            if c_lag > floor:
                return cand, c_wsr, c_power, c_lag
        return None

    kept = scored(anderson_psd(pairs), lag)
    if kept is not None:
        return kept
    best = pairs[-1][1], wsr, power, lag
    before, swept = pairs[-1]
    step = [q - q0 for q0, q in zip(before, swept)]
    beta = 1.0
    while beta <= 2.0 ** 63:
        kept = scored([project_psd(q + beta * d) for q, d in zip(swept, step)], best[3])
        if kept is None:
            break
        best, beta = kept, 2.0 * beta
    return best


def _sweep(prob: _Problem, lam, Q: list, trace: Optional[list] = None) -> tuple:
    """One sweep from plan ``Q``: a block update at every position in turn.
    An update depends only on the current plan and price, so a sweep is
    :func:`surrogate_update` on each block in turn.  Returns the new plan,
    its weighted sum and its power (lists by row for a stack), from which
    the evaluation derives the penalized objective without a second rate
    evaluation; appends the objective after each block update to ``trace``
    if given."""
    Q = list(Q)
    for k in range(len(Q)):
        Q[k] = _block_update(prob, Q, lam, k)
        if trace is not None:
            trace.append(_lagrangian(prob, Q, lam))
    return Q, _wsr(prob, Q).tolist(), total_trace(Q).tolist()


def _top_price(prob: _Problem) -> float:
    """The least price at which the zero plan is a fixed point of every block
    update: max_k w_k lam_max(H_k^H H_k - G^H G).

    At the zero plan, block k's model matrix is lam I + w_k G^H G at every
    position, so its water-fill pours nothing exactly when
    lam I - w_k (H_k^H H_k - G^H G) is positive semidefinite.
    """
    G = prob.G
    ggh = herm(G) @ G
    return max(float(np.linalg.eigvalsh(w * (herm(h) @ h - ggh))[-1])
               for h, w in zip(prob.H, prob.w))


def _price_search(prob: _Problem, cfg: SolverConfig
                  ) -> Generator[tuple[float, list], tuple[list, float, float], list[_Eval]]:
    """Find the budget-tight power price between ``LAMBDA_LO`` and the top
    price :func:`_top_price`, starting from the zero plan.

    The bottom price is evaluated first.  The top of the bracket is the zero
    plan itself, placed at the top price without an evaluation: no price
    above it moves the zero plan, so its power residual there is -P.  (A top
    price at or below ``LAMBDA_LO`` needs no case of its own: the bottom
    evaluation then returns the zero plan, which passes the budget rule.)
    Then regula falsi (the Illinois variant) on the power residual
    r = power - P against mu = 1/lam, in which water-filling power
    sum (w/lam - 1/s)^+ is piecewise linear; a secant price that rounds off
    the bracket gives way to the arithmetic midpoint.  Sweeps run at
    ``cfg.objective_tol`` until a record lands within ``NEAR * P`` of the
    budget; that price is re-run once at the tight tolerance
    ``objective_tol * 1e-4`` (at least 5e-15), and so is every later price,
    because the loose residual crosses zero a few 1e-5 P off the true root.
    The factor 1e-4 is measured: on censuses 7, 20261019 and 3 it saved
    11-18% of 1e-6's sweeps for 2 label flips, where 1e-3 flipped 8.
    Every evaluation, loose or tight, takes Anderson steps on creeping
    sweeps (see :func:`_evaluation`).

    A generator: it runs each evaluation by ``yield from`` :func:`_evaluation`,
    so it yields every sweep it needs and is sent back the swept plan, and
    one tick loop drives a single search or many together (:func:`lockstep`).
    Returns every evaluation in the order it was made; the search stops at
    the first one that passes the budget rule, or once the bracket is
    narrower than the gap floor times its top price; an evaluation stops
    once its power passes ``POWER_CAP * P``.  Each price after the bottom
    one starts from a predictor: the plans of the bracket's two end records
    (at first the bottom record and the zero plan), interpolated at the new
    price linearly in 1/lam; the tight re-run starts from the loose record.
    """
    P = prob.P
    power_stop = POWER_CAP * P
    zero = _Eval(0.0, prob.blocks(None), 0.0, 0.0, False, (), ())  # log det I is 0.0
    evals = [(yield from _evaluation(prob, LAMBDA_LO, zero, cfg, power_stop))]
    if evals[-1].passes(P, cfg):
        return evals  # budget slack at the bottom price
    lo, hi = evals[0], replace(zero, lam=_top_price(prob))
    r_lo, r_hi = lo.power - P, -P
    tight = replace(cfg, objective_tol=max(cfg.objective_tol * 1e-4, 5e-15))
    run_cfg, side = cfg, 0
    gap_floor = max(1e-12, 0.01 * cfg.lambda_tol)
    for _ in range(200):
        width = hi.lam - lo.lam
        if width <= gap_floor * hi.lam:
            break
        # r_lo > 0 > r_hi, so the secant root lies inside the bracket up to
        # rounding
        m_lo, m_hi = 1.0 / lo.lam, 1.0 / hi.lam
        lam = 1.0 / (m_hi - r_hi * (m_lo - m_hi) / (r_lo - r_hi))
        if not lo.lam < lam < hi.lam:
            lam = 0.5 * (lo.lam + hi.lam)
        # predictor: the two ends' plans interpolated at lam in 1/lam; theta
        # is in (0, 1), so the start is a convex combination of PSD plans
        theta = (m_hi - 1.0 / lam) / (m_hi - m_lo)
        start = _Eval.cold(prob, [(1 - theta) * a + theta * b for a, b in zip(hi.Q, lo.Q)])
        ev = yield from _evaluation(prob, lam, start, run_cfg, power_stop)
        evals.append(ev)
        if run_cfg is cfg and not ev.passes(P, cfg) and abs(ev.power - P) <= NEAR * P:
            run_cfg = tight
            ev = yield from _evaluation(prob, lam, ev, tight, power_stop)
            evals.append(ev)
        if ev.passes(P, cfg):
            return evals
        r = ev.power - P
        # Illinois: when the same end moves twice running, halve the other
        # end's residual so the secant cannot creep along one side
        if r > 0:
            if side > 0:
                r_hi *= 0.5
            lo, r_lo, side = ev, r, 1
        else:
            if side < 0:
                r_lo *= 0.5
            hi, r_hi, side = ev, r, -1
    return evals


class Stack(NamedTuple):
    """Problems of one shape stacked along a leading row axis: channels by
    position, eavesdropper, weights by position (B, K) and budgets."""

    H: list
    G: np.ndarray
    w: np.ndarray
    P: np.ndarray

    @classmethod
    def of(cls, probs: Sequence[_Problem]) -> "Stack":
        return cls([np.stack(h) for h in zip(*(p.H for p in probs))],
                   np.stack([p.G for p in probs]), np.stack([p.w for p in probs]),
                   np.array([p.P for p in probs]))


class Row(NamedTuple):
    """One task of a tick loop: its index, its problem, its price search and
    the sweep ``(lam, Q)`` the search waits for (None before the search
    starts)."""

    i: int
    prob: _Problem
    search: Generator
    request: Optional[tuple[float, list]]


def _sweep_stacked(rows: list[Row]) -> list[tuple[list, float, float]]:
    """:func:`_sweep` of every row's request at once, on the stack of the
    rows' problems.  Returns by row what the per-problem sweep returns."""
    Q, wsr, power = _sweep(Stack.of([row.prob for row in rows]),
                           np.array([row.request[0] for row in rows]),
                           [np.stack(q) for q in zip(*(row.request[1] for row in rows))])
    return [([q[b] for q in Q], wsr[b], power[b]) for b in range(len(rows))]


def lockstep(members: list[tuple[int, _Problem]], cfg: SolverConfig
             ) -> dict[int, Union[list[_Eval], Exception]]:
    """Run the price searches of problems of one shape by ticks: one search
    for :func:`solve_wsr`, a shape group's (antenna counts by position) for
    :func:`solve_wsr_batch`.  Each tick sweeps every pending request once,
    as one :func:`_sweep` of their problems stacked along a leading row axis
    (a :class:`Stack`, one price per row) if at least ``LOCKSTEP_MIN`` are
    pending and one by one otherwise, and sends each row's sweep to its
    search, whose next request joins the next tick.  A stack's rows equal
    the per-problem results bit for bit, so a search may change sides at any
    tick.  A stacked sweep that raises has advanced nothing, so its tick is
    swept again row by row, and an error stays with the row whose sweep or
    search raised it.

    Returns, by task index, each search's evaluations or the error its
    sweep or search raised."""
    out: dict = {}
    rows = [Row(i, prob, _price_search(prob, cfg), None) for i, prob in members]
    while rows:
        # the first tick starts every search; later ones sweep their requests
        swept = [None] * len(rows)
        if len(rows) >= LOCKSTEP_MIN and rows[0].request is not None:
            try:
                swept = _sweep_stacked(rows)
            except Exception:
                pass  # it advanced nothing: the rows sweep alone this tick
        pending = []
        for row, made in zip(rows, swept):
            try:
                if made is None and row.request is not None:
                    made = _sweep(row.prob, *row.request)
                pending.append(row._replace(request=row.search.send(made)))
            except StopIteration as stop:
                out[row.i] = stop.value
            except Exception as exc:
                out[row.i] = exc
        rows = pending
    return out


# ---------------------------------------------------------------------------
# public operations


def lagrangian(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
               w: Union[WeightVector, Sequence[float]], lam: float) -> float:
    """Weighted secrecy sum minus ``lam`` times the power excess."""
    prob = _Problem(ch, order, w)
    return _lagrangian(prob, prob.blocks(plan), lam)


def _block_args(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                w: Union[WeightVector, Sequence[float]], k: int):
    """Problem and covariances by position for a 1-based block index."""
    prob = _Problem(ch, order, w)
    if integer_at_least(k, 1, "block index", DimensionMismatch) > len(prob.H):
        raise DimensionMismatch(f"block index {k} out of range 1..{len(prob.H)}")
    return prob, prob.blocks(plan)


def split_objective(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                    w: Union[WeightVector, Sequence[float]], lam: float, k: int
                    ) -> tuple[float, float]:
    """(concave, convex) parts for block k (1-based position); they sum to
    the full penalized objective.  The concave part is block k's
    :func:`_concave_value` at Q_k less its constant
    w_k logdet(I + H_k S_{k+1} H_k^H)."""
    prob, Q = _block_args(ch, order, plan, w, k)
    k -= 1
    suf, hk, G = suffix_sums(Q), prob.H[k], prob.G
    hkh, gh = herm(hk), herm(G)
    ccv = (_concave_value(prob.w, lam, k, hk @ suf[k] @ hkh,
                          [G @ suf[j + 1] @ gh for j in range(k)],
                          float(real_trace(Q[k])))
           - prob.w[k] * logdet_i_plus(hk @ suf[k + 1] @ hkh))
    return float(ccv), float(_lagrangian(prob, Q, lam) - ccv)


def gradient_cvx(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                 w: Union[WeightVector, Sequence[float]], lam: float, k: int) -> np.ndarray:
    """Analytic gradient of the convex block part at the current plan; ``lam`` is not
    read, as block k's price term -lam tr(Q_k) sits in the concave part."""
    prob, Q = _block_args(ch, order, plan, w, k)
    return _grad_cvx(prob, suffix_sums(Q), k - 1)[0]


def surrogate_update(ch: ChannelSet, order: EncodingOrder, plan: CovariancePlan,
                     w: Union[WeightVector, Sequence[float]], lam: float, k: int
                     ) -> np.ndarray:
    """One ascent step on block k's surrogate (see :func:`_block_update`);
    other blocks stay fixed.  At position 1 it is the exact maximizer.  The
    price must be a finite positive number, else ValueError: at zero price the
    position-1 surrogate grows without bound along any direction that the
    user hears and the eavesdropper does not."""
    positive_number(lam, "the power price")
    prob, Q = _block_args(ch, order, plan, w, k)
    # a step at round-off gives back the plan's own read-only block
    return _block_update(prob, Q, lam, k - 1).copy()


def maximize_lagrangian(ch: ChannelSet, w: Union[WeightVector, Sequence[float]],
                        order: EncodingOrder, lam: float, cfg: Optional[SolverConfig] = None,
                        plan0: Optional[CovariancePlan] = None,
                        per_block_trace: bool = False
                        ) -> tuple[CovariancePlan, list[float]]:
    """Fixed-multiplier block-sweep maximization from ``plan0`` (default:
    the zero plan), in plain sweeps with no Anderson or over-relaxed steps;
    returns plan and the penalized-objective trace (per block update when
    requested).  The price must be finite and positive; see :func:`surrogate_update`."""
    positive_number(lam, "the power price")
    prob = _Problem(ch, order, w)
    per_block = [] if per_block_trace else None
    run = _evaluation(prob, lam, _Eval.cold(prob, prob.blocks(plan0)),
                      cfg or SolverConfig(), None)
    try:
        request = next(run)
        while True:
            request = run.send(_sweep(prob, *request, per_block))
    except StopIteration as stop:
        ev = stop.value
    trace = list(ev.lag_trace)
    return prob.plan(ev.Q), (trace[:1] + per_block if per_block_trace else trace)


def solve_wsr(ch: ChannelSet, w: Union[WeightVector, Sequence[float]],
              order: EncodingOrder, cfg: Optional[SolverConfig] = None) -> SolverReport:
    """Maximize the weighted secrecy sum under the total power budget.

    A secant search on the power price from the zero plan (see
    ``_price_search``); the returned plan and its termination label follow
    the budget rule in the module docstring.  The objective trace records
    the weighted secrecy sum after every sweep of every evaluation (not the
    penalized objective), and the multiplier trace records each evaluated
    price.
    """
    cfg = cfg or SolverConfig()
    ahead, task = _made_ahead.get(), (ch, w, order, cfg)
    prob = _Problem(ch, order, w)
    if ahead is not None and all(a is b for a, b in zip(ahead[0], task)):
        evals = ahead[1]
    else:
        evals = lockstep([(0, prob)], cfg)[0]
    if isinstance(evals, Exception):
        raise evals
    feasible = ([ev for ev in evals if within_budget(ev.power, prob.P)]
                or [min(evals, key=lambda ev: ev.power)])
    best = max(feasible, key=lambda ev: ev.wsr)
    termination = (MAX_ITERS if best.hit_cap
                   else CONVERGED if best.passes(prob.P, cfg) else STALLED)

    plan = prob.plan(best.Q)
    clamped = dpc_secrecy_rates(ch, order, plan).clamped()
    rates = RatePoint(clamped.per_user, weighted_sum(clamped, w))
    return SolverReport(plan=plan, rates=rates,
                        objective_trace=tuple(v for ev in evals for v in ev.wsr_trace),
                        lambda_trace=tuple(ev.lam for ev in evals),
                        lambda_final=float(best.lam),
                        outer_iters=sum(len(ev.wsr_trace) for ev in evals),
                        termination=termination)


# The price search that solve_wsr_batch made ahead for the task it is
# passing to solve_wsr: ((channels, weights, order, cfg), its evaluations or
# the error it raised).  solve_wsr takes it up only for those very objects.
# A context variable, so solve_wsr keeps its signature and a batch in one
# thread never hands a search to another.
_made_ahead: ContextVar[Optional[tuple[tuple, Union[list[_Eval], Exception]]]] = \
    ContextVar("_made_ahead", default=None)


def solve_wsr_batch(tasks: Sequence[tuple[ChannelSet, Union[WeightVector, Sequence[float]],
                                          EncodingOrder]],
                    cfg: Optional[SolverConfig] = None
                    ) -> list[Union[SolverReport, Exception]]:
    """:func:`solve_wsr` on each ``(channels, weights, order)`` task, in
    task order: entry i is the report ``solve_wsr`` returns for task i, or
    the exception it raises.

    The tasks whose problems share a shape (antenna counts by position)
    first run their price searches together in one tick loop (see
    :func:`lockstep`), whose stacked ticks spread numpy's per-call
    cost over the group.  Each task then goes through ``solve_wsr``, which
    builds the report from the search made ahead, so every solve still
    passes through ``solve_wsr`` (and through whatever wraps it) with its
    own report, equal bit for bit to a solve alone.
    """
    cfg = cfg or SolverConfig()
    groups: dict = {}
    for i, (ch, w, order) in enumerate(tasks):
        try:
            prob = _Problem(ch, order, w)
        except Exception:
            continue  # solve_wsr raises it again
        groups.setdefault((prob.G.shape, tuple(h.shape for h in prob.H)), []).append((i, prob))
    ahead: dict = {}
    for members in groups.values():
        ahead.update(lockstep(members, cfg))
    out: list = []
    for i, (ch, w, order) in enumerate(tasks):
        token = _made_ahead.set(((ch, w, order, cfg), ahead[i]) if i in ahead else None)
        try:
            out.append(solve_wsr(ch, w, order, cfg))
        except Exception as exc:
            out.append(exc)
        finally:
            _made_ahead.reset(token)
    return out
