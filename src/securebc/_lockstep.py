"""Lockstep batches for :func:`securebc.solver.solve_wsr_batch`.

The price searches of problems of one shape (antenna counts by position)
advance together: each tick runs one sweep of every pending evaluation on
(B, n, n) stacks, then each row's stop test and over-relaxation, and an
evaluation that ends goes back to its search (:func:`lockstep`).  The
stacked functions here are twins of the solver's sweep functions and
repeat them row by row, equal to them bit for bit: the same closed forms
elementwise, one LAPACK call per slice, and the same sums in the same
order, with inner products taken by ``np.vdot`` per row.  Nothing here
takes a log, root or reciprocal of an entry it then discards.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import InnerNotImproved
from .linalg import (PSD_TOL, herm_stack, hermitize_stack, inv_i_plus_stack,
                     logdet_i_plus_stack, trace_stack)
from .rates import suffix_sums
from .solver import (SolverConfig, _Eval, _price_search, _Problem, _search_alone,
                     _Sweeps, _waterfill)


class Stack(NamedTuple):
    """Problems of one shape stacked along a leading row axis: channels by
    position, eavesdropper, weights by position (B, K), budgets and prices."""

    H: list
    G: np.ndarray
    w: np.ndarray
    P: np.ndarray
    lam: np.ndarray

    def rows(self, r: np.ndarray) -> "Stack":
        return Stack([h[r] for h in self.H], self.G[r], self.w[r], self.P[r], self.lam[r])


def total_trace_stack(Q: Sequence[np.ndarray]) -> np.ndarray:
    total = trace_stack(Q[0])
    for q in Q[1:]:
        total = total + trace_stack(q)
    return total


def wsr_stack(st: Stack, Q: Sequence[np.ndarray]) -> np.ndarray:
    suf = suffix_sums(Q)
    gh = herm_stack(st.G)
    rates = np.empty(st.w.shape)
    for k, hk in enumerate(st.H):
        hkh = herm_stack(hk)
        rates[:, k] = ((logdet_i_plus_stack(hk @ suf[k] @ hkh)
                        - logdet_i_plus_stack(hk @ suf[k + 1] @ hkh))
                       - (logdet_i_plus_stack(st.G @ suf[k] @ gh)
                          - logdet_i_plus_stack(st.G @ suf[k + 1] @ gh)))
    # a (1, K) @ (K, 1) product per row takes the dot product's own sum
    return (st.w[:, None, :] @ rates[:, :, None])[:, 0, 0]


def concave_value_stack(w: np.ndarray, lam: np.ndarray, k: int, user: np.ndarray,
                         eve: Sequence[np.ndarray], power: np.ndarray) -> np.ndarray:
    v = w[:, k] * logdet_i_plus_stack(user)
    for j, e in enumerate(eve):
        v += w[:, j] * logdet_i_plus_stack(e)
    return v - lam * power


def grad_cvx_stack(st: Stack, suf: Sequence[np.ndarray], k: int) -> np.ndarray:
    H, G, w = st.H, st.G, st.w[:, :, None, None]
    gh = herm_stack(G)
    A = -w[:, k] * (gh @ inv_i_plus_stack(G @ suf[k] @ gh) @ G)
    for j in range(k):
        hj, hjh = H[j], herm_stack(H[j])
        A = A + w[:, j] * (hjh @ inv_i_plus_stack(hj @ suf[j] @ hjh) @ hj
                           - hjh @ inv_i_plus_stack(hj @ suf[j + 1] @ hjh) @ hj)
        A = A - w[:, j] * (gh @ inv_i_plus_stack(G @ suf[j] @ gh) @ G)
    return hermitize_stack(A)


def waterfill_stack(h: np.ndarray, w: np.ndarray, base: np.ndarray, M: np.ndarray,
                     cap: np.ndarray) -> np.ndarray:
    """:func:`~securebc.solver._waterfill` on every row: the rows whose M
    is positive definite water-fill together, the others take the capped
    path one by one."""
    m_val, m_vec = np.linalg.eigh(M)
    pd = m_val[:, 0] > 0.0
    out = np.empty(M.shape, dtype=complex)
    if pd.any():
        hp, wp, bp, m_val, m_vec = ((h, w, base, m_val, m_vec) if pd.all() else
                                    (h[pd], w[pd], base[pd], m_val[pd], m_vec[pd]))
        m_isqrt = (m_vec / np.sqrt(m_val)[:, None, :]) @ herm_stack(m_vec)
        f = hp @ m_isqrt
        s, v = np.linalg.eigh(hermitize_stack(herm_stack(f) @ inv_i_plus_stack(bp) @ f))
        wp = wp[:, None]
        pour = wp * s > 1.0
        p = np.where(pour, wp - np.divide(1.0, s, out=np.ones_like(s), where=pour), 0.0)
        g = m_isqrt @ v
        out[pd] = hermitize_stack((g * p[:, None, :]) @ herm_stack(g))
    for r in np.flatnonzero(~pd):
        out[r] = _waterfill(h[r], w[r], base[r], M[r], float(cap[r]))
    return out


def block_update_stack(st: Stack, Q: list[np.ndarray], k: int
                        ) -> tuple[np.ndarray, dict]:
    """:func:`~securebc.solver._block_update` of block k on every row.
    Returns the new blocks and, by row, the :class:`InnerNotImproved` of
    each row that admits no step; such a row keeps its block."""
    suf = suffix_sums(Q)
    hk, G, w, lam = st.H[k], st.G, st.w, st.lam
    hkh, gh = herm_stack(hk), herm_stack(G)
    x = Q[k]
    A = grad_cvx_stack(st, suf, k)
    user = hk @ suf[k] @ hkh
    eve = [G @ suf[j + 1] @ gh for j in range(k)]
    M = lam[:, None, None] * np.eye(x.shape[-1]) - A
    for j, e in enumerate(eve):
        M = M - w[:, j, None, None] * (gh @ inv_i_plus_stack(e) @ G)
    M = hermitize_stack(M)
    power = trace_stack(x)
    d = waterfill_stack(hk, w[:, k], hk @ suf[k + 1] @ hkh, M,
                         np.maximum(2.0 * st.P, power)) - x
    hdh, gdg = hk @ d @ hkh, G @ d @ gh
    tr_d = trace_stack(d)
    # inner products by np.vdot row by row, whose sums the per-problem
    # update takes
    tr_ad = np.array([np.vdot(a, b).real for a, b in zip(A, d)])
    gap = (w[:, k] * np.array([np.vdot(a, b).real
                               for a, b in zip(inv_i_plus_stack(user), hdh)])
           - np.array([np.vdot(a, b).real for a, b in zip(M, d)]))
    u0 = concave_value_stack(w, lam, k, user, eve, power)
    new = x.copy()
    # the rows whose gap is not round-off in the concave value (a NaN gap
    # searches too, as in the per-problem update)
    r = np.flatnonzero(~(gap <= np.finfo(float).eps * (1.0 + np.abs(u0))))
    t = 1.0
    while r.size and t >= 1e-14:
        u = concave_value_stack(w[r], lam[r], k, user[r] + t * hdh[r],
                                 [e[r] + t * gdg[r] for e in eve],
                                 power[r] + t * tr_d[r]) + t * tr_ad[r]
        ok = u >= u0[r] + 1e-4 * t * gap[r]
        new[r[ok]] = x[r[ok]] + t * d[r[ok]]
        r = r[~ok]
        t *= 0.5
    return new, {i: InnerNotImproved(f"no ascent found for block {k + 1} despite "
                                     f"ascent gap {gap[i]:.3e}") for i in r.tolist()}


def extrapolate_stack(st: Stack, Q: list, before: list, wsr: np.ndarray,
                       power: np.ndarray, lag: np.ndarray, power_stop: np.ndarray
                       ) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`~securebc.solver._extrapolate` on every row, each row
    stopping at its own beta."""
    step = [q - b for q, b in zip(Q, before)]
    best = [q.copy() for q in Q]
    wsr, power, lag = wsr.copy(), power.copy(), lag.copy()
    r = np.arange(len(wsr))
    beta = 1.0
    while r.size:
        cand = [q[r] + beta * d[r] for q, d in zip(Q, step)]
        cand_power = total_trace_stack(cand)
        bad = cand_power > power_stop[r]
        for c in cand:
            bad |= (np.linalg.eigvalsh(hermitize_stack(c))[:, 0]
                    < -PSD_TOL * np.maximum(1.0, trace_stack(c)))
        r, cand, cand_power = r[~bad], [c[~bad] for c in cand], cand_power[~bad]
        if not r.size:
            break
        sub = st.rows(r)
        cand_wsr = wsr_stack(sub, cand)
        cand_lag = cand_wsr - sub.lam * (cand_power - sub.P)
        up = cand_lag > lag[r]
        r = r[up]
        for b, c in zip(best, cand):
            b[r] = c[up]
        wsr[r], power[r], lag[r] = cand_wsr[up], cand_power[up], cand_lag[up]
        beta *= 2.0
    return best, wsr, power, lag


class Row:
    """One task of a lockstep group: its price search, and the sweep loop
    of the evaluation the search waits for."""

    __slots__ = ("i", "j", "prob", "search", "sweeps", "Q")

    def __init__(self, i: int, j: int, prob: _Problem, cfg: SolverConfig):
        self.i, self.j, self.prob = i, j, prob
        self.search = _price_search(prob, cfg)

    def send(self, ev: Optional[_Eval]) -> Optional[list[_Eval]]:
        """Hand the search an evaluation (None to start it) and take up the
        next one it asks for; returns its evaluations once it is over."""
        try:
            run = self.search.send(ev)
        except StopIteration as stop:
            return stop.value
        self.sweeps, self.Q = _Sweeps(run, self.prob.P), run.start.Q
        return None


def lockstep(members: list[tuple[int, _Problem]], cfg: SolverConfig
              ) -> dict[int, Union[list[_Eval], Exception]]:
    """Run the price searches of problems of one shape together.  Each tick
    is one sweep of every pending evaluation on stacks, followed per row by
    the stop test and over-relaxation of :func:`~securebc.solver._evaluate`
    (:class:`~securebc.solver._Sweeps`); an evaluation that ends goes to
    its search, whose next request joins the next tick.

    The last search left runs its remaining evaluations on the
    per-problem path.  Returns, by task index, each search's evaluations
    or the error it raised.  An error that the stacked code does not tie
    to one row ends the group: the tasks still running are left out, for
    the per-problem path to solve and raise it where it belongs."""
    out: dict = {}

    def advance(row: Row, ev: Optional[_Eval]) -> bool:
        """Send ``ev`` to the row's search; False once the task is done."""
        try:
            evals = row.send(ev)
        except Exception as exc:
            out[row.i] = exc
            return False
        if evals is None:
            return True
        out[row.i] = evals
        return False

    probs = [prob for _, prob in members]
    H = [np.stack([p.H[k] for p in probs]) for k in range(probs[0].K)]
    G, w = np.stack([p.G for p in probs]), np.stack([p.w for p in probs])
    P = np.array([p.P for p in probs])
    rows = [Row(i, j, prob, cfg) for j, (i, prob) in enumerate(members)]
    active = [row for row in rows if advance(row, None)]
    try:
        while active:
            if len(active) == 1 and not active[0].sweeps.wsr_trace:
                # one search left, between evaluations: the per-problem
                # sweep is faster than a stack of one
                row = active.pop()
                try:
                    out[row.i] = _search_alone(row.prob, row.search, row.sweeps.run)
                except Exception as exc:
                    out[row.i] = exc
                break
            j = np.array([row.j for row in active])
            st = Stack([h[j] for h in H], G[j], w[j], P[j],
                        np.array([row.sweeps.run.lam for row in active]))
            Q = [np.stack(q) for q in zip(*(row.Q for row in active))]
            before, failed = list(Q), {}
            for k in range(len(Q)):
                Q[k], errors = block_update_stack(st, Q, k)
                failed = {**errors, **failed}  # a row's first error stands
            wsr, power = wsr_stack(st, Q), total_trace_stack(Q)
            lag = wsr - st.lam * (power - st.P)
            verdicts = [row.sweeps.judge(g, p)
                        for row, g, p in zip(active, lag.tolist(), power.tolist())]
            c = np.array([b for b, v in enumerate(verdicts) if v[2]], dtype=int)
            if c.size:
                moved = extrapolate_stack(
                    st.rows(c), [q[c] for q in Q], [q[c] for q in before], wsr[c], power[c],
                    lag[c], np.array([active[b].sweeps.run.power_stop for b in c]))
                for q, m in zip(Q, moved[0]):
                    q[c] = m
                wsr[c], power[c], lag[c] = moved[1:]
            still = []
            for b, (row, (gain, done, _), v, pw, g) in enumerate(
                    zip(active, verdicts, wsr.tolist(), power.tolist(), lag.tolist())):
                if b in failed:
                    out[row.i] = failed[b]
                    continue
                row.Q = [q[b] for q in Q]
                ev = row.sweeps.record(row.Q, v, pw, g, gain, done)
                if ev is None or advance(row, ev):
                    still.append(row)
            active = still
    except Exception:  # not tied to one row: the unfinished tasks are left out
        pass
    return out
