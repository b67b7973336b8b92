"""The tick loop that drives every price search, and its stacked sweep.

:func:`lockstep` runs the price searches of problems of one shape (antenna
counts by position) together: a single problem's for
:func:`securebc.solver.solve_wsr`, a shape group's for
:func:`securebc.solver.solve_wsr_batch`.  Each tick sweeps every pending
evaluation once, by one rule: with at least ``LOCKSTEP_MIN`` rows pending
it sweeps them on (B, n, n) stacks, with fewer it sweeps each row by the
per-problem :func:`~securebc.solver._sweep`.  Then each row's stop test and
over-relaxation run, and an evaluation that ends goes back to its search.

The stacked sweep equals the per-problem one bit for bit, so a row may
change sides at any tick.  The solver's objective pieces broadcast over the
row axis; the three functions here are stacked twins of the per-problem
ones, because their control flow differs by row: the Armijo search of the
block update, the capped water-fill of a row whose model matrix is not
positive definite, and the over-relaxation's beta.  They take the same
closed forms elementwise, one LAPACK call per slice, and the same sums in
the same order, with inner products taken by ``np.vdot`` per row.  Nothing
here takes a log, root or reciprocal of an entry it then discards.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import InnerNotImproved
from .linalg import PSD_TOL, herm, hermitize, inv_i_plus, real_trace
from .rates import suffix_sums
from .solver import (SolverConfig, _concave_value, _Eval, _grad_cvx, _price_search,
                     _Problem, _sweep, _Sweeps, _total_trace, _waterfill, _wsr)

# a tick stacks its sweeps from this many pending rows on; fewer rows sweep
# one by one (a stack of one took about twice as long as the per-problem
# sweep, two rows timed no faster stacked, three about a tenth faster)
LOCKSTEP_MIN = 3


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
        m_isqrt = (m_vec / np.sqrt(m_val)[:, None, :]) @ herm(m_vec)
        f = hp @ m_isqrt
        s, v = np.linalg.eigh(hermitize(herm(f) @ inv_i_plus(bp) @ f))
        wp = wp[:, None]
        pour = wp * s > 1.0
        p = np.where(pour, wp - np.divide(1.0, s, out=np.ones_like(s), where=pour), 0.0)
        g = m_isqrt @ v
        out[pd] = hermitize((g * p[:, None, :]) @ herm(g))
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
    hkh, gh = herm(hk), herm(G)
    x = Q[k]
    A = _grad_cvx(st, suf, k)
    user = hk @ suf[k] @ hkh
    eve = [G @ suf[j + 1] @ gh for j in range(k)]
    M = lam[:, None, None] * np.eye(x.shape[-1]) - A
    for j, e in enumerate(eve):
        M = M - w[:, j, None, None] * (gh @ inv_i_plus(e) @ G)
    M = hermitize(M)
    power = real_trace(x)
    d = waterfill_stack(hk, w[:, k], hk @ suf[k + 1] @ hkh, M,
                        np.maximum(2.0 * st.P, power)) - x
    hdh, gdg = hk @ d @ hkh, G @ d @ gh
    tr_d = real_trace(d)
    # inner products by np.vdot row by row, whose sums the per-problem
    # update takes
    tr_ad = np.array([np.vdot(a, b).real for a, b in zip(A, d)])
    gap = (w[:, k] * np.array([np.vdot(a, b).real
                               for a, b in zip(inv_i_plus(user), hdh)])
           - np.array([np.vdot(a, b).real for a, b in zip(M, d)]))
    u0 = _concave_value(w, lam, k, user, eve, power)
    new = x.copy()
    # the rows whose gap is not round-off in the concave value (a NaN gap
    # searches too, as in the per-problem update)
    r = np.flatnonzero(~(gap <= np.finfo(float).eps * (1.0 + np.abs(u0))))
    t = 1.0
    while r.size and t >= 1e-14:
        u = _concave_value(w[r], lam[r], k, user[r] + t * hdh[r],
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
        cand_power = _total_trace(cand)
        bad = cand_power > power_stop[r]
        for c in cand:
            bad |= (np.linalg.eigvalsh(hermitize(c))[:, 0]
                    < -PSD_TOL * np.maximum(1.0, real_trace(c)))
        r, cand, cand_power = r[~bad], [c[~bad] for c in cand], cand_power[~bad]
        if not r.size:
            break
        sub = st.rows(r)
        cand_wsr = _wsr(sub, cand)
        cand_lag = cand_wsr - sub.lam * (cand_power - sub.P)
        up = cand_lag > lag[r]
        r = r[up]
        for b, c in zip(best, cand):
            b[r] = c[up]
        wsr[r], power[r], lag[r] = cand_wsr[up], cand_power[up], cand_lag[up]
        beta *= 2.0
    return best, wsr, power, lag


class Row:
    """One task of a tick loop: its price search, and the sweep loop of the
    evaluation the search waits for."""

    __slots__ = ("i", "j", "prob", "search", "sweeps")

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
        self.sweeps = _Sweeps(run, self.prob.P)
        return None


def _sweep_alone(row: Row) -> Union[Optional[_Eval], Exception]:
    """:func:`~securebc.solver._sweep` of one row, or the error it raised."""
    try:
        return _sweep(row.prob, row.sweeps)
    except Exception as exc:
        return exc


def _sweep_stacked(group: Stack, rows: list[Row]) -> list[Union[Optional[_Eval], Exception]]:
    """:func:`~securebc.solver._sweep` of every row on stacks taken from
    the group's: a stacked block update at every position, then each row's
    stop test and any over-relaxation.  Returns by row what the per-problem
    sweep returns, or the error of a row that admits no step."""
    st = group.rows(np.array([row.j for row in rows]))._replace(
        lam=np.array([row.sweeps.run.lam for row in rows]))
    Q = [np.stack(q) for q in zip(*(row.sweeps.Q for row in rows))]
    before, failed = list(Q), {}
    for k in range(len(Q)):
        Q[k], errors = block_update_stack(st, Q, k)
        failed = {**errors, **failed}  # a row's first error stands
    wsr, power = _wsr(st, Q), _total_trace(Q)
    lag = wsr - st.lam * (power - st.P)
    verdicts = [row.sweeps.judge(g, p) for row, g, p in zip(rows, lag.tolist(), power.tolist())]
    c = np.array([b for b, v in enumerate(verdicts) if v[2]], dtype=int)
    if c.size:
        moved = extrapolate_stack(
            st.rows(c), [q[c] for q in Q], [q[c] for q in before], wsr[c], power[c],
            lag[c], np.array([rows[b].sweeps.run.power_stop for b in c]))
        for q, m in zip(Q, moved[0]):
            q[c] = m
        wsr[c], power[c], lag[c] = moved[1:]
    return [failed[b] if b in failed else
            row.sweeps.record([q[b] for q in Q], v, pw, g, gain, done)
            for b, (row, (gain, done, _), v, pw, g) in enumerate(
                zip(rows, verdicts, wsr.tolist(), power.tolist(), lag.tolist()))]


def lockstep(members: list[tuple[int, _Problem]], cfg: SolverConfig
             ) -> dict[int, Union[list[_Eval], Exception]]:
    """Run the price searches of problems of one shape by ticks.  Each tick
    sweeps every pending evaluation once, on stacks if at least
    ``LOCKSTEP_MIN`` are pending and one by one otherwise; an evaluation
    that ends goes to its search, whose next request joins the next tick.

    Returns, by task index, each search's evaluations or the error it
    raised.  An error that the stacked sweep does not tie to one row ends
    the group: the tasks still running are left out, for
    :func:`~securebc.solver.solve_wsr` to solve alone and raise it where
    it belongs."""
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
    # stacked once; each stacked tick takes its rows, with their prices
    group = Stack([np.stack(h) for h in zip(*(p.H for p in probs))],
                  np.stack([p.G for p in probs]), np.stack([p.w for p in probs]),
                  np.array([p.P for p in probs]), np.zeros(len(probs)))
    active = [row for row in (Row(i, j, prob, cfg) for j, (i, prob) in enumerate(members))
              if advance(row, None)]
    try:
        while active:
            swept = (_sweep_stacked(group, active) if len(active) >= LOCKSTEP_MIN
                     else [_sweep_alone(row) for row in active])
            still = []
            for row, ev in zip(active, swept):
                if isinstance(ev, Exception):
                    out[row.i] = ev
                elif ev is None or advance(row, ev):
                    still.append(row)
            active = still
    except Exception:  # not tied to one row: the unfinished tasks are left out
        pass
    return out
