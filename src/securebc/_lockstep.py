"""The tick loop that drives every price search, and its stacked sweep.

:func:`lockstep` runs the price searches of problems of one shape (antenna
counts by position) together: a single problem's for
:func:`securebc.solver.solve_wsr`, a shape group's for
:func:`securebc.solver.solve_wsr_batch`.  Each tick sweeps every pending
evaluation once, by one rule: with at least ``LOCKSTEP_MIN`` rows pending
their block updates run on (B, n, n) stacks, with fewer each row sweeps by
the per-problem :func:`~securebc.solver._sweep`.  Either way each row then
finishes its sweep by :meth:`~securebc.solver._Sweeps.finish` (stop test,
over-relaxation, traces), and an evaluation that ends goes back to its
search.

The stacked sweep equals the per-problem one bit for bit, so a row may
change sides at any tick.  The block update's set-up, the positive
definite water-fill and the objective pieces broadcast over the row axis
in :mod:`securebc.solver`; the two functions here keep only the control
flow that differs by row: the Armijo search, in which each row stops at its
own step, and the split between rows that water-fill together and capped
rows, which go one by one.  Inner products are taken by ``np.vdot`` per
row, and nothing here takes a log, root or reciprocal of an entry it then
discards.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import InnerNotImproved
from .linalg import inv_i_plus
from .solver import (SolverConfig, _block_step, _concave_value, _Eval, _fill,
                     _price_search, _Problem, _sweep, _Sweeps, _total_trace, _waterfill,
                     _wsr)

# a tick stacks its block updates from this many pending rows on; fewer
# rows sweep one by one, and every row finishes its own sweep (a stack of
# one took about twice as long as the per-problem sweep, two rows timed no
# faster stacked, three about a tenth faster)
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
    if pd.all():
        return _fill(h, w[:, None], inv_i_plus(base), m_val, m_vec)
    out = np.empty(M.shape, dtype=complex)
    if pd.any():
        out[pd] = _fill(h[pd], w[pd, None], inv_i_plus(base[pd]), m_val[pd], m_vec[pd])
    for r in np.flatnonzero(~pd):
        out[r] = _waterfill(h[r], w[r], base[r], M[r], float(cap[r]))
    return out


def block_update_stack(st: Stack, Q: list[np.ndarray], k: int
                       ) -> tuple[np.ndarray, dict]:
    """:func:`~securebc.solver._block_update` of block k on every row, each
    row's Armijo search stopping at its own step.  Returns the new blocks
    and, by row, the :class:`InnerNotImproved` of each row that admits no
    step; such a row keeps its block."""
    x, d, user, eve, hdh, gdg, power, tr_d, tr_ad, gap, u0 = _block_step(
        st, Q, st.lam, k, waterfill_stack)
    w, lam = st.w, st.lam
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
    """:func:`~securebc.solver._sweep` of every row: the block updates on
    stacks taken from the group's, then each row's
    :meth:`~securebc.solver._Sweeps.finish`.  Returns by row what the
    per-problem sweep returns, or the error of a row that admits no step."""
    st = group.rows(np.array([row.j for row in rows]))._replace(
        lam=np.array([row.sweeps.run.lam for row in rows]))
    Q = [np.stack(q) for q in zip(*(row.sweeps.Q for row in rows))]
    failed: dict = {}
    for k in range(len(Q)):
        Q[k], errors = block_update_stack(st, Q, k)
        failed = {**errors, **failed}  # a row's first error stands
    return [failed[b] if b in failed else
            row.sweeps.finish(row.prob, [q[b] for q in Q], wsr, power)
            for b, (row, wsr, power) in enumerate(
                zip(rows, _wsr(st, Q).tolist(), _total_trace(Q).tolist()))]


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
