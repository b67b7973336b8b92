"""The tick loop that drives every price search, and its stacked sweep.

:func:`lockstep` runs the price searches of problems of one shape (antenna
counts by position) together: a single problem's for
:func:`securebc.solver.solve_wsr`, a shape group's for
:func:`securebc.solver.solve_wsr_batch`.  A search is a generator that
yields the sweeps it needs and holds all of its control flow: the stop
test, Anderson steps and traces of each evaluation
(:func:`~securebc.solver._evaluation`) and the choice of prices.  A sweep
is a pure function of the problem, price and plan.  Each tick sweeps every
pending request once, by one rule: with at least ``LOCKSTEP_MIN`` rows
pending their block updates run on (B, n, n) stacks, with fewer each row
sweeps by the per-problem :func:`~securebc.solver._sweep`.  Each row then
sends its sweep to its search.  A stacked sweep that raises has advanced
nothing, so its tick is swept again row by row, and an error stays with
the row whose sweep or search raised it.

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

from typing import Generator, NamedTuple, Optional, Union

import numpy as np

from .errors import InnerNotImproved
from .linalg import inv_i_plus
from .solver import (SolverConfig, _block_step, _concave_value, _Eval, _fill,
                     _price_search, _Problem, _sweep, _total_trace, _waterfill, _wsr)

# a tick stacks its block updates from this many pending rows on; fewer
# rows sweep one by one (a stack of one took about twice as long as the
# per-problem sweep, two rows timed no faster stacked, three about a tenth
# faster)
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


def block_update_stack(st: Stack, Q: list[np.ndarray], k: int) -> np.ndarray:
    """:func:`~securebc.solver._block_update` of block k on every row, each
    row's Armijo search stopping at its own step.  Returns the new blocks;
    raises :class:`InnerNotImproved` if a row admits no step."""
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
    if r.size:
        raise InnerNotImproved(f"row {r[0]}: no ascent found for block {k + 1} despite "
                               f"ascent gap {gap[r[0]]:.3e}")
    return new


class Row(NamedTuple):
    """One task of a tick loop: its index, its row in the group, its
    problem, its price search and the sweep ``(lam, Q)`` the search waits
    for (None before the search starts)."""

    i: int
    j: int
    prob: _Problem
    search: Generator
    request: Optional[tuple[float, list]]


def _sweep_stacked(group: Stack, rows: list[Row]) -> list[tuple[list, float, float]]:
    """:func:`~securebc.solver._sweep` of every row's request, its block
    updates on stacks taken from the group's.  Returns by row what the
    per-problem sweep returns."""
    st = group.rows(np.array([row.j for row in rows]))._replace(
        lam=np.array([row.request[0] for row in rows]))
    Q = [np.stack(q) for q in zip(*(row.request[1] for row in rows))]
    for k in range(len(Q)):
        Q[k] = block_update_stack(st, Q, k)
    return [([q[b] for q in Q], wsr, power)
            for b, (wsr, power) in enumerate(zip(_wsr(st, Q).tolist(),
                                                 _total_trace(Q).tolist()))]


def lockstep(members: list[tuple[int, _Problem]], cfg: SolverConfig
             ) -> dict[int, Union[list[_Eval], Exception]]:
    """Run the price searches of problems of one shape by ticks.  Each tick
    sweeps every pending request once, on stacks if at least
    ``LOCKSTEP_MIN`` are pending and one by one otherwise, and sends each
    row's sweep to its search, whose next request joins the next tick.

    Returns, by task index, each search's evaluations or the error its
    sweep or search raised."""
    out: dict = {}
    probs = [prob for _, prob in members]
    # stacked once; each stacked tick takes its rows, with their prices
    group = Stack([np.stack(h) for h in zip(*(p.H for p in probs))],
                  np.stack([p.G for p in probs]), np.stack([p.w for p in probs]),
                  np.array([p.P for p in probs]), np.zeros(len(probs)))
    rows = [Row(i, j, prob, _price_search(prob, cfg), None)
            for j, (i, prob) in enumerate(members)]
    while rows:
        # the first tick starts every search; later ones sweep their requests
        swept = [None] * len(rows)
        if len(rows) >= LOCKSTEP_MIN and rows[0].request is not None:
            try:
                swept = _sweep_stacked(group, rows)
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
