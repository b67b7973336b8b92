"""The tick loop that drives every price search.

:func:`lockstep` runs the price searches of problems of one shape (antenna
counts by position) together: a single problem's for
:func:`securebc.solver.solve_wsr`, a shape group's for
:func:`securebc.solver.solve_wsr_batch`.  A search is a generator that
yields the sweeps it needs and holds all of its control flow: the stop
test, Anderson steps and traces of each evaluation
(:func:`~securebc.solver._evaluation`) and the choice of prices.  A sweep
is a pure function of the problem, price and plan.  Each tick sweeps every
pending request once, by one rule: with at least ``LOCKSTEP_MIN`` rows
pending, one :func:`~securebc.solver._sweep` runs them all on a
:class:`Stack`, with (B, n, n) blocks and one price per row; with fewer,
each row sweeps alone.  A stacked row equals its per-problem sweep bit for
bit, so a row may change sides at any tick.  Each row then sends its sweep
to its search.  A stacked sweep that raises has advanced nothing, so its
tick is swept again row by row, and an error stays with the row whose
sweep or search raised it.
"""

from __future__ import annotations

from typing import Generator, NamedTuple, Optional, Union

import numpy as np

from .solver import SolverConfig, _Eval, _price_search, _Problem, _sweep

# a tick stacks its block updates from this many pending rows on; fewer
# rows sweep one by one (a stack of one took about twice as long as the
# per-problem sweep, two rows timed no faster stacked, three about a tenth
# faster)
LOCKSTEP_MIN = 3


class Stack(NamedTuple):
    """Problems of one shape stacked along a leading row axis: channels by
    position, eavesdropper, weights by position (B, K) and budgets."""

    H: list
    G: np.ndarray
    w: np.ndarray
    P: np.ndarray

    def rows(self, r: np.ndarray) -> "Stack":
        return Stack([h[r] for h in self.H], self.G[r], self.w[r], self.P[r])


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
    """:func:`~securebc.solver._sweep` of every row's request at once, on a
    stack taken from the group's.  Returns by row what the per-problem
    sweep returns."""
    Q, wsr, power = _sweep(group.rows(np.array([row.j for row in rows])),
                           np.array([row.request[0] for row in rows]),
                           [np.stack(q) for q in zip(*(row.request[1] for row in rows))])
    return [([q[b] for q in Q], wsr[b], power[b]) for b in range(len(rows))]


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
    # stacked once; each stacked tick takes its rows
    group = Stack([np.stack(h) for h in zip(*(p.H for p in probs))],
                  np.stack([p.G for p in probs]), np.stack([p.w for p in probs]),
                  np.array([p.P for p in probs]))
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
