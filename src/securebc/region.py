"""Rate-region boundary tracing by weight sweeps.

Sweeping the weight vector over the simplex and solving the weighted
problem at each point traces the achievable boundary.  The grid is the
simplex lattice {(i_1, ..., i_K) / N : i_1 + ... + i_K = N}, in
lexicographic order of its first K - 1 coordinates: w_1 = i/N for two
users, and for three users the same lattice at coarse steps only (dense
three-user sweeps are out of scope).  The step is snapped to
N = round(1/step) so the grid hits the simplex corners exactly.

Order policies:

* ``"theorem"``: use the weight-sorted order at every grid point.
* ``"both_corners"``: same, but at grid points with tied weights run every
  weight-sorted order, exposing all corner rate tuples reachable there.
* a fixed :class:`EncodingOrder`: use it everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence, Union

import numpy as np

from ._workers import map_ordered
from .channel import ChannelSet, WeightVector
from .errors import UnsupportedK, positive_number
from .ordering import enumerate_orders, is_weight_sorted, optimal_order
from .rates import EncodingOrder, RatePoint
from .solver import SolverConfig, solve_wsr_batch

THEOREM = "theorem"
BOTH_CORNERS = "both_corners"


@dataclass(frozen=True)
class RegionPoint:
    weights: WeightVector
    order: EncodingOrder
    rates: RatePoint
    wsr: float


@dataclass(frozen=True)
class RegionTrace:
    points: tuple[RegionPoint, ...]

    def rate_array(self) -> np.ndarray:
        return np.array([p.rates.per_user for p in self.points])


def _weight_grid(K: int, step: float) -> list[tuple[float, ...]]:
    if positive_number(step, "step", UnsupportedK) > 1:
        raise UnsupportedK(f"step must be at most 1, got {step}")
    if K == 2 and step < 1e-4:
        raise UnsupportedK("two-user sweeps support step >= 1e-4 only")
    if K == 3 and step < 0.05:
        raise UnsupportedK("three-user sweeps support step >= 0.05 only")
    if not 1 <= K <= 3:
        raise UnsupportedK(f"region sweeps support at most 3 users, got {K}")
    n = max(1, round(1.0 / step))
    return [tuple(i / n for i in head) + ((n - sum(head)) / n,)
            for head in product(range(n + 1), repeat=K - 1) if sum(head) <= n]


def trace_region(ch: ChannelSet, step: float,
                 order_policy: Union[str, EncodingOrder] = THEOREM,
                 cfg: Optional[SolverConfig] = None) -> RegionTrace:
    """Solve the weighted problem across the weight grid, in one
    :func:`~securebc.solver.solve_wsr_batch`, and collect the rate points
    (clamped at zero), each tagged with the order actually used.  The first
    grid point whose solve fails raises its error."""
    grid = _weight_grid(ch.num_users, step)
    tasks: list[tuple[WeightVector, EncodingOrder]] = []
    for raw in grid:
        w = WeightVector(raw)
        if isinstance(order_policy, EncodingOrder):
            orders = [order_policy]
        elif order_policy == THEOREM:
            orders = [optimal_order(w)]
        elif order_policy == BOTH_CORNERS:
            orders = [o for o in enumerate_orders(len(w)) if is_weight_sorted(o, w)]
        else:
            raise ValueError(f"unknown order policy {order_policy!r}")
        for order in orders:
            tasks.append((w, order))

    def point(outcome) -> RegionPoint:
        (w, order), report = outcome
        if isinstance(report, Exception):
            raise report
        return RegionPoint(weights=w, order=order, rates=report.rates,
                           wsr=report.rates.weighted_sum)

    reports = solve_wsr_batch([(ch, w, order) for w, order in tasks], cfg)
    return RegionTrace(points=tuple(map_ordered(point, list(zip(tasks, reports)))))


def hull_2d(points: Sequence[Sequence[float]]) -> list[tuple[float, float]]:
    """Convex hull (counterclockwise, Andrew's algorithm) of 2-D points.

    Used to post-process two-user traces: the closed region is the convex
    closure of the achieved points together with the origin.  A NaN or
    infinite coordinate raises ValueError.
    """
    pts = sorted({(float(x), float(y)) for x, y in points})
    if not np.isfinite(pts).all():
        raise ValueError("hull points must be finite")
    if len(pts) <= 2:
        return list(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chains: tuple[list, list] = ([], [])  # lower, then upper
    for chain, run in zip(chains, (pts, pts[::-1])):
        for p in run:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return chains[0][:-1] + chains[1][:-1]
