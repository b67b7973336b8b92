"""Rate-region boundary tracing by weight sweeps.

Sweeping the weight vector over the simplex and solving the weighted
problem at each point traces the achievable boundary.  For two users the
grid is w_1 = i/N; for three users it is the simplex lattice at the same
resolution (coarse only; dense three-user sweeps are out of scope).  The
step is snapped to 1/round(1/step) so the grid hits the simplex corners
exactly.

Order policies:

* ``"theorem"``: use the weight-sorted order at every grid point.
* ``"both_corners"``: same, but at grid points with tied weights run every
  weight-sorted order, exposing all corner rate tuples reachable there.
* a fixed :class:`EncodingOrder`: use it everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ._workers import map_ordered
from .channel import ChannelSet, WeightVector
from .errors import UnsupportedK
from .ordering import enumerate_orders, is_weight_sorted, optimal_order
from .rates import EncodingOrder, RatePoint
from .solver import SolverConfig, solve_wsr

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
    sweep_spec: str

    def rate_array(self) -> np.ndarray:
        return np.array([p.rates.per_user for p in self.points])


def _weight_grid(K: int, step: float) -> list[tuple[float, ...]]:
    if not 0 < step <= 1:
        raise UnsupportedK(f"step must be in (0, 1], got {step}")
    n = max(1, round(1.0 / step))
    if K == 1:
        return [(1.0,)]
    if K == 2:
        return [(i / n, (n - i) / n) for i in range(n + 1)]
    if K == 3:
        if step < 0.05:
            raise UnsupportedK("three-user sweeps support step >= 0.05 only")
        grid = []
        for i in range(n + 1):
            for j in range(n + 1 - i):
                grid.append((i / n, j / n, (n - i - j) / n))
        return grid
    raise UnsupportedK(f"region sweeps support at most 3 users, got {K}")


def trace_region(ch: ChannelSet, step: float,
                 order_policy: Union[str, EncodingOrder] = THEOREM,
                 cfg: Optional[SolverConfig] = None) -> RegionTrace:
    """Solve the weighted problem across the weight grid and collect the
    rate points (clamped at zero), each tagged with the order actually used."""
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

    def solve_one(task: tuple[WeightVector, EncodingOrder]) -> RegionPoint:
        w, order = task
        report = solve_wsr(ch, w, order, cfg)
        return RegionPoint(weights=w, order=order, rates=report.rates,
                           wsr=report.rates.weighted_sum)

    points = map_ordered(solve_one, tasks)
    spec = f"K={ch.num_users} step=1/{max(1, round(1.0 / step))} policy={order_policy}"
    return RegionTrace(points=tuple(points), sweep_spec=spec)


def hull_2d(points: Sequence[Sequence[float]]) -> list[tuple[float, float]]:
    """Convex hull (counterclockwise, Andrew's algorithm) of 2-D points.

    Used to post-process two-user traces: the closed region is the convex
    closure of the achieved points together with the origin.
    """
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) <= 2:
        return list(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
