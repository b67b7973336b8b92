"""Encoding-order selection and empirical order comparison.

The order rule: encode users in nonincreasing weight order (equivalently,
decode the dual uplink in nondecreasing weight order).  Ties break toward
the lower user index, which makes the rule deterministic; any permutation of
tied users achieves the same weighted sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ._workers import map_ordered
from .channel import ChannelSet, WeightVector
from .errors import InnerNotImproved, TooManyUsers
from .rates import EncodingOrder, RatePoint
from .solver import SolverConfig, solve_wsr_batch

MAX_ENUMERATED_USERS = 6


@dataclass(frozen=True)
class OrderResult:
    """One permutation's solve outcome inside a comparison."""

    order: EncodingOrder
    wsr: float
    rates: Optional[RatePoint]
    error: Optional[str] = None


@dataclass(frozen=True)
class OrderComparison:
    """Per-permutation achieved weighted sums plus the two headline orders."""

    per_order: tuple[OrderResult, ...]
    best_order: EncodingOrder
    theorem_order: EncodingOrder

    def matches_rule(self, w: WeightVector) -> bool:
        """True when the empirically best order is weight-sorted."""
        return is_weight_sorted(self.best_order, w)


def is_weight_sorted(order: EncodingOrder, w: WeightVector) -> bool:
    """True when the weights are nonincreasing along the order's positions
    (tied users may come in either order)."""
    seq = [w.weights[u - 1] for u in order.permutation]
    return all(a >= b for a, b in zip(seq, seq[1:]))


def optimal_order(w: WeightVector) -> EncodingOrder:
    """Users sorted by nonincreasing weight; ties by ascending user index."""
    weights = w.as_array()
    users = sorted(range(1, len(w) + 1), key=lambda u: (-weights[u - 1], u))
    return EncodingOrder(users)


def enumerate_orders(K: int) -> list[EncodingOrder]:
    """All K! encoding orders in lexicographic sequence (K <= 6)."""
    if K < 1:
        raise TooManyUsers("need at least one user")
    if K > MAX_ENUMERATED_USERS:
        raise TooManyUsers(
            f"enumerating {K}! orders is out of scope (K <= {MAX_ENUMERATED_USERS})")
    return [EncodingOrder(p) for p in itertools.permutations(range(1, K + 1))]


def compare_orders(ch: ChannelSet, w: Union[WeightVector, Sequence[float]],
                   cfg: Optional[SolverConfig] = None) -> OrderComparison:
    """Solve the weighted problem under every encoding order, in one
    :func:`~securebc.solver.solve_wsr_batch`, and rank them.

    Solver failures on individual orders are recorded (wsr = -inf) instead
    of aborting the comparison, except ``InnerNotImproved``, which marks a
    bug and propagates.  The best order is the achieved-WSR argmax at 1e-6
    resolution; among tied orders a weight-sorted one wins (the rule's
    order is optimal, so a tie with it is not evidence against it), then
    the lexicographically first.
    """
    w = WeightVector.of(w, ch.num_users)
    orders = enumerate_orders(ch.num_users)

    def result(outcome) -> OrderResult:
        order, report = outcome
        if isinstance(report, InnerNotImproved):
            raise report
        if isinstance(report, Exception):  # recorded, not fatal
            return OrderResult(order, -np.inf, None, f"{type(report).__name__}: {report}")
        return OrderResult(order, report.rates.weighted_sum, report.rates)

    reports = solve_wsr_batch([(ch, w, order) for order in orders], cfg)
    results = map_ordered(result, list(zip(orders, reports)))
    top = max(r.wsr for r in results)
    tied = [r.order for r in results if r.wsr >= top - 1e-6]
    best = next((o for o in tied if is_weight_sorted(o, w)), tied[0])
    return OrderComparison(per_order=tuple(results), best_order=best,
                           theorem_order=optimal_order(w))
