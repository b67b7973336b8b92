"""In-order mapping used by the region and order sweeps."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_ordered(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    return [fn(x) for x in items]
