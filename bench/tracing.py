"""Runtime instrumentation of the securebc package, from outside its sources.

Two wrappers are installed by rebinding module attributes (no source file is
edited):

* :class:`SolveLog` wraps ``solve_wsr`` and keeps one record per solve, read
  from the returned ``SolverReport``.  It is cheap (one record per solve)
  and runs in untraced passes too, because the exact-repeat check and
  the solution-quality figures need the per-solve counts.  It also lets the
  speed probe take a sample between solves.
* :class:`Tracer` wraps the public functions of every layer, accumulates
  calls and self time per function, and keeps spans for the coarse layers.

A function is rebound wherever a ``securebc`` module holds it, so callers that
imported it by name (``from .linalg import project_psd``) see the wrapper.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

# (home module, function, layer); the layer is the metric prefix.
TRACED = (
    ("securebc.linalg", "project_psd", "linalg"),
    ("securebc.linalg", "logdet_i_plus", "linalg"),
    ("securebc.linalg", "psd_sqrt", "linalg"),
    ("securebc.linalg", "psd_inv_sqrt", "linalg"),
    ("securebc.linalg", "svd_square_diag", "linalg"),
    ("securebc.rates", "dpc_rates_arrays", "rates"),
    ("securebc.rates", "dpc_secrecy_rates", "rates"),
    ("securebc.rates", "bc_rates", "rates"),
    ("securebc.rates", "mac_rates", "rates"),
    ("securebc.rates", "mac_side_objective", "rates"),
    ("securebc.duality", "bc_to_mac", "duality"),
    ("securebc.duality", "mac_to_bc", "duality"),
    ("securebc.duality", "build_context_from_bc", "duality"),
    ("securebc.duality", "wsr_equivalence_pair", "duality"),
    ("securebc.solver", "solve_wsr", "solver"),
    ("securebc.ordering", "compare_orders", "ordering"),
    ("securebc.region", "trace_region", "region"),
    ("securebc.region", "hull_2d", "region"),
    ("securebc.cli", "cli_main", "cli"),
    ("securebc.channel", "load_channel_set", "channel"),
    ("securebc._workers", "map_ordered", "workers"),
)

# linalg and rates functions run hundreds of thousands of times per run, so
# they are aggregated (calls, self time) instead of kept as spans.
_AGGREGATE_ONLY = ("linalg", "rates")


def metric_prefixes() -> list[str]:
    return [f"{layer}.{fn}" for _, fn, layer in TRACED]


def _rebind(old: Callable, new: Callable) -> list[tuple[object, str, Callable]]:
    """Point every securebc module attribute bound to ``old`` at ``new``."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "securebc" or name.startswith("securebc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


class _Patches:
    """Installed wrappers, removable in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, Callable]] = []

    def rebind(self, home: str, fn_name: str, make: Callable[[Callable], Callable]):
        old = getattr(sys.modules[home], fn_name)
        new = functools.wraps(old)(make(old))
        self._undo.extend(_rebind(old, new))

    def remove(self):
        for mod, attr, old in reversed(self._undo):
            setattr(mod, attr, old)
        self._undo.clear()


@dataclass(frozen=True)
class SolveRecord:
    """One solve_wsr call: its budget and, unless it raised, the report's counts."""

    budget: float
    users: int
    error: Optional[str] = None
    price_evals: int = 0
    sweeps: int = 0
    termination: str = ""
    wsr: float = 0.0
    power: float = 0.0

    @property
    def power_gap(self) -> float:
        return abs(self.power - self.budget) / self.budget


class SolveLog:
    """Per-solve records of every solve_wsr call made while installed."""

    def __init__(self, before_solve: Optional[Callable[[], None]] = None):
        self.records: list[SolveRecord] = []
        self._before_solve = before_solve
        self._patches = _Patches()

    def install(self):
        def make(solve):
            def wrapper(ch, *args, **kwargs):
                if self._before_solve is not None:
                    self._before_solve()
                try:
                    rep = solve(ch, *args, **kwargs)
                except Exception as exc:
                    self.records.append(SolveRecord(ch.power, ch.num_users,
                                                    error=type(exc).__name__))
                    raise
                self.records.append(SolveRecord(
                    ch.power, ch.num_users, price_evals=len(rep.lambda_trace),
                    sweeps=rep.outer_iters, termination=rep.termination,
                    wsr=rep.rates.weighted_sum, power=rep.plan.total_trace))
                return rep
            return wrapper

        self._patches.rebind("securebc.solver", "solve_wsr", make)

    def remove(self):
        self._patches.remove()


class Tracer:
    """Calls and self time per traced function; spans for the coarse layers.

    Self time is a call's duration minus the durations of the traced calls it
    made.  Spans are ``(id, parent id, name, op index, start, end)`` with
    times relative to the tracer's creation; the op index ties the spans of
    one benchmark op together.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.op = -1
        self.psd_calls_in_solver = 0
        self._child_time: list[float] = []
        self._open_spans: list[int] = []
        self._solver_depth = 0
        self._t0 = time.perf_counter()
        self._patches = _Patches()

    def install(self):
        for home, fn_name, layer in TRACED:
            self._patches.rebind(home, fn_name,
                                 functools.partial(self._wrap, f"{layer}.{fn_name}", layer))

    def remove(self):
        self._patches.remove()

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        keep_span = layer not in _AGGREGATE_ONLY
        is_solver = name == "solver.solve_wsr"
        is_psd = name == "linalg.project_psd"
        child_time = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if is_psd and self._solver_depth:
                self.psd_calls_in_solver += 1
            if is_solver:
                self._solver_depth += 1
            if keep_span:
                span_id = len(self.spans) + len(self._open_spans) + 1
                parent = self._open_spans[-1] if self._open_spans else 0
                self._open_spans.append(span_id)
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                duration = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += duration - child_time.pop()
                if child_time:
                    child_time[-1] += duration
                if keep_span:
                    self._open_spans.pop()
                    self.spans.append((span_id, parent, name, self.op,
                                       t0 - self._t0, t1 - self._t0))
                if is_solver:
                    self._solver_depth -= 1

        return wrapper
