"""A seeded census of random solves, for the test suite and as a script.

Each solve draws, from ``numpy.random.default_rng(seed)``: K from 1-6, n_t
from 2-8, each n_k from 1-2, n_e from 1-4, an instance seed below 2**31
and the weights ``rng.random(K) + 0.05``.  The budget cycles through
``POWERS`` (-30 to +70 dB) and the order is ``optimal_order(w)``.

As a script it writes one CSV row per solve, so two trees can be compared
solve by solve (a label flip shows as one changed row)::

    PYTHONPATH=src python tests/census.py --seed 7 --count 40 --out rows.csv

A solve that raises gets its error class as its label and NaN numbers.
"""

from __future__ import annotations

import argparse
import csv
import math

import numpy as np

from securebc import WeightVector, optimal_order, sample_channel_set, solve_wsr

POWERS = (1e-3, 1.0, 1e2, 1e4, 1e7)
FIELDS = ("seed", "K", "n_t", "n_k", "n_e", "P", "label", "wsr", "tr_over_P", "sweeps")


def cases(seed: int, count: int):
    """(instance seed, channels, weights) of each of ``count`` solves."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        K = int(rng.integers(1, 7))
        n_t = int(rng.integers(2, 9))
        n_k = [int(v) for v in rng.integers(1, 3, size=K)]
        n_e = int(rng.integers(1, 5))
        s = int(rng.integers(2 ** 31))
        w = WeightVector(rng.random(K) + 0.05)
        yield s, sample_channel_set(s, K, n_t, n_k, n_e, POWERS[i % len(POWERS)]), w


def solve(ch, w):
    """A census solve: the report of ``solve_wsr`` under ``optimal_order(w)``."""
    return solve_wsr(ch, w, optimal_order(w))


def row(s: int, ch, w) -> dict:
    """The CSV row of one solve."""
    out = {"seed": s, "K": ch.num_users, "n_t": ch.n_t, "n_k": " ".join(map(str, ch.n_k)),
           "n_e": ch.n_e, "P": ch.power}
    try:
        report = solve(ch, w)
    except Exception as exc:
        return dict(out, label=type(exc).__name__, wsr=math.nan, tr_over_P=math.nan,
                    sweeps=0)
    return dict(out, label=report.termination, wsr=report.rates.weighted_sum,
                tr_over_P=report.plan.total_trace / ch.power, sweeps=report.outer_iters)


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV path")
    args = p.parse_args(argv)
    with open(args.out, "w", newline="") as fh:
        sink = csv.DictWriter(fh, FIELDS)
        sink.writeheader()
        for case in cases(args.seed, args.count):
            sink.writerow(row(*case))


if __name__ == "__main__":
    main()
