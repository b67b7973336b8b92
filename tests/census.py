"""A seeded census of random solves, for the test suite and as a script.

Each solve draws, from ``numpy.random.default_rng(seed)``: K from 1-6, n_t
from 2-8, each n_k from 1-2, n_e from 1-4, an instance seed below 2**31
and the weights ``rng.random(K) + 0.05``.  The budget cycles through
``POWERS`` (-30 to +70 dB) and the order is ``optimal_order(w)``.

As a script it writes one CSV row per solve, so two trees can be compared
solve by solve (a label flip shows as one changed row)::

    PYTHONPATH=src python tests/census.py --seed 7 --count 40 --out rows.csv

A solve that raises gets its error class as its label and NaN numbers.

Each row whose users all have one antenna also gets two reference
columns, from the single-user secrecy capacities C_k of
``oracles.misome_capacity``: ``floor`` = max_k w_k C_k(P), what serving the
best user alone reaches, and ``ceiling`` = sum_k w_k C_k((1 + BUDGET_SLACK) P),
as no user's secrecy rate beats its capacity at the largest power a plan
may use.  At K = 1 both are the capacity.  Other rows leave them empty.

Each row at the top power ``POWERS[-1]`` also gets ``dof``, the pre-log
``oracles.secure_dof`` of its weights and antenna counts, and ``price`` =
``lambda_final * P`` from the row's own solve (NaN if it raises).  By the
envelope theorem dOPT/dP is the budget's price, and at high SNR OPT grows
as dof * ln P, so a solve that meets its budget has price -> dof as P
grows (Khisti and Wornell, IEEE Trans. IT 56(11), 2010).  Other
rows leave both empty, and every row costs one solve.

``--diff OLD.csv NEW.csv`` compares two such files, row by row, with the
standard library alone: it prints the sweep and price-evaluation totals by
power, every label flip and every row whose weighted sum moved by more than
``WSR_MOVE * (1 + |old WSR|)``::

    python tests/census.py --diff old.csv new.csv

``--gate FILE`` reads a census, with the standard library alone, and lists
every ``converged`` row more than ``WSR_MOVE * (1 + floor)`` below its floor
or more than ``CEILING_TOL`` above its ceiling, and, in a file with a ``price``
column, every ``converged`` row whose price is more than ``DOF_TOL`` off its
``dof`` (or NaN); it exits 1 if it lists any, and 2 if the file has no rows
or no ``floor`` and ``ceiling`` columns.  A file without a ``price`` column
gets the sandwich check alone::

    python tests/census.py --gate rows.csv
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

POWERS = (1e-3, 1.0, 1e2, 1e4, 1e7)
ORACLE_FIELDS = ("floor", "ceiling")
FIELDS = ("seed", "K", "n_t", "n_k", "n_e", "P", "label", "wsr", "tr_over_P", "sweeps",
          "evals") + ORACLE_FIELDS + ("dof", "price")
# a weighted sum that moves by more than this times 1 + |old WSR| is listed,
# and so is a converged one this far below its floor (times 1 + floor)
WSR_MOVE = 1e-6
# a weighted sum more than this above its ceiling is listed
CEILING_TOL = 1e-12
# a converged top-power price more than this off its dof is listed
DOF_TOL = 0.01


def cases(seed: int, count: int):
    """(instance seed, channels, weights) of each of ``count`` solves."""
    # imported here and in solve(), so that --diff needs no package
    import numpy as np

    from securebc import WeightVector, sample_channel_set

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
    from securebc import optimal_order, solve_wsr

    return solve_wsr(ch, w, optimal_order(w))


def sandwich(ch, w):
    """(floor, ceiling) of a solve whose users all have one antenna (see
    the module docstring), else None."""
    from oracles import misome_capacity
    from securebc.rates import BUDGET_SLACK

    if set(ch.n_k) != {1}:
        return None
    G, P = ch.eavesdropper, ch.power
    floor = max(wk * misome_capacity(h, G, P) for wk, h in zip(w.weights, ch.user_channels))
    ceiling = sum(wk * misome_capacity(h, G, (1.0 + BUDGET_SLACK) * P)
                  for wk, h in zip(w.weights, ch.user_channels))
    return floor, ceiling


def outside(label: str, wsr: float, floor: float, ceiling: float):
    """How a solve's answer leaves its sandwich, or None if it does not: a
    ``converged`` one more than ``WSR_MOVE * (1 + floor)`` below its floor
    or more than ``CEILING_TOL`` above its ceiling."""
    if label != "converged":
        return None
    if wsr < floor - WSR_MOVE * (1.0 + floor):
        return f"{wsr:.9g} below floor {floor:.9g} ({wsr - floor:+.3g})"
    if wsr > ceiling + CEILING_TOL:
        return f"{wsr:.9g} above ceiling {ceiling:.9g} ({wsr - ceiling:+.3g})"
    return None


def off_price(label: str, price: float, dof: float):
    """How a top-power solve's price leaves its dof, or None if it does not:
    a ``converged`` one more than ``DOF_TOL`` off it, or NaN."""
    if label != "converged" or abs(price - dof) <= DOF_TOL:
        return None
    return f"price {price:.6g} off dof {dof:.6g} ({price - dof:+.3g})"


def row(s: int, ch, w) -> dict:
    """The CSV row of one solve."""
    from oracles import secure_dof

    out = {"seed": s, "K": ch.num_users, "n_t": ch.n_t, "n_k": " ".join(map(str, ch.n_k)),
           "n_e": ch.n_e, "P": ch.power}
    out.update(zip(ORACLE_FIELDS, sandwich(ch, w) or ("", "")))
    top = ch.power == POWERS[-1]
    out["dof"] = secure_dof(w.weights, ch.n_k, ch.n_t, ch.n_e) if top else ""
    try:
        report = solve(ch, w)
    except Exception as exc:
        return dict(out, label=type(exc).__name__, wsr=math.nan, tr_over_P=math.nan,
                    sweeps=0, evals=0, price=math.nan if top else "")
    return dict(out, label=report.termination, wsr=report.rates.weighted_sum,
                tr_over_P=report.plan.total_trace / ch.power, sweeps=report.outer_iters,
                evals=len(report.lambda_trace),
                price=report.lambda_final * ch.power if top else "")


def diff(old: list[dict], new: list[dict]) -> list[str]:
    """The report lines of ``--diff`` on two censuses' rows, matched by place."""
    if [(r["seed"], r["P"]) for r in old] != [(r["seed"], r["P"]) for r in new]:
        raise ValueError("the two censuses hold different solves")
    lines = ["power      sweeps old -> new      evals old -> new"]
    sums: dict[str, list[int]] = {}
    for a, b in zip(old, new):
        tally = sums.setdefault(a["P"], [0, 0, 0, 0])
        for i, v in enumerate((a["sweeps"], b["sweeps"], a["evals"], b["evals"])):
            tally[i] += int(v)
    sums["total"] = [sum(t[i] for t in sums.values()) for i in range(4)]
    for power, (s0, s1, e0, e1) in sums.items():
        lines.append(f"{power:<10} {s0:>8} -> {s1:<8}    {e0:>6} -> {e1:<6}")
    tag = [_tag(i, a) for i, a in enumerate(old)]
    flips = [f"  {tag[i]}: {a['label']} -> {b['label']}"
             for i, (a, b) in enumerate(zip(old, new)) if a["label"] != b["label"]]
    lines.append(f"label flips: {len(flips)}")
    lines += flips
    moves = []
    for i, (a, b) in enumerate(zip(old, new)):
        w0, w1 = float(a["wsr"]), float(b["wsr"])
        if math.isnan(w0) and math.isnan(w1):
            continue
        if not abs(w1 - w0) <= WSR_MOVE * (1.0 + abs(w0)):  # a NaN on one side moves too
            moves.append(f"  {tag[i]}: {w0:.9g} -> {w1:.9g} ({w1 - w0:+.3g})")
    lines.append(f"weighted sums moved by more than {WSR_MOVE:g} (1 + |WSR|): {len(moves)}")
    return lines + moves


def gate(rows: list[dict]) -> tuple[list[str], int]:
    """The report lines of ``--gate`` on a census's rows, and how many rows
    they list: a count, then every row outside its sandwich; in a file with a
    ``price`` column, a second count, then every row off its dof."""
    checked = [(i, r) for i, r in enumerate(rows) if r.get("floor")]
    out = [f"  {_tag(i, r)}: {why}" for i, r in checked
           if (why := outside(r["label"], float(r["wsr"]), float(r["floor"]),
                              float(r["ceiling"])))]
    lines = [f"rows with a sandwich: {len(checked)}; converged outside it: {len(out)}"] + out
    if "price" not in rows[0]:
        return lines, len(out)
    priced = [(i, r) for i, r in enumerate(rows) if r["price"]]
    off = [f"  {_tag(i, r)}: {why}" for i, r in priced
           if (why := off_price(r["label"], float(r["price"]), float(r["dof"])))]
    return lines + [f"rows with a price: {len(priced)}; converged off their dof by more "
                    f"than {DOF_TOL:g}: {len(off)}"] + off, len(out) + len(off)


def _tag(i: int, r: dict) -> str:
    return f"row {i} (seed {r['seed']}, K {r['K']}, n_t {r['n_t']}, P {r['P']})"


def _read(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--out", help="CSV path")
    p.add_argument("--diff", nargs=2, metavar=("OLD.csv", "NEW.csv"),
                   help="compare two census files instead of running one")
    p.add_argument("--gate", metavar="FILE",
                   help="list the converged rows of a census outside their sandwich "
                        "or off their dof instead of running one; exit 1 if there are any")
    args = p.parse_args(argv)
    if args.diff:
        print("\n".join(diff(*map(_read, args.diff))))
        return
    if args.gate:
        rows = _read(args.gate)
        if not rows or not set(ORACLE_FIELDS) <= rows[0].keys():
            p.error(f"{args.gate} has no rows with the columns {' and '.join(ORACLE_FIELDS)}")
        lines, listed = gate(rows)
        print("\n".join(lines))
        if listed:
            sys.exit(1)
        return
    if None in (args.seed, args.count, args.out):
        p.error("--seed, --count and --out are required without --diff or --gate")
    with open(args.out, "w", newline="") as fh:
        sink = csv.DictWriter(fh, FIELDS)
        sink.writeheader()
        for case in cases(args.seed, args.count):
            sink.writerow(row(*case))


if __name__ == "__main__":
    main()
