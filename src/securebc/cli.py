"""Command-line surface.

Subcommands::

    solve           one weighted solve, report printed as JSON
    region          weight-sweep boundary trace, written as CSV
    compare-orders  per-permutation achieved weighted sums plus a verdict
    duality-check   randomized transform verification, pass/fail summary
    gen-channels    write a random channel file (seeded, reproducible)

Exit codes: 0 success, 1 usage error, 2 numerical failure (the error class
name goes to stderr).  CSV numbers carry 10 significant digits; files are
byte-identical across runs with the same inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import fields
from typing import Optional, Sequence

import numpy as np

from .channel import (WeightVector, load_channel_set, matrix_to_json, read_json_object,
                      sample_channel_set, save_channel_set)
from .duality import duality_property_ensemble
from .errors import ParseError, SecureBcError
from .ordering import compare_orders, optimal_order
from .rates import EncodingOrder
from .region import BOTH_CORNERS, THEOREM, hull_2d, trace_region
from .solver import SolverConfig, SolverReport, solve_wsr


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit(2)
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _parse_weights(text: str) -> WeightVector:
    try:
        return WeightVector([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise UsageError(f"bad weights {text!r}: {exc}") from exc


def _parse_order(text: str, K: int) -> Optional[EncodingOrder]:
    if text == "theorem":
        return None
    try:
        perm = [int(v) for v in text.split(",")]
        order = EncodingOrder(perm)
    except ValueError as exc:
        raise UsageError(f"bad order {text!r}: {exc}") from exc
    if len(order) != K:
        raise UsageError(f"order {text!r} does not cover all {K} users")
    return order


def _load_config(path: Optional[str]) -> Optional[SolverConfig]:
    if path is None:
        return None
    try:
        doc = read_json_object(path)
    except ParseError as exc:
        raise UsageError(f"config {path}: {exc}") from exc
    known = {f.name for f in fields(SolverConfig)}
    unknown = set(doc) - known
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    try:
        return SolverConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config: {exc}") from exc


def _report_json(report: SolverReport, order: EncodingOrder,
                 w: WeightVector) -> dict:
    return {
        "order": list(order.permutation),
        "weights": list(w.weights),
        "rates_per_user": list(report.rates.per_user),
        "weighted_sum": report.rates.weighted_sum,
        "sum_rate": report.rates.sum_rate,
        "power_used": report.plan.total_trace,
        "lambda_final": report.lambda_final,
        "outer_iters": report.outer_iters,
        "termination": report.termination,
        "objective_trace": list(report.objective_trace),
        "lambda_trace": list(report.lambda_trace),
        "plan": [matrix_to_json(m) for m in report.plan.matrices],
    }


@contextmanager
def _output(path: Optional[str]):
    """An output flag's sink: standard output for none or ``-``, else the file."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            yield fh


def _write_table(path: Optional[str], header: list[str], rows) -> None:
    """A CSV table of string cells to the ``_output`` sink of ``path``."""
    with _output(path) as out:
        for row in [header, *rows]:
            out.write(",".join(row) + "\n")


def _order_tag(order: EncodingOrder) -> str:
    return ">".join(str(u) for u in order.permutation)


def _weighted_instance(args) -> tuple:
    """The channels, weights and solver config named by ``args``."""
    ch = load_channel_set(args.channels)
    w = _parse_weights(args.weights)
    if len(w) != ch.num_users:
        raise UsageError(f"{len(w)} weights for {ch.num_users} users")
    return ch, w, _load_config(args.config)


def _cmd_solve(args) -> int:
    ch, w, cfg = _weighted_instance(args)
    order = _parse_order(args.order, ch.num_users) or optimal_order(w)
    report = solve_wsr(ch, w, order, cfg)
    json.dump(_report_json(report, order, w), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


def _cmd_region(args) -> int:
    if not 0 < args.step <= 1:
        raise UsageError(f"--step must be in (0, 1], got {args.step}")
    ch = load_channel_set(args.channels)
    if args.policy in (THEOREM, BOTH_CORNERS):
        policy = args.policy
    else:
        policy = _parse_order(args.policy, ch.num_users)
    cfg = _load_config(args.config)
    trace = trace_region(ch, args.step, policy, cfg)
    K = ch.num_users
    _write_table(args.output, [f"{c}_{i + 1}" for c in "wR" for i in range(K)] + ["wsr", "order"],
                 ([_fmt(v) for v in (*p.weights.weights, *p.rates.per_user, p.wsr)]
                  + [_order_tag(p.order)] for p in trace.points))
    if args.hull_output:
        if K == 2:
            hull = hull_2d([p.rates.per_user for p in trace.points] + [(0.0, 0.0)])
            _write_table(args.hull_output, ["R_1", "R_2"],
                         ([_fmt(x), _fmt(y)] for x, y in hull))
        else:
            print("hull output skipped: hulling supports two users only; "
                  "the raw point cloud is in the main CSV", file=sys.stderr)
    return 0


def _cmd_compare_orders(args) -> int:
    ch, w, cfg = _weighted_instance(args)
    cmp = compare_orders(ch, w, cfg)
    K = ch.num_users
    nan = [float("nan")] * K
    _write_table(args.output, ["order", "wsr"] + [f"R_{i + 1}" for i in range(K)],
                 ([_order_tag(res.order), _fmt(res.wsr)]
                  + [_fmt(r) for r in (nan if res.rates is None else res.rates.per_user)]
                  for res in cmp.per_order))
    print(f"best order {cmp.best_order}; rule order {cmp.theorem_order}; "
          f"agreement: {'yes' if cmp.matches_rule(w) else 'no'}")
    return 0


def _cmd_duality_check(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    if not 0 < args.tol < float("inf"):
        raise UsageError(f"--tol must be finite and positive, got {args.tol}")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    report = duality_property_ensemble(num_instances=args.seeds, seed=args.seed,
                                       tol=args.tol)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"duality-check {status}: {report['instances']} instances, "
          f"{report['failures']} failures")
    print(f"  max rate error        {report['max_rate_error']:.3e}")
    print(f"  max trace error       {report['max_trace_error']:.3e}")
    print(f"  max round-trip error  {report['max_roundtrip_error']:.3e}")
    print(f"  max objective error   {report['max_wsr_equivalence_error']:.3e}")
    print(f"  min ladder eigenvalue {report['min_ladder_eigenvalue']:.12f}")
    return 0 if report["passed"] else 2


def _cmd_gen_channels(args) -> int:
    try:
        nk = [int(v) for v in args.nk.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --nk {args.nk!r}") from exc
    if min([args.K, args.nt, args.ne] + nk) < 1:
        raise UsageError("--K, --nt, --ne and every --nk entry must be at least 1")
    if len(nk) not in (1, args.K):
        raise UsageError(f"--nk has {len(nk)} entries for {args.K} users")
    if not 0 < args.power < float("inf"):
        raise UsageError(f"--power must be finite and positive, got {args.power}")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    if len(nk) == 1:
        nk = nk * args.K
    ch = sample_channel_set(args.seed, args.K, args.nt, nk, args.ne, args.power)
    with _output(args.output) as out:
        save_channel_set(ch, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="securebc",
                     description="secure broadcasting rate regions and solvers")
    sub = parser.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--channels", required=True)
    instance.add_argument("--config", default=None)

    p = sub.add_parser("solve", parents=[instance], help="solve one weighted instance")
    p.add_argument("--weights", required=True, help="comma-separated, e.g. 0.5,0.5")
    p.add_argument("--order", default="theorem", help="'theorem' or e.g. 2,1")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("region", parents=[instance],
                       help="trace the rate region over a weight grid")
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--policy", default=THEOREM,
                   help="'theorem', 'both_corners', or a fixed order like 2,1")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")
    p.add_argument("--hull-output", default=None,
                   help="optional convex-hull CSV (two users only; - for stdout)")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("compare-orders", parents=[instance],
                       help="solve under every encoding order")
    p.add_argument("--weights", required=True)
    p.add_argument("--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_compare_orders)

    p = sub.add_parser("duality-check", help="randomized transform verification")
    p.add_argument("--seeds", type=int, default=200, help="instance count")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_duality_check)

    p = sub.add_parser("gen-channels", help="write a random channel JSON file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--nt", type=int, required=True)
    p.add_argument("--nk", required=True, help="per-user antennas, e.g. 2,2,1")
    p.add_argument("--ne", type=int, required=True)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--output", required=True, help="JSON path (- for stdout)")
    p.set_defaults(func=_cmd_gen_channels)
    return parser


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: a missing file or a directory path
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SecureBcError, np.linalg.LinAlgError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
