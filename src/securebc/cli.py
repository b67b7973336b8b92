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
from dataclasses import fields
from typing import Optional, Sequence

import numpy as np

from .channel import (WeightVector, load_channel_set, matrix_to_json,
                      sample_channel_set, save_channel_set)
from .duality import duality_property_ensemble
from .errors import SecureBcError
from .ordering import compare_orders, optimal_order
from .rates import EncodingOrder
from .region import BOTH_CORNERS, THEOREM, hull_2d, trace_region
from .solver import SolverConfig, SolverReport, solve_wsr_multistart


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON or text encoding
            raise UsageError(f"config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config {path}: top-level JSON value must be an object")
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


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="ascii", newline=""), True


def _order_tag(order: EncodingOrder) -> str:
    return ">".join(str(u) for u in order.permutation)


def _cmd_solve(args) -> int:
    if args.starts < 1:
        raise UsageError(f"--starts must be at least 1, got {args.starts}")
    ch = load_channel_set(args.channels)
    w = _parse_weights(args.weights)
    if len(w) != ch.num_users:
        raise UsageError(f"{len(w)} weights for {ch.num_users} users")
    order = _parse_order(args.order, ch.num_users) or optimal_order(w)
    report = solve_wsr_multistart(ch, w, order, _load_config(args.config),
                                  starts=args.starts, seed=args.seed)
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
    out, close = _open_out(args.output)
    try:
        header = ([f"w_{i + 1}" for i in range(K)]
                  + [f"R_{i + 1}" for i in range(K)] + ["wsr", "order"])
        out.write(",".join(header) + "\n")
        for p in trace.points:
            row = ([_fmt(v) for v in p.weights.weights]
                   + [_fmt(r) for r in p.rates.per_user]
                   + [_fmt(p.wsr), _order_tag(p.order)])
            out.write(",".join(row) + "\n")
    finally:
        if close:
            out.close()
    if args.hull_output:
        if K == 2:
            pts = [(p.rates.per_user[0], p.rates.per_user[1]) for p in trace.points]
            pts.append((0.0, 0.0))
            hull = hull_2d(pts)
            with open(args.hull_output, "w", encoding="ascii", newline="") as fh:
                fh.write("R_1,R_2\n")
                for x, y in hull:
                    fh.write(f"{_fmt(x)},{_fmt(y)}\n")
        else:
            print("hull output skipped: hulling supports two users only; "
                  "the raw point cloud is in the main CSV", file=sys.stderr)
    return 0


def _cmd_compare_orders(args) -> int:
    ch = load_channel_set(args.channels)
    w = _parse_weights(args.weights)
    if len(w) != ch.num_users:
        raise UsageError(f"{len(w)} weights for {ch.num_users} users")
    cfg = _load_config(args.config)
    cmp = compare_orders(ch, w, cfg)
    K = ch.num_users
    out, close = _open_out(args.output)
    try:
        out.write(",".join(["order", "wsr"] + [f"R_{i + 1}" for i in range(K)]) + "\n")
        for res in cmp.per_order:
            rates = (res.rates.per_user if res.rates is not None
                     else [float("nan")] * K)
            out.write(",".join([_order_tag(res.order), _fmt(res.wsr)]
                               + [_fmt(r) for r in rates]) + "\n")
    finally:
        if close:
            out.close()
    print(f"best order {cmp.best_order}; rule order {cmp.theorem_order}; "
          f"agreement: {'yes' if cmp.matches_rule(w) else 'no'}")
    return 0


def _cmd_duality_check(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    if not 0 < args.tol < float("inf"):
        raise UsageError(f"--tol must be finite and positive, got {args.tol}")
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
    if args.nk is None:
        raise UsageError("--nk is required")
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
    if len(nk) == 1:
        nk = nk * args.K
    ch = sample_channel_set(args.seed, args.K, args.nt, nk, args.ne, args.power)
    save_channel_set(ch, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="securebc",
                     description="secure broadcasting rate regions and solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one weighted instance")
    p.add_argument("--channels", required=True)
    p.add_argument("--weights", required=True, help="comma-separated, e.g. 0.5,0.5")
    p.add_argument("--order", default="theorem", help="'theorem' or e.g. 2,1")
    p.add_argument("--config", default=None)
    p.add_argument("--starts", type=int, default=1, help="random restarts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("region", help="trace the rate region over a weight grid")
    p.add_argument("--channels", required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--policy", default=THEOREM,
                   help="'theorem', 'both_corners', or a fixed order like 2,1")
    p.add_argument("--config", default=None)
    p.add_argument("--output", default=None, help="CSV path (default stdout)")
    p.add_argument("--hull-output", default=None,
                   help="optional convex-hull CSV (two users only)")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("compare-orders", help="solve under every encoding order")
    p.add_argument("--channels", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--config", default=None)
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
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_gen_channels)
    return parser


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SecureBcError, np.linalg.LinAlgError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
