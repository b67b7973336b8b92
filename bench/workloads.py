"""The benchmark workloads: inputs drawn from the seed, the ops, and their checks.

Each workload builds its inputs in a ``setup`` callable (run several times,
so set-up cost is measured as a median) and returns a list of :class:`Op`.
An op's ``run`` is the timed call into the package; its ``check`` verifies
the output afterwards and returns a JSON-able fingerprint for the
exact-repeat check, or raises :class:`CheckFailed`.

Work is fixed by ``(seed, seconds)``: the instance counts are derived from
``seconds``, so counts and outputs repeat exactly for a given pair.  The
run times they lead to are listed in bench/README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Criterion 1 of the acceptance suite: the two w = (0.5, 0.5) corners of the
# built-in two-user example, by encoding order.
REGION_CORNERS = {"1>2": (0.8334, 0.7643), "2>1": (0.5324, 1.065)}
REGION_TOL = 1e-2
# Criterion 2: compare_orders verdicts on the built-in three-user example.
ORDER_VERDICTS = (((0.15, 0.2, 0.65), (3, 2, 1)), ((0.2, 0.1, 0.7), (3, 1, 2)))
RANDOM_K3_WEIGHTS = (0.2, 0.3, 0.5)
# -30, 0 and +70 dB; every probed instance raises InnerNotImproved at 1e7.
SNR_POWERS = (1e-3, 1.0, 1e7)
SNR_WEIGHTS = (0.3, 0.7)
# The solver counts a plan as feasible up to this relative excess.
BUDGET_SLACK = 1e-6
DUALITY_TOL = 1e-8
# Instances per second of --seconds, sized from probes on a 2-core x86 box.
SNR_INSTANCES_PER_S = 2
DUALITY_INSTANCES_PER_S = 200


class CheckFailed(Exception):
    """An op returned, but its output is wrong or not finite."""


class OpFailed(Exception):
    """An op failed inside the package; ``error_class`` names the cause."""

    def __init__(self, error_class: str, message: str):
        super().__init__(message)
        self.error_class = error_class


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], object]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[], object]
    ops: Callable[[object], list]


def _instance_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


def _round_trip(sb, ch, path: Path):
    """Save a channel set as JSON and load it back; the ops see the loaded copy."""
    sb.save_channel_set(ch, str(path))
    loaded = sb.load_channel_set(str(path))
    same = (loaded.power == ch.power
            and (loaded.eavesdropper == ch.eavesdropper).all()
            and all((a == b).all() for a, b in zip(loaded.user_channels, ch.user_channels)))
    if not same:
        raise CheckFailed(f"{path.name}: channel JSON round trip changed the instance")
    return loaded


def _finite(values, what: str):
    values = list(values)
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"{what}: non-finite value in {values}")
    return values


# ---------------------------------------------------------------------------
# region-k2


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def region_k2(sb, seed: int, seconds: int, workdir: Path) -> Workload:
    """`securebc region --policy both_corners --hull-output` on channel files.

    The built-in example is traced on a grid of 4*seconds steps, which
    includes the tied w=(0.5, 0.5) point where both corners are solved.  Each
    seed-drawn instance (K=2, n_t=2, n_k=2, n_e=1, P=1) is traced at step 1,
    its two end points: at step 0.5 the tied point made one file's time
    swing from 0.6 to 5.9 s, more than the rest of the run's spread.
    """
    builtin_step = 1.0 / (4 * seconds)
    seeds = _instance_seeds("region-k2", seed, max(1, seconds // 4))

    def setup():
        files = []
        sets = [("example", sb.example_two_user(), builtin_step)]
        sets += [(f"k2-{s}", sb.sample_channel_set(s, 2, 2, 2, 1, 1.0), 1.0)
                 for s in seeds]
        for name, ch, step in sets:
            path = workdir / f"{name}.json"
            _round_trip(sb, ch, path)
            files.append((name, path, step))
        return files

    def make_op(name: str, path: Path, step: float) -> Op:
        out = workdir / f"{name}.csv"
        hull = workdir / f"{name}.hull.csv"
        argv = ["region", "--channels", str(path), "--step", repr(step),
                "--policy", "both_corners", "--output", str(out),
                "--hull-output", str(hull)]

        def run():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = sb.cli.cli_main(argv)
            if code != 0:
                text = err.getvalue().strip()
                raise OpFailed(text.split(":", 1)[0] or f"exit {code}",
                               f"exit {code}: {text}")
            return code

        def check(_):
            rows = _read_rows(out)
            if not rows:
                raise CheckFailed(f"{out.name}: no rows")
            for row in rows:
                _finite((float(row[k]) for k in ("w_1", "w_2", "R_1", "R_2", "wsr")),
                        f"{out.name} row {row}")
            for row in _read_rows(hull):
                _finite((float(row["R_1"]), float(row["R_2"])), f"{hull.name} row {row}")
            if name == "example":
                for order, expected in REGION_CORNERS.items():
                    got = [(float(r["R_1"]), float(r["R_2"])) for r in rows
                           if r["w_1"] == "0.5" and r["order"] == order]
                    if len(got) != 1 or max(abs(g - e) for g, e in zip(got[0], expected)) > REGION_TOL:
                        raise CheckFailed(f"w=(0.5,0.5) corner {order}: got {got}, "
                                          f"expected {expected} within {REGION_TOL}")
            return {"points": len(rows),
                    "sha256": hashlib.sha256(out.read_bytes() + b"\0" + hull.read_bytes()).hexdigest()}

        return Op(name, run, check)

    return Workload(setup, lambda files: [make_op(*f) for f in files])


# ---------------------------------------------------------------------------
# orders-k3


def orders_k3(sb, seed: int, seconds: int, workdir: Path) -> Workload:
    """compare_orders on the built-in three-user example at criterion 2's
    weights, plus random K=3 instances (n_t=2, n_k=2, n_e=1, P=1).

    As in snr-sweep, the random instances are the first draws of a fixed
    generator and the seed only shuffles the op order: one comparison on a
    seed-drawn instance took 1.4 to 12 s, which moved the run's wall time by
    up to a quarter from seed to seed.
    """
    seeds = _instance_seeds("orders-k3", 0, max(1, seconds // 20))

    def setup():
        ex = _round_trip(sb, sb.example_three_user(), workdir / "example3.json")
        cases = [(f"example3 w={w}", ex, w, verdict) for w, verdict in ORDER_VERDICTS]
        for s in seeds:
            ch = _round_trip(sb, sb.sample_channel_set(s, 3, 2, 2, 1, 1.0),
                             workdir / f"k3-{s}.json")
            cases.append((f"k3-{s}", ch, RANDOM_K3_WEIGHTS, None))
        random.Random(f"orders-k3:{seed}").shuffle(cases)
        return cases

    def make_op(label, ch, weights, verdict) -> Op:
        def run():
            return sb.compare_orders(ch, sb.WeightVector(weights))

        def check(cmp):
            for res in cmp.per_order:
                if res.error is not None or res.rates is None:
                    raise CheckFailed(f"order {res.order}: {res.error}")
                _finite([res.wsr, *res.rates.per_user], f"order {res.order}")
            best = tuple(cmp.best_order.permutation)
            if verdict is not None and best != verdict:
                raise CheckFailed(f"best order {best}, expected {verdict}")
            return {"best": best, "rule": bool(cmp.matches_rule(sb.WeightVector(weights))),
                    "wsr": [repr(float(r.wsr)) for r in cmp.per_order]}

        return Op(label, run, check)

    return Workload(setup, lambda cases: [make_op(*c) for c in cases])


# ---------------------------------------------------------------------------
# snr-sweep


def snr_sweep(sb, seed: int, seconds: int, workdir: Path) -> Workload:
    """Direct solve_wsr on K=2, n_t=4, n_k=2, n_e=2 instances, each at every
    power in SNR_POWERS, weights (0.3, 0.7), rule order.

    The instance set is the first draws of a fixed generator, and the seed
    only shuffles the op order.  One instance's cost is heavy-tailed (a
    P=1e-3 solve takes 0.13 to 5.5 s), and seed-drawn sets of 30 made the
    run's wall time spread by 27% (interquartile range over median) across
    ten seeds, more than the bound.
    """
    seeds = _instance_seeds("snr-sweep", 0, max(1, round(seconds * SNR_INSTANCES_PER_S)))

    def setup():
        cases = []
        for s in seeds:
            base = _round_trip(sb, sb.sample_channel_set(s, 2, 4, 2, 2, 1.0),
                               workdir / f"k2n4-{s}.json")
            for power in SNR_POWERS:
                ch = sb.ChannelSet(list(base.user_channels), base.eavesdropper, power)
                cases.append((f"k2n4-{s} P={power:g}", ch))
        random.Random(f"snr-sweep:{seed}").shuffle(cases)
        return cases

    w = sb.WeightVector(SNR_WEIGHTS)
    order = sb.optimal_order(w)

    def make_op(label, ch) -> Op:
        def run():
            return sb.solve_wsr(ch, w, order)

        def check(rep):
            rates = _finite(rep.rates.per_user, "rates")
            power = rep.plan.total_trace
            if not power <= ch.power * (1 + BUDGET_SLACK):
                raise CheckFailed(f"plan uses {power!r} of budget {ch.power!r}")
            return {"rates": [repr(float(r)) for r in rates], "power": repr(float(power))}

        return Op(label, run, check)

    return Workload(setup, lambda cases: [make_op(*c) for c in cases])


# ---------------------------------------------------------------------------
# duality-ens


def duality_ens(sb, seed: int, seconds: int, workdir: Path) -> Workload:
    """duality_property_ensemble(num_instances=1) over seed-drawn ensemble seeds."""
    seeds = _instance_seeds("duality-ens", seed, DUALITY_INSTANCES_PER_S * seconds)

    def make_op(s: int) -> Op:
        def run():
            return sb.duality_property_ensemble(num_instances=1, seed=s, tol=DUALITY_TOL)

        def check(report):
            if not report["passed"]:
                raise CheckFailed(f"ensemble seed {s}: {report}")
            return {k: repr(v) for k, v in sorted(report.items())}

        return Op(f"ens-{s}", run, check)

    return Workload(lambda: seeds, lambda ss: [make_op(s) for s in ss])


WORKLOADS = {
    "region-k2": region_k2,
    "orders-k3": orders_k3,
    "snr-sweep": snr_sweep,
    "duality-ens": duality_ens,
}
