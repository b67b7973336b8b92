"""Layered benchmark for securebc.

Usage, from the root of a checkout::

    python3 bench/run.py --workload region-k2 --seed 1 --seconds 7 --trace 0

Runs one workload in this process on the package under ``src/``: set-up
(import, instance building, channel JSON round trips, the latter two
repeated), then every op of the workload once, timed, then the output
checks.  ``--trace 1`` makes the same untraced pass first, then a traced
pass, and reports the per-layer metrics, the tracing overhead and whether
the two passes agreed exactly.  The lines before the last name every metric
with its unit; the last line of standard output is one JSON object.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_KERNEL_S, SpeedProbe
from tracing import SolveLog, Tracer, metric_prefixes
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
TERMINATIONS = ("converged", "stalled", "max_iters")
# The metrics of the last JSON line; BENCHMARK.json lists the same names.
END_TO_END = ("wall_ref_s", "setup_s", "peak_rss_mb")
# Of the per-function self times, the JSON line carries only those of
# functions every workload calls: a function a workload never calls reads
# exactly 0 s on every run.  All of them are printed and recorded.
ALWAYS_CALLED = ("linalg.project_psd", "linalg.logdet_i_plus",
                 "rates.dpc_rates_arrays", "rates.dpc_secrecy_rates")


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description="Layered benchmark for securebc.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _tree_hash() -> str:
    """Hash of the package sources and the benchmark: identifies one tree."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "securebc", BENCH_DIR):
        for path in sorted(base.glob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _blas_version(np) -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (TypeError, KeyError, AttributeError):  # numpy without the dict mode
        return "unknown"


def _environment(np, tree: str) -> dict:
    return {
        "commit": _commit(),
        "tree": tree,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _blas_version(np),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def _import_seconds() -> float:
    """Time to import the package in a fresh interpreter (numpy included)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import securebc, securebc.cli; print(time.perf_counter() - t)")
    try:
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                             capture_output=True, text=True, timeout=60, check=True)
    except (OSError, subprocess.SubprocessError) as exc:
        raise BenchError(f"cannot import the package in a fresh interpreter: {exc}") from exc
    return float(out.stdout)


def _tail(times: list[float]):
    """Highest percentile with at least ten ops beyond it; None for <= 20 ops."""
    n = len(times)
    if n <= 20:
        return None
    return {"value": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n, "n": n}


def _run_pass(ops, probe=None, tracer=None) -> dict:
    """Run every op once (timed), then check the outputs.

    The untraced pass samples the speed probe between ops and solves; op
    durations and the wall time leave the probe's own time out.  The traced
    pass runs without it, so probe time never lands in a layer's self time.
    """
    log = SolveLog(probe.tick if probe is not None else None)
    if tracer is not None:
        tracer.install()
    log.install()  # outermost, so the probe runs outside every traced span
    probe_s = (lambda: probe.probe_s) if probe is not None else (lambda: 0.0)
    outcomes, durations = [], []
    cpu_start = time.process_time()
    if probe is not None:
        probe.tick(force=True)
    start = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            if probe is not None:
                probe.tick()
            probed = probe_s()
            t0 = time.perf_counter()
            try:
                outcomes.append((op.run(), None))
            except Exception as exc:  # an op failure is data: counted, never fatal
                outcomes.append((None, (getattr(exc, "error_class", type(exc).__name__),
                                        str(exc)[:200])))
            durations.append(time.perf_counter() - t0 - (probe_s() - probed))
        if probe is not None:
            probe.tick(force=True)
        wall = time.perf_counter() - start - probe_s()
        cpu = time.process_time() - cpu_start
    finally:
        log.remove()
        if tracer is not None:
            tracer.remove()

    errors, wrong, prints = {}, [], []
    for op, (result, err) in zip(ops, outcomes):
        if err is None:
            try:
                prints.append(op.check(result))
                continue
            except CheckFailed as exc:
                err = ("CheckFailed", str(exc)[:300])
                wrong.append(f"{op.label}: {exc}")
        errors.setdefault(err[0], []).append(f"{op.label}: {err[1]}")
        prints.append({"failed": err[0]})

    records = log.records
    solves = [r for r in records if r.error is None]
    values = {
        "price_evals": sum(r.price_evals for r in solves),
        "sweeps": sum(r.sweeps for r in solves),
        "wsr_mean": statistics.fmean(r.wsr for r in solves) if solves else 0.0,
        "power_gap.max": max((r.power_gap for r in solves), default=0.0),
    }
    digest = hashlib.sha256(json.dumps(
        [prints, values, [(r.error, r.price_evals, r.sweeps, r.termination)
                          for r in records]], sort_keys=True).encode()).hexdigest()
    return {"wall_s": wall, "cpu_s": cpu, "durations": durations,
            "wall_ref_s": probe.rescale(wall) if probe is not None else None,
            "kernel_s": probe.kernel_s if probe is not None else [],
            "errors": errors, "wrong": wrong,
            "failed": sum(len(v) for v in errors.values()), "records": records,
            "values": values, "digest": digest,
            "region_points": sum(p.get("points", 0) for p in prints),
            "rule_agreements": sum(p.get("rule", False) for p in prints)}


def _end_to_end(plain: dict, setup_times: list[float], setup_probe: SpeedProbe,
                peak_rss_mb: float) -> dict:
    setup_raw = statistics.median(setup_times)
    return {
        "wall_ref_s": (plain["wall_ref_s"], "s"),
        "wall_s": (plain["wall_s"], "s"),
        "setup_s": (setup_probe.rescale(setup_raw), "s"),
        "setup_raw_s": (setup_raw, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_s.p50": (statistics.median(plain["durations"]), "s"),
    }


def _layer_metrics(traced: dict, tracer: Tracer, overhead: float) -> dict:
    m = {}
    for name in metric_prefixes():
        m[f"{name}.calls"] = (tracer.calls[name], "count")
        m[f"{name}.self_s"] = (tracer.self_s[name], "s")
    solves = [r for r in traced["records"] if r.error is None]
    updates = sum(r.sweeps * r.users for r in solves)
    m["solver.price_evals"] = (traced["values"]["price_evals"], "count")
    m["solver.sweeps"] = (traced["values"]["sweeps"], "count")
    m["solver.block_updates"] = (updates, "count")
    m["solver.trials_per_block_update"] = (
        tracer.psd_calls_in_solver / updates if updates else 0.0, "ratio")
    for t in TERMINATIONS:
        m[f"solver.terminations.{t}"] = (sum(r.termination == t for r in solves), "count")
    m["solver.failures"] = (len(traced["records"]) - len(solves), "count")
    m["solver.wsr_mean"] = (traced["values"]["wsr_mean"], "nats/s/Hz")
    m["solver.power_gap.max"] = (traced["values"]["power_gap.max"], "ratio")
    m["ordering.rule_agreements"] = (traced["rule_agreements"], "count")
    m["region.points"] = (traced["region_points"], "count")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def _repeat_check(key: str, tree: str, res: dict) -> list[str]:
    """Compare with the last run of the same key on this tree, then record
    this run.  Returns the mismatches."""
    path = OUT_DIR / "repeat" / f"{key}.json"
    mismatches = []
    if path.is_file():
        try:
            prev = json.loads(path.read_text())
        except ValueError:
            prev = {}
        if prev.get("tree") == tree and prev.get("digest") != res["digest"]:
            mismatches = [f"{k}: previous run {prev['values'].get(k)!r}, this run {v!r}"
                          for k, v in res["values"].items() if prev["values"].get(k) != v]
            mismatches = mismatches or ["output fingerprints differ from the previous run"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"tree": tree, "digest": res["digest"],
                                "values": res["values"]}))
    return mismatches


def _print_metrics(title: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{title} {name} = {value!r} {unit}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return _main(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def _main(args) -> int:
    if os.environ.get("SECUREBC_WORKERS") is not None:
        raise BenchError("SECUREBC_WORKERS is set; unset it so the thread-pool "
                         "setting cannot leak into the numbers")
    pkg = ROOT / "src" / "securebc"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no package sources at {pkg}")
    load_before = os.getloadavg()
    sys.path.insert(0, str(ROOT / "src"))
    import securebc as sb
    import securebc.cli  # noqa: F401  (region-k2 calls sb.cli.cli_main)
    if Path(sb.__file__).resolve().parent != pkg:
        raise BenchError(f"imported securebc from {sb.__file__}, not from this checkout")
    import numpy as np

    tree = _tree_hash()
    env = _environment(np, tree)
    key = f"{args.workload}-s{args.seed}-t{args.seconds}"
    workdir = OUT_DIR / f"work-{key}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = traced = None
    try:
        workload = WORKLOADS[args.workload](sb, args.seed, args.seconds, workdir)
        setup_probe = SpeedProbe(np)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            setup_probe.tick(force=True)
            t0 = time.perf_counter()
            inputs = workload.setup()
            build_s = time.perf_counter() - t0
            setup_times.append(_import_seconds() + build_s)
        ops = workload.ops(inputs)
        plain = _run_pass(ops, probe=SpeedProbe(np))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = Tracer()
            traced = _run_pass(ops, tracer=tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()

    mismatches = _repeat_check(key, tree, plain)
    if traced is not None and traced["digest"] != plain["digest"]:
        mismatches.append("traced pass differs from the untraced pass: "
                          f"{traced['values']} vs {plain['values']}")
    attempted = len(plain["durations"])
    e2e = _end_to_end(plain, setup_times, setup_probe, peak_rss_mb)
    tail = _tail(plain["durations"])

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops={attempted} solves={len(plain['records'])}")
    _print_metrics("end-to-end", e2e)
    if tail is None:
        print(f"end-to-end op_s.tail = not reported ({attempted} ops, needs > 20) s")
    else:
        print(f"end-to-end op_s.tail = {tail['value']!r} s "
              f"(p{tail['percentile']:.1f}, n={tail['n']})")
    print(f"end-to-end fail_rate = {plain['failed'] / attempted!r} ratio "
          f"({plain['failed']}/{attempted}; error classes "
          f"{ {k: len(v) for k, v in sorted(plain['errors'].items())} })")
    print(f"end-to-end wsr_mean = {plain['values']['wsr_mean']!r} nats/s/Hz "
          f"(over {sum(r.error is None for r in plain['records'])} solves)")
    print(f"end-to-end power_gap.max = {plain['values']['power_gap.max']!r} ratio")
    print(f"cpu_s = {plain['cpu_s']!r} s (process CPU time of the timed pass)")
    print(f"speed probe: median kernel {statistics.median(plain['kernel_s']) * 1e3:.3f} ms "
          f"over {len(plain['kernel_s'])} samples, set-up "
          f"{statistics.median(setup_probe.kernel_s) * 1e3:.3f} ms "
          f"(reference {REFERENCE_KERNEL_S * 1e3:.3f} ms)")
    for cls, items in sorted(plain["errors"].items()):
        print(f"failed {cls}: {len(items)} op(s), first: {items[0]}")
    print(f"repeat {'ok' if not mismatches else 'MISMATCH'} "
          f"(counts {plain['values']['price_evals']} price evals, "
          f"{plain['values']['sweeps']} sweeps; digest {plain['digest'][:16]})")
    for m in mismatches:
        print(f"repeat mismatch: {m}")

    record = {"env": env, "args": vars(args), "attempted": attempted,
              "failed": plain["failed"], "errors": plain["errors"],
              "wrong": plain["wrong"], "mismatches": mismatches, "op_s.tail": tail,
              "values": plain["values"], "setup_times": setup_times,
              "cpu_s": plain["cpu_s"], "probe_kernel_s": plain["kernel_s"],
              "op_durations": plain["durations"],
              "end_to_end": {k: v for k, (v, _) in e2e.items()}}
    if traced is not None:
        overhead = traced["wall_s"] - plain["wall_s"]
        layers = _layer_metrics(traced, tracer, overhead)
        print(f"trace overhead = {overhead!r} s (traced wall_s "
              f"{traced['wall_s']!r} - untraced wall_s {plain['wall_s']!r})")
        _print_metrics("per-layer", layers)
        record["per_layer"] = {k: v for k, (v, _) in layers.items()}
        record["spans"] = tracer.spans
        metrics = {k: v for k, v in layers.items()
                   if not k.endswith(".self_s") or k[:-len(".self_s")] in ALWAYS_CALLED}
    else:
        metrics = {k: e2e[k] for k in END_TO_END}
    runs = OUT_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{key}-trace{args.trace}.json").write_text(json.dumps(record))

    correct = not plain["wrong"] and not (traced or {}).get("wrong") and not mismatches
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": plain["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
