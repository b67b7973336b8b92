"""Line traffic of the benchmark workloads: the lines of ``src/securebc`` each never runs.

For each named workload of ``bench/workloads.py`` (all of them by default) it
builds the inputs through its ``WORKLOADS`` entry at seed 1 and 7 seconds, as
``python3 bench/run.py --seed 1 --seconds 7`` does, runs every op once and
checks the output of each op that returned, all under the tracer of
``tests/line_trace.py``.  It prints, per workload, a header with the count and
then, as ``path:line``, every executable line of ``src/securebc`` that the
workload never ran.  The package's import, which the benchmark's set-up makes,
counts as run by every workload::

    python tests/traffic.py                          # every workload
    python tests/traffic.py duality-ens region-k2

It only reads ``bench/``.  An op that raises is skipped, as the benchmark
counts it and goes on; a check that fails stops the script.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from line_trace import ROOT, trace_lines, unrun_lines

SEED = 1
SECONDS = 7


def run_workload(factory, sb) -> None:
    """Build ``factory``'s workload at SEED and SECONDS in a scratch directory,
    run every op once, then check the output of each op that returned."""
    with tempfile.TemporaryDirectory() as tmp:
        workload = factory(sb, SEED, SECONDS, Path(tmp))
        ops = workload.ops(workload.setup())
        outcomes = []
        for op in ops:
            try:
                outcomes.append((op, op.run()))
            except Exception:  # an op failure is data in the benchmark, not a stop
                pass
        for op, result in outcomes:
            op.check(result)


def traffic(factory, sb, imported: dict[str, set[int]]) -> list[str]:
    """``path:line`` of every executable line of ``src/securebc`` that
    ``factory``'s workload never runs; ``imported`` holds the lines, by file,
    that importing the package ran."""
    _, ran = trace_lines(lambda: run_workload(factory, sb))
    for path, lines in imported.items():
        ran.setdefault(path, set()).update(lines)
    return unrun_lines(ran)


def import_package():
    import securebc
    import securebc.cli  # noqa: F401  (region-k2 calls securebc.cli.cli_main)
    return securebc


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                   help=f"any of {', '.join(WORKLOADS)}; default: all")
    names = p.parse_args(argv).workloads or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:  # not choices=: argparse refuses an empty list of them before Python 3.12
        p.error(f"unknown workload {unknown[0]!r}")
    sb, imported = trace_lines(import_package)
    for name in names:
        missed = traffic(WORKLOADS[name], sb, imported)
        print(f"{name}: {len(missed)} lines never run")
        for line in missed:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
