"""A line-coverage gate: list the lines of ``src/securebc`` that nothing runs.

Runs the test suite in this process under a ``sys.settrace`` tracer that
records the lines executed in ``src/securebc``.  Then, under the same
tracer, it runs the two command-line entry points (``python -m securebc``
and ``python -m securebc.cli``) in process with ``runpy``, on a usage error
whose message and exit are swallowed, so the lines that the suite reaches
only in a subprocess run too.  It prints, as ``path:line``, every
executable line (from ``code.co_lines()`` of each code object a module
compiles to) that none of this ran::

    python tests/line_trace.py            # extra arguments go to pytest

Standard library and pytest only.  The exit status is 1 when any line is
listed, else pytest's.  ``trace_lines`` runs any callable under the same
tracer and ``unrun_lines`` lists what it left out; ``tests/traffic.py`` uses
them on the benchmark's workloads.
"""

from __future__ import annotations

import io
import os
import runpy
import sys
import types
import warnings
from contextlib import redirect_stderr
from pathlib import Path
from typing import Callable, TypeVar

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "securebc"
T = TypeVar("T")


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction in the module at ``path``."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_entry_points() -> None:
    """``python -m securebc`` and ``python -m securebc.cli`` in this process,
    each on a usage error (no subcommand), with stderr and the exit swallowed."""
    argv = sys.argv
    try:
        for module in ("securebc", "securebc.cli"):
            sys.argv = [module]
            with warnings.catch_warnings(), redirect_stderr(io.StringIO()):
                warnings.simplefilter("ignore", RuntimeWarning)  # the module is already imported
                try:
                    runpy.run_module(module, run_name="__main__")
                except SystemExit:
                    pass
    finally:
        sys.argv = argv


def trace_lines(run: Callable[[], T]) -> tuple[T, dict[str, set[int]]]:
    """Call ``run`` under the tracer; its result and the lines of
    ``src/securebc`` that it ran, by resolved file path."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        keep = ours.get(name)
        if keep is None:
            keep = ours[name] = os.path.realpath(name).startswith(prefix)
        if not keep:
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    by_file: dict[str, set[int]] = {}
    for name, lines in ran.items():
        by_file.setdefault(os.path.realpath(name), set()).update(lines)
    return result, by_file


def unrun_lines(ran: dict[str, set[int]]) -> list[str]:
    """``path:line`` of every executable line of ``src/securebc`` not in ``ran``."""
    return [f"{path.relative_to(ROOT)}:{line}"
            for path in sorted(PACKAGE.glob("*.py"))
            for line in sorted(executable_lines(path) - ran.get(str(path.resolve()), set()))]


def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest, then the entry points, under the tracer; pytest's exit
    status and the lines run, by file."""
    def suite() -> int:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
        run_entry_points()
        return int(status)

    os.chdir(ROOT)
    return trace_lines(suite)


def main() -> int:
    status, ran = trace_suite(sys.argv[1:])
    missed = unrun_lines(ran)
    for line in missed:
        print(line)
    return 1 if missed else status


if __name__ == "__main__":
    sys.exit(main())
