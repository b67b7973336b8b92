"""List the lines of ``src/securebc`` that no test runs.

Runs the test suite in this process under a ``sys.settrace`` tracer that
records the lines executed in ``src/securebc``, then prints, as
``path:line``, every executable line (from ``code.co_lines()`` of each code
object a module compiles to) that no test ran::

    python tests/line_trace.py            # extra arguments go to pytest

Standard library and pytest only.  Code that runs only in a subprocess
(``python -m securebc``, the ``securebc`` script's ``main``) is listed as
unrun.  The exit status is pytest's.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "securebc"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction in the module at ``path``."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; its exit status and the lines run, by file."""
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

    os.chdir(ROOT)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    by_file: dict[str, set[int]] = {}
    for name, lines in ran.items():
        by_file.setdefault(os.path.realpath(name), set()).update(lines)
    return int(status), by_file


def main() -> int:
    status, ran = trace_suite(sys.argv[1:])
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - ran.get(str(path.resolve()), set())
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
