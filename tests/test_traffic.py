"""The traffic script's listing, on a stub workload in place of the benchmark's."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np

import securebc as sb
from securebc import linalg
from traffic import traffic


def code_lines(fn) -> list[str]:
    """``path:line`` of each line of ``fn``'s code, as the listing names it."""
    return sorted({f"src/securebc/linalg.py:{line}" for _, _, line in fn.__code__.co_lines()
                   if line})


def test_lists_what_the_workload_never_runs():
    built = []

    def stub(package, seed, seconds, workdir):
        def setup():
            built.append((package, seed, seconds, workdir.is_dir()))
            return np.eye(2)

        def ops(m):
            return [SimpleNamespace(run=lambda: package.linalg.herm(m), check=lambda out: None),
                    SimpleNamespace(run=lambda: 1 / 0, check=None)]  # a failing op is skipped

        return SimpleNamespace(setup=setup, ops=ops)

    unused = code_lines(linalg.anderson_psd)
    imported = {str(Path(linalg.__file__).resolve()): {int(unused[0].rsplit(":", 1)[1])}}
    listed = set(traffic(stub, sb, imported))
    assert built == [(sb, 1, 7, True)]  # seed 1, 7 seconds
    assert not listed & set(code_lines(linalg.herm))
    assert unused[0] not in listed and set(unused[1:]) <= listed
