"""The package depends on the standard library and numpy only.

scipy and others may be installed where the tests run, so an import of
them would pass every other test and still break a numpy-only install.
"""

import ast
import sys
from pathlib import Path

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_modules(tree):
    """Top-level names of every absolute import in a module, including
    imports nested in functions and classes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_only_standard_library_and_numpy_imports():
    root = Path(__file__).resolve().parents[1] / "src" / "securebc"
    sources = sorted(root.rglob("*.py"))
    assert len(sources) > 5
    bad = [f"{path.relative_to(root)}:{line} imports {name}"
           for path in sources
           for line, name in imported_modules(ast.parse(path.read_text(), str(path)))
           if name not in ALLOWED]
    assert not bad, bad


def test_nested_imports_are_seen():
    tree = ast.parse("def f():\n    import scipy.linalg\n"
                     "class C:\n    from pandas import DataFrame\n"
                     "from . import solver\n")
    assert [name for _, name in imported_modules(tree)] == ["scipy", "pandas"]
