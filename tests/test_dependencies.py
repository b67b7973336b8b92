"""The package depends on the standard library and numpy only, from the
floors that pyproject.toml declares (Python >= 3.10, numpy>=1.24).

scipy and others may be installed where the tests run, and so may a numpy
2 or a newer Python, so an import of them, a name that numpy 2 added or
syntax that a later Python added would pass every other test and still
break an install at the declared floor.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYTHON_FLOOR = tuple(int(v) for v in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
# names that numpy 2 added (besides the array attribute .mT)
NUMPY2_ONLY = {
    "numpy": {"vecdot", "matvec", "vecmat", "matrix_transpose", "permute_dims", "concat",
              "unstack", "astype", "cumulative_sum", "cumulative_prod", "trapezoid",
              "isdtype"},
    "numpy.linalg": {"vecdot", "matrix_transpose", "vector_norm", "matrix_norm", "svdvals",
                     "outer", "diagonal", "trace", "cross", "matmul", "tensordot"},
}
# the numpy.linalg names the package uses
LINALG_USED = {"eigh", "eigvalsh", "cholesky", "inv", "svd", "LinAlgError"}


def imported_modules(tree):
    """Top-level names of every absolute import in a module, including
    imports nested in functions and classes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def numpy_module(node):
    """"numpy" for the names np and numpy, "numpy.linalg" for their
    .linalg, None for anything else."""
    if isinstance(node, ast.Name) and node.id in ("np", "numpy"):
        return "numpy"
    if (isinstance(node, ast.Attribute) and node.attr == "linalg"
            and numpy_module(node.value) == "numpy"):
        return "numpy.linalg"
    return None


def numpy2_names(tree):
    """Every use of a name that numpy 2 added: the .mT attribute, and the
    names of ``NUMPY2_ONLY`` as attributes of np, numpy or their .linalg,
    or imported from them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = numpy_module(node.value)
            if node.attr == "mT" or node.attr in NUMPY2_ONLY.get(module, ()):
                yield node.lineno, f"{module or '<array>'}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module in NUMPY2_ONLY:
            for alias in node.names:
                if alias.name in NUMPY2_ONLY[node.module]:
                    yield node.lineno, f"{node.module}.{alias.name}"


def linalg_names(tree):
    """Every numpy.linalg name a module uses, as an attribute of np.linalg
    or numpy.linalg or imported from numpy.linalg."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and numpy_module(node.value) == "numpy.linalg":
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            for alias in node.names:
                yield node.lineno, alias.name


def unused_imports(tree):
    """Every name an import binds in a module, at any depth, that the
    module never reads, with the line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                node, "module", None) != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def unread_helpers(trees):
    """Every module-level function or class whose name starts with a single
    underscore that no module of ``trees`` reads, as a name or as an
    attribute, with its module and line."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [(str(path), node.lineno, node.name)
            for path, tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in read]


def parse_at_floor(src, name="<string>"):
    """``ast.parse`` with the grammar of the declared Python floor."""
    return ast.parse(src, name, feature_version=PYTHON_FLOOR)


def package_trees():
    root = ROOT / "src" / "securebc"
    sources = sorted(root.rglob("*.py"))
    assert len(sources) > 5
    return [(path.relative_to(root), parse_at_floor(path.read_text(), str(path)))
            for path in sources]


def test_sources_parse_at_the_python_floor():
    assert PYTHON_FLOOR == (3, 10)
    assert package_trees()


def test_syntax_above_the_floor_is_refused():
    # except* came with 3.11 and type parameters with 3.12; match is 3.10
    for src in ("try:\n    pass\nexcept* ValueError:\n    pass\n",
                "def f[T](x: T) -> T:\n    return x\n"):
        with pytest.raises(SyntaxError):
            parse_at_floor(src)
    parse_at_floor("match x:\n    case 1:\n        pass\n")


def test_only_standard_library_and_numpy_imports():
    bad = [f"{path}:{line} imports {name}"
           for path, tree in package_trees()
           for line, name in imported_modules(tree)
           if name not in ALLOWED]
    assert not bad, bad


def test_no_numpy2_only_names():
    bad = [f"{path}:{line} uses {name}"
           for path, tree in package_trees()
           for line, name in numpy2_names(tree)]
    assert not bad, bad


def test_nested_imports_are_seen():
    tree = ast.parse("def f():\n    import scipy.linalg\n"
                     "class C:\n    from pandas import DataFrame\n"
                     "from . import solver\n")
    assert [name for _, name in imported_modules(tree)] == ["scipy", "pandas"]


def test_numpy2_only_names_are_seen():
    tree = ast.parse("a.mT\nnp.vecdot(a, b)\nnumpy.linalg.matrix_norm(a)\n"
                     "from numpy.linalg import outer, eigh\n"
                     "np.outer(a, b)\na.astype(float)\nnp.linalg.eigh(a)\nnp.trace(a)\n"
                     "x.linalg.vecdot(a, b)\n")
    assert sorted(numpy2_names(tree)) == [
        (1, "<array>.mT"), (2, "numpy.vecdot"), (3, "numpy.linalg.matrix_norm"),
        (4, "numpy.linalg.outer")]


def test_no_new_linalg_routines():
    """A numpy.linalg routine the package does not use yet (lstsq, solve, ...)
    faults new LAPACK and BLAS code into the process the first time it
    runs, and so raises the peak resident memory a solve leaves (the
    benchmark's ``peak_rss_mb``) by tenths of a megabyte: lstsq alone added
    0.65 MB.  Work that needs one goes through the routines already loaded.
    Only names are checked: eigh or matmul on real rather than complex
    input loads new code too (0.37 and 0.13 MB), and this test cannot see
    dtypes."""
    bad = [f"{path}:{line} uses numpy.linalg.{name}"
           for path, tree in package_trees()
           for line, name in linalg_names(tree)
           if name not in LINALG_USED]
    assert not bad, bad


def test_linalg_names_are_seen():
    tree = ast.parse("np.linalg.lstsq(a, b)\nnumpy.linalg.eigh(a)\n"
                     "from numpy.linalg import solve\nx.linalg.qr(a)\nnp.dot(a, b)\n")
    assert sorted(linalg_names(tree)) == [(1, "lstsq"), (2, "eigh"), (3, "solve")]


def test_every_import_is_used():
    """An import that nothing reads is dead code, and one of numpy or a
    stdlib module costs start-up time too; ``__init__`` imports to
    re-export."""
    bad = [f"{path}:{line} imports {name} and never uses it"
           for path, tree in package_trees() if path.name != "__init__.py"
           for line, name in unused_imports(tree)]
    assert not bad, bad


def test_unused_imports_are_seen():
    tree = ast.parse("from __future__ import annotations\nimport numpy as np\n"
                     "import os.path\nfrom .a import b, c as d\n"
                     "def f():\n    import re\n    return np.sum(b)\n")
    assert unused_imports(tree) == [(3, "os"), (4, "d"), (6, "re")]


def test_every_helper_is_read():
    """A private helper that nothing reads is dead code: a fold left it
    behind, or it never had a caller."""
    trees = package_trees()
    assert not unread_helpers(trees), unread_helpers(trees)


def test_unread_helpers_are_seen():
    trees = [("a.py", ast.parse("def _called():\n    pass\ndef _dead():\n    _gone = 1\n"
                                "class _Unused:\n    pass\ndef __dunder__():\n    pass\n"
                                "def public():\n    return _called()\n")),
             ("b.py", ast.parse("from a import _dead\nimport c\nx = c._by_attribute\n"
                                "def _by_attribute():\n    pass\nasync def _gone():\n    pass\n"))]
    assert unread_helpers(trees) == [("a.py", 3, "_dead"), ("a.py", 5, "_Unused"),
                                     ("b.py", 6, "_gone")]
