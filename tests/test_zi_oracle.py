"""The tests' Z[i] oracle stands apart from the program it checks.

`zi_oracle` is read with `ast`, so a stray import of the program, or of a
test module that imports it, fails here rather than going unnoticed.
"""

import ast
import sys
from pathlib import Path

import zi_oracle

ORACLE = Path(__file__).resolve().parent / "zi_oracle.py"


def _imported_modules():
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_the_oracle_imports_only_the_standard_library():
    modules = list(_imported_modules())
    assert modules
    for name in modules:
        assert not name.startswith("planar_descent"), name
        assert name.split(".")[0] in sys.stdlib_module_names, name


def test_the_oracle_arithmetic():
    v = ((1, 2), (0, -3), (4, 0))
    for c in ((2, 3), (0, 1), (-5, 0)):
        assert zi_oracle.normal([zi_oracle.mul(c, x) for x in v]) == zi_oracle.normal(v)
    assert zi_oracle.normal(v) != zi_oracle.normal(((1, 2), (0, -3), (4, 1)))
    m = (((1, 2), (0, -3), (4, 0)), ((2, 0), (1, 1), (0, 5)), ((3, -1), (2, 2), (1, 0)))
    det = zi_oracle.det3(*m)
    assert det != (0, 0)
    scalar = tuple(tuple(det if r == c else (0, 0) for c in range(3)) for r in range(3))
    assert zi_oracle.matmul(m, zi_oracle.adjugate(m)) == scalar
    assert zi_oracle.matvec(m, ((1, 0), (0, 0), (0, 0))) == tuple(row[0] for row in m)
    assert zi_oracle.conj(m)[0] == ((1, -2), (0, 3), (4, 0))
    assert zi_oracle.conj(zi_oracle.conj(m)) == m
