"""The benchmark's traced names resolve in the package.

`decision_bench/layers.py` wraps the functions listed in its WRAPPED table
by name, with getattr; a renamed function would end `--trace 1` with an
AttributeError.  The table is read from the file's source, without
importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "decision_bench" / "layers.py"


def _wrapped():
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no WRAPPED table in decision_bench/layers.py")


def test_every_traced_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    for module_name, attr, _span in wrapped:
        obj = importlib.import_module(f"planar_descent.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module_name, attr)
