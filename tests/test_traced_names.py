"""The benchmark's traced and called names resolve in the package.

`decision_bench/layers.py` wraps the functions listed in its WRAPPED table
by name, with getattr, and reads other names as `self.package.<module>.<name>`;
a renamed function would end `--trace 1` with an AttributeError.
`decision_bench/run.py`'s `Workload` calls the program's
functions directly (`self.descent.descends_real(config)`, ...); a renamed
function or a changed signature would end every run.  Both are read from
the files' source, without importing the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "decision_bench"
LAYERS = BENCH / "layers.py"
RUN = BENCH / "run.py"


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


def _package_reads():
    """(module, name) for each self.package.<module>.<name> in layers.py."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    reads = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)):
            continue
        owner = node.value.value
        if (isinstance(owner, ast.Attribute) and owner.attr == "package"
                and isinstance(owner.value, ast.Name) and owner.value.id == "self"):
            reads.add((node.value.attr, node.attr))
    return reads


def test_every_package_read_in_layers_resolves():
    reads = _package_reads()
    assert ("cli", "point_to_string") in reads
    for module_name, name in reads:
        getattr(importlib.import_module(f"planar_descent.{module_name}"), name)


def _workload_uses():
    """(module, name, call or None) for each self.<module>.<name> in run.py's Workload."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    workload = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "Workload")
    modules = {}  # self.<attribute> = package.<module>
    for node in ast.walk(workload):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "package"):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    modules[target.attr] = node.value.attr
    calls = {id(node.func): node for node in ast.walk(workload) if isinstance(node, ast.Call)}
    uses = []
    for node in ast.walk(workload):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "self"
                and node.value.attr in modules):
            uses.append((modules[node.value.attr], node.attr, calls.get(id(node))))
    return uses


def test_every_workload_call_resolves_and_binds():
    uses = _workload_uses()
    assert {module for module, _, _ in uses} == {"cli", "descent"}
    assert any(name == "descends_real" and call for _, name, call in uses)
    for module_name, name, call in uses:
        obj = getattr(importlib.import_module(f"planar_descent.{module_name}"), name)
        assert callable(obj), (module_name, name)
        if call is not None:
            args = [None] * len(call.args)
            kwargs = {kw.arg: None for kw in call.keywords}
            inspect.signature(obj).bind(*args, **kwargs)
