"""The benchmark's tracer patches functions by their names in ``concpd``
modules; every name it wraps must stay bound there.

``benchmark/workloads.py`` is read with ``ast`` rather than imported, so the
harness and its imports stay out of the test run.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


def traced_bindings():
    """``(module path, attribute)`` of every ``TRACED`` entry."""
    tree = ast.parse(WORKLOADS.read_text())
    modules, traced = {}, None
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = node.targets[0], node.value
        if not isinstance(target, ast.Name):
            continue
        # name = importlib.import_module("concpd.<module>")
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)
                and value.func.attr == "import_module"):
            modules[target.id] = ast.literal_eval(value.args[0])
        elif target.id == "TRACED":
            traced = value
    assert traced is not None, "no TRACED table in benchmark/workloads.py"
    pairs = []
    for entry in traced.elts:
        module, attr = entry.elts[0], entry.elts[1]
        assert module.id in modules, f"{module.id} is not an imported concpd module"
        pairs.append((modules[module.id], ast.literal_eval(attr)))
    return pairs


def test_every_traced_name_resolves():
    pairs = traced_bindings()
    assert pairs
    for module_path, attr in pairs:
        module = importlib.import_module(module_path)
        assert callable(getattr(module, attr, None)), f"{module_path}.{attr} is not bound"
