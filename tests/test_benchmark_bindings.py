"""The benchmark's tracer patches functions by their names in ``concpd``
modules; every name it wraps must stay bound there, and no other name may
be imported and left unused.

``benchmark/workloads.py`` is read with ``ast`` rather than imported, so the
harness and its imports stay out of the test run.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "benchmark" / "workloads.py"


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


def unused_imports(path):
    """Names that the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_unused_import_is_a_traced_binding():
    # such an import is kept for the tracer alone; once the tracer drops
    # the name, this fails until the import goes too
    traced = set(traced_bindings())
    modules = sorted((ROOT / "src" / "concpd").glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        if path.name == "__init__.py":
            continue
        module = f"concpd.{path.stem}"
        for name in sorted(unused_imports(path)):
            assert (module, name) in traced, f"{module} imports {name} and never uses it"
