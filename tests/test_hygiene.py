"""Source hygiene of the package: every imported name is used, and every
name the benchmark's tracer wraps exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import blocko

MODULES = sorted(Path(blocko.__file__).parent.glob("*.py"))


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _wrapped_paths():
    """(module, attribute path) of every entry in perfbench/tracer.py's
    WRAPPED; the "sympy" layer's paths start with their module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, paths in tracer.WRAPPED.items():
        for dotted in paths:
            parts = dotted.split(".")
            module = parts.pop(0) if layer == "sympy" else layer
            yield pytest.param(module, parts, id=f"{layer}.{dotted}")


@pytest.mark.parametrize("module, parts", list(_wrapped_paths()))
def test_traced_names_exist(module, parts):
    owner = importlib.import_module(f"blocko.{module}")
    for part in parts:
        owner = getattr(owner, part)
    assert callable(owner)
