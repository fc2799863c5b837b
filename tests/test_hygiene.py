"""Source hygiene of the package: every imported name is used, every
private function is called, every public function and every method has a
caller or is named as API, no function keeps a global cache, only the root systems and
`blocks.integral_roots` name a height bound, `zmod` builds and evaluates
`Poly` only at its boundary, every name
the benchmark's tracer wraps exists, `import blocko.cli` loads no module
that only some commands need, package imports sit at module level, and no
module reads another module's private names; every blocko name the
benchmark reads exists; every attribute a class stores is read; README
states the line count of the package."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
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


_CACHE_DECORATORS = {"cache", "cached_property", "lru_cache"}


def _cache_decorators(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else target.id
                if name in _CACHE_DECORATORS:
                    yield node.lineno, node.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_functools_cache_decorator(path):
    # caches belong to an explicit object (a CoxeterSystem, a KLTable, a
    # moment graph's stores), not to a module-level decorator
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_cache_decorators(tree)) == []


# the modules that may name a height bound: the root systems it truncates
# (rootdata) and `blocks.integral_roots`, the height-cut reference of tests
_HEIGHT_BOUND_READERS = {"blocks.py", "rootdata.py"}


def _height_bound_names(tree):
    for node in ast.walk(tree):
        for name in (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "arg", None)):
            if isinstance(name, str) and "height_bound" in name.lower():
                yield node.lineno, name


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in _HEIGHT_BOUND_READERS],
    ids=lambda p: p.name,
)
def test_only_the_block_data_read_a_height_bound(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_height_bound_names(tree)) == []


def test_in_blocks_only_integral_roots_names_a_height_bound():
    path = Path(blocko.__file__).with_name("blocks.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [name for node in tree.body if getattr(node, "name", None) != "integral_roots"
            for name in _height_bound_names(node)] == []


# the zmod functions that may build a Poly or call .evaluate: edge labels,
# the generators of the lattices handed out, the Verma lattice built from
# its Poly generator, and the generator-basis Hom matrices; everything else
# runs on integer slot vectors
_POLY_BOUNDARY = {"root_form", "_poly_tuple", "verma_zmodule", "hom_graded", "apply_hom",
                  "compose"}


def _poly_calls(tree):
    """(line, enclosing top-level name) of each `Poly(...)`, `Poly.x(...)`
    or `.evaluate(...)` call outside the functions of _POLY_BOUNDARY."""
    for top in tree.body:
        if getattr(top, "name", None) in _POLY_BOUNDARY:
            continue
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            owner = getattr(func, "value", func)
            if (isinstance(node, ast.Call)
                    and (getattr(owner, "id", None) == "Poly"
                         or getattr(func, "attr", None) == "evaluate")):
                yield node.lineno, getattr(top, "name", None)


def test_zmod_builds_poly_only_at_its_boundary():
    path = Path(blocko.__file__).with_name("zmod.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_poly_calls(tree)) == []


def _referenced_names():
    """(module file, top-level node index) -> names and attributes it uses."""
    refs = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for i, top in enumerate(tree.body):
            refs[path.name, i] = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
    return refs


def _top_functions(private):
    """(module file, top-level index, name) of each private, else public,
    top-level function; a dunder name is neither."""
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for i, top in enumerate(tree.body):
            if (isinstance(top, ast.FunctionDef) and not top.name.startswith("__")
                    and top.name.startswith("_") == private):
                yield pytest.param(path.name, i, top.name, id=f"{path.stem}.{top.name}")


REFERENCES = _referenced_names()


@pytest.mark.parametrize("module, index, name", list(_top_functions(private=True)))
def test_every_private_function_is_called(module, index, name):
    # a use anywhere in the package other than the function's own body
    assert any(
        name in used for key, used in REFERENCES.items() if key != (module, index)
    )


# public functions and methods no code in the package or the benchmark
# calls, kept as the library's API: Verma embedding dimensions (acceptance
# 8), reading a weight from its JSON form, the inverse of `weight_to_json`,
# and the inverse of a Weyl group element, read off its system's table
_API = {"verma_hom_dim", "weight_from_json", "Element.inverse"}

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _wrapped():
    """(layer, dotted path, module, attribute path) of every entry in
    perfbench/tracer.py's WRAPPED; the "sympy" layer's paths start with
    their module."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, paths in tracer.WRAPPED.items():
        for dotted in paths:
            parts = dotted.split(".")
            module = parts.pop(0) if layer == "sympy" else layer
            yield layer, dotted, module, parts


WRAPPED = list(_wrapped())


def _perfbench_names():
    """The names the benchmark's code uses: every name, attribute and
    imported name in its scripts, and every part of a path its tracer
    wraps.  A word in a comment or a string is no use."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1] for alias in node.names)
    for _, _, _, parts in WRAPPED:
        names.update(parts)
    return names


PERFBENCH_NAMES = _perfbench_names()


@pytest.mark.parametrize("module, index, name", list(_top_functions(private=False)))
def test_every_public_function_has_a_caller(module, index, name):
    # a use elsewhere in the package, a name the benchmark reads, a command,
    # or the short API list above: no dead function stays in src/
    assert (
        any(name in used for key, used in REFERENCES.items() if key != (module, index))
        or name in PERFBENCH_NAMES
        or name.startswith("cmd_")
        or name in _API
    )


def _methods():
    """(module file, class, method) of each method of a class in the
    package, dunders aside."""
    for path in MODULES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                        yield pytest.param(path.name, top.name, node.name,
                                           id=f"{path.stem}.{top.name}.{node.name}")


def _used_outside(module, cls, name):
    """Whether the package uses the name anywhere but in the body of the
    method cls.name of the module."""
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        own = set()
        if path.name == module:
            klass = next(n for n in tree.body if getattr(n, "name", None) == cls)
            method = next(n for n in klass.body if getattr(n, "name", None) == name)
            own = set(ast.walk(method))
        if any(getattr(node, "id", getattr(node, "attr", None)) == name
               for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute)) and node not in own):
            return True
    return False


@pytest.mark.parametrize("module, cls, name", list(_methods()))
def test_every_method_has_a_caller(module, cls, name):
    # as for functions: a use in the package outside its own body, a name
    # the benchmark reads, or the API list above
    assert (_used_outside(module, cls, name) or name in PERFBENCH_NAMES
            or f"{cls}.{name}" in _API)


@pytest.mark.parametrize("module, parts", [
    pytest.param(module, parts, id=f"{layer}.{dotted}") for layer, dotted, module, parts in WRAPPED
])
def test_traced_names_exist(module, parts):
    owner = importlib.import_module(f"blocko.{module}")
    for part in parts:
        owner = getattr(owner, part)
    assert callable(owner)


def _perfbench_reads():
    """The blocko names the benchmark's scripts read, as dotted paths from
    `blocko`: each module or name they import from it, and each attribute
    chain on `blocko` or on a name of one of its modules (the tracer takes
    `cli` as a parameter)."""
    modules = {path.stem for path in MODULES}
    reads = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                reads.update(a.name for a in node.names if a.name.startswith("blocko."))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("blocko"):
                reads.update(f"{node.module}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Attribute):
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.insert(0, node.attr)
                    node = node.value
                if isinstance(node, ast.Name) and node.id in modules | {"blocko"}:
                    head = "blocko" if node.id == "blocko" else f"blocko.{node.id}"
                    reads.add(".".join([head] + chain))
    return sorted(reads)


@pytest.mark.parametrize("dotted", _perfbench_reads())
def test_every_blocko_name_the_benchmark_reads_exists(dotted):
    # WRAPPED is not all: the workloads call kl._poly_mul, coxeter.interval
    # and zmod.ungraded_char directly, and a deleted one fails every
    # benchmark operation that uses it
    parts = dotted.split(".")
    owner = importlib.import_module(".".join(parts[:2]))
    for part in parts[2:]:
        owner = getattr(owner, part)


# modules `import blocko.cli` must not load: dataclasses (and the inspect it
# imports) is used nowhere, hashlib only by the KL disk cache, and zmod and
# poly only by `center` and `bs`
_DEFERRED = ("dataclasses", "inspect", "hashlib", "blocko.zmod", "blocko.poly")


def test_cli_import_loads_no_deferred_module(tmp_path):
    cartan = tmp_path / "a1.json"
    cartan.write_text(json.dumps({"matrix": [[2]]}))
    code = f"""
import sys
before = set(sys.modules)
import blocko.cli
print(sorted(m for m in {_DEFERRED!r} if m in set(sys.modules) - before))
code = blocko.cli.main(["center", "--cartan", {str(cartan)!r}, "--weight", "0"])
print(code, "blocko.zmod" in sys.modules)
"""
    src = str(Path(blocko.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0] == "[]"
    # `center` imports zmod when it runs, and prints its report
    assert json.loads(out[1])["slots"] == ["e", "1"]
    assert out[2] == "0 True"


# the package imports a function may make: `cli` defers zmod to the commands
# that need it (see above); any other sits at module level, where a cycle
# between modules shows at once
_LOCAL_PACKAGE_IMPORTS = {"cli.py": {(None, "zmod")}}


def _local_package_imports(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level:
                    yield from ((node.module, alias.name) for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_are_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set(_local_package_imports(tree))
    assert found == _LOCAL_PACKAGE_IMPORTS.get(path.name, set())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "dataclasses" not in imported


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_names_of_other_modules(tree):
    """(line, name) of each underscore name the module takes from another
    blocko module: imported by `from .x import _y`, or read as `x._y` off a
    module bound by `from . import x`."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_name(path):
    # what one module needs of another is public there
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _private_names_of_other_modules(tree) == []


def test_readme_states_the_src_line_count():
    # README gives the size of the package under test; `wc -l` counts
    # newlines over src/blocko/*.py
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = re.search(r"`src/blocko`,\s+is\s+([\d,]+)\s+lines\s+by\s+`wc\s+-l`", readme)
    assert stated, "README names no line count of `src/blocko`"
    assert int(stated.group(1).replace(",", "")) == sum(
        path.read_bytes().count(b"\n") for path in MODULES
    )


def _stored_attributes():
    """(module file, class, name) of each `self.<name> = ...` in a class of
    the package."""
    for path in MODULES:
        for top in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(top, ast.ClassDef):
                for node in ast.walk(top):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and getattr(node.value, "id", None) == "self"):
                        yield path.name, top.name, node.attr


def _attribute_reads():
    """(path, names it imports by `from ... import`, attributes it reads)
    of each file of the package, the tests and the benchmark."""
    tests = Path(__file__).resolve().parent.glob("*.py")
    for path in [*MODULES, *tests, *PERFBENCH.glob("*.py")]:
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        yield path, {
            alias.name for node in nodes if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }, {
            node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }


def test_every_stored_attribute_is_read():
    # a field no code in the package, the tests or the benchmark reads is
    # a second copy of a fact or a dead one.  A name two or more classes
    # store is read, for one of them, only in its own module or in a file
    # that imports the class by name: `graph.block` elsewhere is no read of
    # another class's `block`
    stored = set(_stored_attributes())
    owners = Counter(name for _, _, name in stored)
    reads = list(_attribute_reads())

    def is_read(module, cls, name):
        return any(
            name in read and (owners[name] < 2 or cls in imported
                              or (path in MODULES and path.name == module))
            for path, imported, read in reads
        )

    assert sorted(s for s in stored if not is_read(*s)) == []
