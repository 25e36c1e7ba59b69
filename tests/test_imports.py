"""What importing the package loads, and the names it exports.

Every module under ``src/poset_tower`` and ``tests`` reads each name it
imports (``from __future__`` imports change the compiler, not the namespace;
an import marked ``# noqa: F401`` is deliberate).  A submodule loads only the
modules it reads, and ``poset_tower`` itself loads its public names from
their submodules on first access.  The reference computations in
``perfbench/oracles.py`` import nothing from the package.  A wrong point,
map or thread is refused with ``getattr`` and a default, not by catching
``AttributeError``, except where a thread's tower is read (``_tower_of``).
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
from importlib import import_module

import pytest

import poset_tower

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "poset_tower"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imports(source: str) -> list:
    """(module, bound name) for each name an import statement binds.

    ``from __future__`` imports and imports marked ``# noqa: F401`` are left out.
    """
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        if isinstance(node, ast.Import):
            out += [(alias.name, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif node.module != "__future__":
            out += [(node.module, alias.asname or alias.name) for alias in node.names]
    return out


def unused_imports(source: str) -> list:
    """Names bound by import statements that no ``ast.Name`` in the module reads."""
    read = {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for _, name in imports(source) if name not in read]


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nfrom a import b, c as d\n"
              "import e  # noqa: F401\nd()\n")
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def attribute_error_handlers(source: str) -> list:
    """The innermost enclosing function of each except clause that names ``AttributeError``."""
    out = []

    def visit(node, function):
        if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                isinstance(n, ast.Name) and n.id == "AttributeError" for n in ast.walk(node.type)):
            out.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name
                  if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), None)
    return out


def test_only_a_threads_tower_is_read_by_catching_attribute_error():
    found = [(path.name, function) for path in sorted(PACKAGE.glob("*.py"))
             for function in attribute_error_handlers(path.read_text(encoding="utf-8"))]
    assert found == [("tower.py", "_tower_of")]


def test_the_reference_imports_nothing_from_the_package():
    """The tests and the benchmark check the package against ``perfbench/oracles.py``."""
    source = (ROOT / "perfbench" / "oracles.py").read_text(encoding="utf-8")
    assert imports(source)
    assert not [m for m, _ in imports(source) if m.split(".")[0] == "poset_tower"]


def run_in_a_fresh_interpreter(statement: str) -> tuple:
    """The modules a fresh interpreter adds to ``sys.modules`` and has run after ``statement``.

    Returns (added, ran).  A lazy module sits in ``sys.modules`` before it runs,
    as an instance of a subclass of ``types.ModuleType``; running it on its
    first attribute read makes it a plain module.
    """
    code = ("import json, sys, types\n"
            "def ran():\n"
            "    return {n for n, m in sys.modules.items() if type(m) is types.ModuleType}\n"
            "held, before = set(sys.modules), ran()\n"
            + statement + "\n"
            "print(json.dumps([sorted(set(sys.modules) - held), sorted(ran() - before)]))")
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    added, ran = json.loads(out)
    return set(added), set(ran)


# the package and the submodules it registers as lazy modules
LAZY = {"poset_tower", *(f"poset_tower.{name}" for name in (
    "complexes", "posets", "subdivision", "tower", "homology", "approx", "verify"))}


@pytest.mark.parametrize("statement, run", [
    ("import poset_tower", []),
    ("import poset_tower.tower", []),
    ("from poset_tower.tower import Tower", ["errors", "complexes", "posets", "subdivision", "tower"]),
    ("from poset_tower import Tower", ["errors", "complexes", "posets", "subdivision", "tower"]),
    ("from poset_tower.homology import betti", ["errors", "complexes", "homology"]),
], ids=["package", "import-tower", "read-tower", "read-from-package", "read-homology"])
def test_a_layer_runs_only_the_modules_it_reads(statement, run):
    added, ran = run_in_a_fresh_interpreter(statement)
    want = {"poset_tower", *(f"poset_tower.{name}" for name in run)}
    assert {m for m in ran if m.startswith("poset_tower")} == want
    assert {m for m in added if m.startswith("poset_tower")} == LAZY | want
    assert not added & {"dataclasses", "inspect"}


def test_a_lazy_submodule_runs_on_its_first_attribute_read():
    """``sys.modules`` and the package hold every lazy submodule, whether or not it has run."""
    added, ran = run_in_a_fresh_interpreter(
        "import poset_tower\nassert poset_tower.verify.verify_all is poset_tower.verify_all")
    assert LAZY <= added and LAZY <= ran
    for name in LAZY - {"poset_tower"}:
        assert getattr(poset_tower, name.split(".")[1]) is sys.modules[name]


def test_every_exported_name_is_its_submodules_object():
    assert len(poset_tower.__all__) == len(set(poset_tower.__all__)) == 60
    listed = dir(poset_tower)
    for name in poset_tower.__all__:
        module = import_module(f"poset_tower.{poset_tower._EXPORTS[name]}")
        assert getattr(poset_tower, name) is getattr(module, name)
        assert name in listed


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from poset_tower import *", namespace)
    assert all(namespace[name] is getattr(poset_tower, name) for name in poset_tower.__all__)


def test_unknown_names_and_submodules():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        poset_tower.no_such_name
    with pytest.raises(ImportError):
        from poset_tower import no_such_name  # noqa: F401
    from poset_tower import approx
    assert approx is sys.modules["poset_tower.approx"]
