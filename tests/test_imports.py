"""What importing the package loads, and the names it exports.

Every module under ``src/poset_tower`` reads each name it imports
(``from __future__`` imports change the compiler, not the namespace).  A
submodule loads only the modules it reads, and ``poset_tower`` itself loads
its public names from their submodules on first access.
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

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "poset_tower"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that no ``ast.Name`` in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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
