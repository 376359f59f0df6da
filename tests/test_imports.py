"""Every module-level import in src/hz is used by its module, every
name in a module's `__all__` is bound at module level, and no module
imports sympy at any depth, since sympy is only the tests' oracle (stdlib
only; the repository has no linter, so this test keeps the imports and
exports clean)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hz"


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_exports(tree))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def unbound_exports(source):
    """The names in `__all__` that no module-level statement binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return sorted(name for name in _exports(tree) if name not in bound)


def sympy_imports(source):
    """(line, module) of every import of sympy or a submodule of it,
    module level or inside a function, including `__import__` and
    `importlib.import_module` with a literal name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            names = [node.args[0].value]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if str(name).split(".")[0] == "sympy"]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_sympy_import(path):
    assert sympy_imports(path.read_text()) == []


def test_sympy_detector_sees_every_depth():
    source = ("import os, sympy as sp\n"
              "'a string that names sympy'\n"
              "import sympyish\n"
              "from .sympy import local\n"
              "def f():\n"
              "    from sympy.ntheory import n_order\n"
              "    class C:\n"
              "        def g(self):\n"
              "            import sympy.abc\n"
              "    return __import__('sympy')\n"
              "import importlib\n"
              "importlib.import_module('sympy.polys')\n")
    assert sympy_imports(source) == [
        (1, "sympy"), (6, "sympy.ntheory"), (9, "sympy.abc"), (10, "sympy"),
        (12, "sympy.polys")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []


def test_detector_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from json import dumps as d, loads\n"
              "__all__ = ['loads']\n"
              "print(os.path.sep, d)\n")
    assert unused_imports(source) == [(2, "math")]


def test_export_detector_sees_a_stale_name():
    source = ("from json import dumps\n"
              "import os.path\n"
              "X: int = 1\n"
              "Y, (Z, W) = 2, (3, 4)\n"
              "def f(): pass\n"
              "class C: pass\n"
              "__all__ = ['dumps', 'os', 'X', 'Y', 'W', 'f', 'C', 'ring_zero']\n")
    assert unbound_exports(source) == ["ring_zero"]
