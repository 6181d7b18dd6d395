"""Every name a package module imports is used in that module.

No linter ships with the project, so this reads each module of
`src/realpv` (the package `__init__`, which only re-exports, aside) with
the standard library's `ast` and reports imported names that are never
referenced: not as a name, not in a string annotation and not in
`__all__`.  `from __future__` imports are not names and are skipped.
It also checks the exports: `from realpv import *` succeeds and every name
in the `__all__` of each module that has one resolves, so a deleted name cannot stay listed,
and every name the package exports is listed in the `__all__` of the module it
is imported from, when that module has one.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "realpv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside `from __future__`."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(text) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(
        ((name, line) for name, line in _imported(tree).items() if name not in used),
        key=lambda item: item[1],
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_unused_names_and_skips_used_ones():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Sequence, Mapping\n"
        "from .poly import Poly as P, Context\n"
        "__all__ = ['Context']\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return len(x)\n"
    )
    assert unused_imports(source) == [("os", 2), ("Mapping", 3), ("P", 4)]


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from realpv import *", namespace)
    assert set(importlib.import_module("realpv").__all__) <= namespace.keys()


@pytest.mark.parametrize(
    "module", ["realpv"] + [f"realpv.{p.stem}" for p in MODULES]
)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def _reexported_from() -> dict[str, str]:
    """Name -> module, for each `from .module import name` in the package
    `__init__`."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name: f"realpv.{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_package_exports_are_listed_by_their_modules():
    source = _reexported_from()
    unlisted = []
    for name in importlib.import_module("realpv").__all__:
        if name not in source:  # defined in the package itself
            continue
        mod = importlib.import_module(source[name])
        if hasattr(mod, "__all__") and name not in mod.__all__:
            unlisted.append(f"{mod.__name__}.{name}")
    assert unlisted == []
