"""Every module-level function and class of the package has a caller.

Code with no caller is deleted, not kept for tests alone.  This reads each
module of `src/realpv` and each script of `bench/` with the standard
library's `ast` and reports the package's module-level `def`s and `class`es
that nothing there references.  A reference is a name, an attribute, or a
string constant equal to the name (the bench tracer patches functions by
name).  These do not count: the definition itself and anything inside it,
the strings of an `__all__` list, and the package `__init__`, which only
re-exports.  Tests do not count either.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "realpv"

# name -> why it stays without a caller
ALLOWED = {
    "check_inclusion_reversal": (
        "ROADMAP item 17 (the whole correspondence on finite slices) runs it "
        "from the correspondence pipeline"
    ),
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _references(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if n.value.isidentifier():
                out.add(n.value)
    return out


def unreferenced(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """`module.name` of each module-level def or class in the `package`
    sources that no source of `package` or `others` references outside its
    own definition."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module, source in [*package.items(), *others.items()]:
        for node in ast.parse(source).body:
            if _is_all(node):
                continue
            refs = _references(node)
            if module in package and isinstance(node, DEFINITIONS):
                defined[node.name] = module
                refs.discard(node.name)
            used |= refs
    return sorted(f"{m}.{name}" for name, m in defined.items() if name not in used)


def _sources(paths) -> dict[str, str]:
    return {p.stem: p.read_text() for p in paths}


def test_every_package_name_has_a_caller():
    package = _sources(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    bench = _sources(sorted((ROOT / "bench").rglob("*.py")))
    dead = {q.rsplit(".", 1)[1]: q for q in unreferenced(package, bench)}
    assert sorted(q for name, q in dead.items() if name not in ALLOWED) == []
    # an allowed name that gained a caller, or is gone, leaves the list
    assert sorted(set(ALLOWED) - set(dead)) == []


def test_guard_sees_uncalled_names_and_skips_called_ones():
    package = {
        "mod": (
            "__all__ = ['unused', 'Lonely']\n"
            "def unused():\n"
            "    return unused()\n"
            "class Lonely:\n"
            "    def make(self) -> 'Lonely':\n"
            "        return Lonely()\n"
            "def called():\n"
            "    return 1\n"
            "def by_attribute():\n"
            "    return 2\n"
            "def by_string():\n"
            "    return 3\n"
            "def helper():\n"
            "    return called()\n"
        ),
    }
    others = {
        "script": (
            "import mod\n"
            "mod.by_attribute()\n"
            "for f in ('by_string',):\n"
            "    pass\n"
            "mod.helper()\n"
            "# unused is mentioned in a comment only\n"
            "'''unused in a docstring'''\n"
        ),
    }
    assert unreferenced(package, others) == ["mod.Lonely", "mod.unused"]
