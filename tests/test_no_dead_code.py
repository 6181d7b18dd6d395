"""Every function, class and method of the package has a caller.

Code with no caller is deleted, not kept for tests alone.  This reads each
module of `src/realpv` and each script of `bench/` with the standard
library's `ast` and reports the package's module-level `def`s and `class`es,
and the methods in each class body, that nothing there references.  A
reference is a name, an attribute, or a string constant equal to the name
(the bench tracer patches functions by name).  A bare name cannot call a
method, so a method is referenced only by an attribute or a string.  These
do not count: a definition's own name anywhere inside it, the strings of
an `__all__` list, and the package `__init__`, which only re-exports.
Tests do not count either.  Dunder methods are not checked: Python calls
them.  Names are matched by themselves, so a method counts as called when
any attribute of that name is.

Names that only `bench/` references are listed in BENCH_ONLY with the
ROADMAP item that releases them; the list must match exactly.
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

# name -> the ROADMAP item that releases it from `bench/`, which alone calls it
BENCH_ONLY = {
    "reduces_to_zero": "item 8: bench/layertrace.py patches it by name",
    "independent_over_constants": "item 8, step 6: an op of the algebra workload",
    "DiffTower.scan_basis": "item 8: bench/layertrace.py patches it by name",
    "DiffTower.linear_relations": "item 8: bench/layertrace.py patches it by name",
    "kernel": "item 8: bench/layertrace.py patches it by name",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(node: ast.AST) -> tuple[set[str], set[str]]:
    """The names node references as bare names, and those it references as
    attributes or strings; inside a definition, not its own."""
    bare, named = set(), set()
    for child in ast.iter_child_nodes(node):
        b, n = _references(child)
        bare |= b
        named |= n
    if isinstance(node, DEFINITIONS):
        bare.discard(node.name)
        named.discard(node.name)
    elif isinstance(node, ast.Name):
        bare.add(node.id)
    elif isinstance(node, ast.Attribute):
        named.add(node.attr)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.isidentifier():
            named.add(node.value)
    return bare, named


def _definitions(node: ast.stmt, owner: str = "") -> list[str]:
    """The qualified name of a def or class and, for a class, of each of its
    methods but the dunders."""
    name = owner + node.name
    out = [name]
    if isinstance(node, ast.ClassDef):
        for item in node.body:
            if isinstance(item, DEFINITIONS) and not _is_dunder(item.name):
                out += _definitions(item, name + ".")
    return out


def unreferenced(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """`module.name` of each module-level def or class, and `module.Class.name`
    of each method, in the `package` sources that no source of `package` or
    `others` references outside its own definition."""
    defined: list[tuple[str, str]] = []
    bare: set[str] = set()
    named: set[str] = set()
    for module, source in [*package.items(), *others.items()]:
        for node in ast.parse(source).body:
            if _is_all(node):
                continue
            b, n = _references(node)
            bare |= b
            named |= n
            if module in package and isinstance(node, DEFINITIONS):
                defined += [(module, q) for q in _definitions(node)]

    def used(q: str) -> bool:
        owner, _, name = q.rpartition(".")
        return name in named or (not owner and name in bare)

    return sorted(f"{module}.{q}" for module, q in defined if not used(q))


def _sources(paths) -> dict[str, str]:
    return {p.stem: p.read_text() for p in paths}


def _dead(with_bench: bool) -> dict[str, str]:
    """Each unreferenced name, without its module, to its `unreferenced` entry."""
    package = _sources(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    bench = _sources(sorted((ROOT / "bench").rglob("*.py"))) if with_bench else {}
    return {q.split(".", 1)[1]: q for q in unreferenced(package, bench)}


def test_every_package_name_has_a_caller():
    dead = _dead(with_bench=True)
    assert sorted(q for name, q in dead.items() if name not in ALLOWED) == []
    # an allowed name that gained a caller, or is gone, leaves the list
    assert sorted(set(ALLOWED) - set(dead)) == []


def test_bench_only_names_are_listed():
    """The names that `bench/` alone references are BENCH_ONLY: one that
    gains a caller in the package, or is gone, leaves the list, and a new
    one joins it with the item that releases it."""
    bench_only = set(_dead(with_bench=False)) - set(_dead(with_bench=True))
    assert sorted(bench_only) == sorted(BENCH_ONLY)


def test_guard_sees_uncalled_names_and_skips_called_ones():
    package = {
        "mod": (
            "__all__ = ['unused', 'Lonely']\n"
            "def unused():\n"
            "    return unused()\n"
            "class Lonely:\n"
            "    def make(self) -> 'Lonely':\n"
            "        return Lonely()\n"
            "class Used:\n"
            "    def __init__(self):\n"
            "        self.value = self.helped()\n"
            "    def helped(self):\n"
            "        return 1\n"
            "    def spin(self):\n"
            "        return self.spin()\n"
            "    def by_script(self):\n"
            "        return 0\n"
            "    def shadowed(self):\n"
            "        return 4\n"
            "def called():\n"
            "    shadowed = Used()\n"
            "    return shadowed\n"
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
            "mod.helper().by_script()\n"
            "# unused is mentioned in a comment only\n"
            "'''unused in a docstring'''\n"
        ),
    }
    assert unreferenced(package, others) == [
        "mod.Lonely", "mod.Lonely.make", "mod.Used.shadowed", "mod.Used.spin", "mod.unused"
    ]
    # without the script, what only it calls has no caller
    assert unreferenced(package, {}) == [
        "mod.Lonely", "mod.Lonely.make", "mod.Used.by_script", "mod.Used.shadowed",
        "mod.Used.spin", "mod.by_attribute", "mod.by_string", "mod.helper", "mod.unused",
    ]
