"""Only `poly` knows how a monomial is laid out.

Monomial keys are ints whose packing (slot width, slot order, degree and
guard bits) is a decision of `realpv.poly`; every other module packs,
unpacks and re-reads keys through `Context` and the key functions of
`poly`.  This reads each module of `src/realpv` other than `poly.py` with
the standard library's `ast` and lists the lines that access an attribute
named after a private part of the layout (a monomial's `_exps`, a
context's slot offsets, the slot width and masks), or that import a
private name from `poly`; there must be none.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "realpv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "poly.py")
PRIVATE = {
    "_exps", "_key", "_deg",  # Monomial
    "_shift", "_down", "_top", "_slot",  # Context
    "_W", "_MASK", "_GUARD",  # the slot width and masks
}


def layout_reads(source: str) -> list[int]:
    """Lines of every `<expr>.<private>` for a name in PRIVATE, and of every
    import of a name starting with "_" from a module named `poly`."""
    tree = ast.parse(source)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[-1] == "poly"
            and any(alias.name.startswith("_") for alias in node.names)
        ):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_monomial_layout_is_read_only_by_poly(path):
    assert layout_reads(path.read_text()) == []


def test_guard_sees_layout_reads():
    source = (
        "groups = sorted(g, key=lambda m: sorted(m._key))\n"
        "d = m._deg\n"
        "for v in m._exps:\n"
        "    pass\n"
        "key = ctx.key(m)\n"
        "m.exps = m._exps_cache\n"
        "e = m >> ctx._shift[v] & 0xFFFFFFFF\n"
        "d = m >> p.context._top\n"
        "ok = not (b - a) & poly._GUARD\n"
        "from .poly import Key, _MASK\n"
        "from realpv.poly import _widen_guard\n"
        "from .poly import MAX_DEGREE, mono_mul\n"
        "from .gauss import _ONE\n"
        "w = ctx._down\n"
    )
    assert layout_reads(source) == [1, 2, 3, 7, 8, 9, 10, 11, 14]
