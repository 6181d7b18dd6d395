"""Only `poly` knows how a monomial is laid out.

Monomial keys are plain tuples whose slot order is a decision of
`realpv.poly`; every other module packs, unpacks and re-reads keys through
`Context` and the key functions of `poly`.  This reads each module of
`src/realpv` other than `poly.py` with the standard library's `ast` and
lists the lines that access an attribute named `_exps`, `_key` or `_deg`
(the private parts of a monomial); there must be none.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "realpv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "poly.py")
PRIVATE = {"_exps", "_key", "_deg"}


def layout_reads(source: str) -> list[int]:
    """Lines of every `<expr>._exps`, `<expr>._key` or `<expr>._deg`."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE
    )


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
    )
    assert layout_reads(source) == [1, 2, 3]
