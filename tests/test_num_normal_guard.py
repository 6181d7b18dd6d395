"""Only `tower` tells a `FieldElement` its numerator is a normal form.

`FieldElement(num, den, tower, num_normal=True)` skips the numerator's
normal form.  That is sound only where the numerator was normal-formed by
the same rewrite system, which is `realpv.tower` (a `Ladder` entry).  This
reads each other module of `src/realpv` with the standard library's `ast`
and lists the lines of every call that passes a keyword `num_normal`;
there must be none.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "realpv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "tower.py")


def num_normal_calls(source: str) -> list[int]:
    """Lines of every call with a `num_normal=` keyword."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(k.arg == "num_normal" for k in node.keywords)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_tower_skips_the_numerator_normal_form(path):
    assert num_normal_calls(path.read_text()) == []


def test_guard_sees_num_normal_calls():
    source = (
        "x = FieldElement(n, d, tw, num_normal=True)\n"
        "y = FieldElement(n, d, tw)\n"
        "z = make(\n"
        "    n, num_normal=flag)\n"
        "num_normal = True\n"
    )
    assert num_normal_calls(source) == [1, 3]
    assert num_normal_calls((PACKAGE / "tower.py").read_text())
