"""No module reads a free-form `meta` record off an extension.

A Picard-Vessiot extension is its tower, its solutions and its companion
matrix, and every module reads what it needs from those, so that one
module alone knows how each class is presented.  This reads each module of
`src/realpv` with the standard library's `ast` and lists the lines that
access an attribute named `meta`; there must be none.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "realpv"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = ()


def meta_reads(source: str) -> list[int]:
    """Lines of every `<expr>.meta` attribute access."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "meta"
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in READERS], ids=lambda p: p.name
)
def test_meta_is_read_only_by_pv_and_cli(path):
    assert meta_reads(path.read_text()) == []


def test_guard_sees_meta_reads():
    source = (
        "x = pv.meta['omega']\n"
        "y = pv.meta.get('radical', {})\n"
        "meta = 1\n"
        "z = pv.metadata\n"
    )
    assert meta_reads(source) == [1, 2]
