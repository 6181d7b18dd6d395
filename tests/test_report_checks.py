"""Every PASS line of the package is computed.

A `Report.add` call whose verdict is the literal `True` prints PASS
whatever happens; a fact that holds by construction is an INFO line
(`Report.info`).  This reads each module of `src/realpv` with the
standard library's `ast` and reports the `.add` calls that pass `True`
as their verdict, positionally or as `passed=`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "realpv"
MODULES = sorted(PACKAGE.glob("*.py"))


def literal_true_checks(source: str) -> list[int]:
    """Lines of `.add(name, True, ...)` and `.add(..., passed=True)` calls."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add"
        ):
            continue
        verdicts = node.args[1:2] + [k.value for k in node.keywords if k.arg == "passed"]
        if any(isinstance(v, ast.Constant) and v.value is True for v in verdicts):
            out.append(node.lineno)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_literal_true_verdicts(path):
    assert literal_true_checks(path.read_text()) == []


def test_guard_sees_literal_verdicts_only():
    source = (
        "seen = set()\n"
        "seen.add(True)\n"
        "rep.add('a', True, 'by construction')\n"
        "rep.add('b', ok)\n"
        "rep.add('c', passed=True)\n"
        "rep.add('d', not found, 'detail')\n"
        "rep.info('e', 'by construction')\n"
    )
    assert literal_true_checks(source) == [3, 5]
