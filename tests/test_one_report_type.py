"""One report type: only `report.py` defines a `...Report` class.

Every check and demonstration of the package returns its `report.Report`
whole, verdict lines, INFO lines and data payload included, so that the
command line only picks a report and prints it.  A result record named
`...Report` that carries a report next to fields restating its lines is
what this guards against.  It reads each module of `src/realpv` with the
standard library's `ast` and lists the classes whose name ends in `Report`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "realpv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "report.py")


def report_classes(source: str) -> list[str]:
    """Names of the classes defined anywhere in `source` that end in Report."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name.endswith("Report")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_report_py_defines_a_report_class(path):
    assert report_classes(path.read_text()) == []


def test_guard_sees_report_classes():
    source = (
        "@dataclass\n"
        "class H1Report:\n"
        "    report: Report\n"
        "def f():\n"
        "    class InnerReport: pass\n"
        "class Reporter: pass\n"
        "x = Report()\n"
    )
    assert report_classes(source) == ["H1Report", "InnerReport"]
