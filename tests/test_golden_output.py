"""Byte-for-byte goldens of the full JSON output of `all` and the demos.

The goldens freeze every report line (names, statuses and details), not
only the `ok` flags and data payloads.  After an intended change of the
output, regenerate them with

    PYTHONPATH=src python tests/test_golden_output.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from realpv.cli import DEMO_NAMES, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("circle", "constcoeff", "exp", "sqrt")

CASES = [
    (f"all_{name}", ["all", str(ROOT / "scenarios" / f"{name}.json"), "--json"])
    for name in SCENARIOS
] + [(f"demo_{name}", ["demo", name, "--json"]) for name in DEMO_NAMES]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("key,argv", CASES, ids=[k for k, _ in CASES])
def test_json_output_matches_golden(key, argv):
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{key}.json").read_text()


if __name__ == "__main__":
    for key, argv in CASES:
        code, out, err = _run(argv)
        if code != 0:
            sys.exit(f"{key}: exit {code}: {err}")
        (GOLDEN / f"{key}.json").write_text(out)
        print(f"wrote {key}.json")
