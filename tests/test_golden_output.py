"""Byte-for-byte goldens of the full JSON output of `all`, the demos and
`build` with the wide scan.

The goldens freeze every report line (names, statuses and details), not
only the `ok` flags and data payloads.  Besides the shipped scenarios they
cover the benchmark corpus scenarios that reach the fixed field of a
subgroup ideal, roots of unity on algebraic and exponential generators
(the exponential one with a rate t^2), two scenarios
under `tests/scenarios/` whose fixed field is recognized as a different
descriptor than the one asked for (so the field round trip computes a
second fixed field), and the scenario that `all` refuses, whose exit code
and stderr are frozen too.  `build` with the wide scan bounds (6, 5) is
frozen on every scenario under `scenarios/`, `bench/scenarios/` and
`tests/scenarios/`, among them `radical_t3` (g^2 = t^3, oriented as the
rule t^3 -> g^2, so its scan normal-forms the shifted columns again) and
`exp_zero` (e' = 0, whose scan finds the constants e, ..., e^6 and fails).
After an intended change of the output, regenerate them with

    PYTHONPATH=src python tests/test_golden_output.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from realpv.cli import DEMO_NAMES, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("circle", "constcoeff", "exp", "sqrt")
BENCH_SCENARIOS = (
    "circle_so2",
    "circle_w3",
    "cbrt_mu3",
    "constcoeff_double",
    "exp_t2_mu5",
    "radical_t2p1",
)
BENCH_REFUSALS = ("constcoeff_complex",)
# Descriptors recognized as TRIVIAL: MU_N(1) on EXP, and the list [I] on CIRCLE.
TEST_SCENARIOS = ("exp_mu1", "circle_identity_list")


def _all_argv(path: Path) -> list[str]:
    return ["all", str(path), "--json"]


CASES = (
    [(f"all_{name}", _all_argv(ROOT / "scenarios" / f"{name}.json")) for name in SCENARIOS]
    + [(f"demo_{name}", ["demo", name, "--json"]) for name in DEMO_NAMES]
    + [
        (f"all_{name}", _all_argv(ROOT / "bench" / "scenarios" / f"{name}.json"))
        for name in BENCH_SCENARIOS
    ]
    + [
        (f"all_{name}", _all_argv(ROOT / "tests" / "scenarios" / f"{name}.json"))
        for name in TEST_SCENARIOS
    ]
)
REFUSALS = [
    (f"refusal_{name}", _all_argv(ROOT / "bench" / "scenarios" / f"{name}.json"))
    for name in BENCH_REFUSALS
]

# `build` at the wide scan bounds on every scenario, keyed by its directory
WIDE_SCAN = ["--json", "--scan-degree", "6", "--scan-coeff-degree", "5"]
WIDE_SCAN_RUNS = [
    (f"{d.split('/')[0]}_{path.stem}", ["build", str(path), *WIDE_SCAN])
    for d in ("scenarios", "bench/scenarios", "tests/scenarios")
    for path in sorted((ROOT / d).glob("*.json"))
]
WIDE_SCAN_REFUSALS = ("tests_exp_zero",)
CASES += [(f"build_wide_{k}", a) for k, a in WIDE_SCAN_RUNS if k not in WIDE_SCAN_REFUSALS]
REFUSALS += [(f"refusal_build_wide_{k}", a) for k, a in WIDE_SCAN_RUNS if k in WIDE_SCAN_REFUSALS]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _refusal_record(argv: list[str]) -> str:
    code, out, err = _run(argv)
    record = {"exit": code, "stdout": out, "stderr": err}
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("key,argv", CASES, ids=[k for k, _ in CASES])
def test_json_output_matches_golden(key, argv):
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{key}.json").read_text()


@pytest.mark.parametrize("key,argv", REFUSALS, ids=[k for k, _ in REFUSALS])
def test_refusal_matches_golden(key, argv):
    assert _refusal_record(argv) == (GOLDEN / f"{key}.json").read_text()


if __name__ == "__main__":
    for key, argv in CASES:
        code, out, err = _run(argv)
        if code != 0:
            sys.exit(f"{key}: exit {code}: {err}")
        (GOLDEN / f"{key}.json").write_text(out)
        print(f"wrote {key}.json")
    for key, argv in REFUSALS:
        (GOLDEN / f"{key}.json").write_text(_refusal_record(argv))
        print(f"wrote {key}.json")
