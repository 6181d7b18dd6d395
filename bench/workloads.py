"""Op lists of the benchmark workloads and the checks on their outputs.

An op is one closed-loop request: the benchmark calls it, waits for the
answer, then checks the answer outside the timed region.  Every workload
runs the same fixed op list on every pass; the run seed only orders it
(and, for `algebra`, picks the ops re-checked against sympy).

Workloads:

- `certify`: CLI `build` and `group` on every corpus scenario, at the
  default scan bounds and at `--scan-degree 6 --scan-coeff-degree 5`.
- `pipeline`: CLI `all` on every corpus scenario (each has a subgroup or a
  cocycle) plus the four demos.
- `algebra`: library calls on a fixed catalogue of seeded random elements
  of four towers (see algebra.py).

A check returns one of three outcomes:

- OK: the op answered and the answer matches the golden output recorded
  at the seed commit (for CLI ops: every report is ok and its `data`
  payload is unchanged);
- REFUSED: the op refused exactly as it did at the seed commit;
- FAILED: anything else.  An op that was refused at the seed commit and
  now answers with passing reports counts as OK, since there is no older
  answer to compare it with.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import realpv.cli
from realpv.scenario import load_scenario

import algebra

OK, REFUSED, FAILED = "ok", "refused", "failed"

BENCH_DIR = Path(__file__).resolve().parent
SCENARIO_DIR = BENCH_DIR / "scenarios"
GOLDEN_DIR = BENCH_DIR / "golden"

WORKLOADS = ("certify", "pipeline", "algebra")
DEMOS = ("weak-normality", "so2-forms", "radical-forms", "seidenberg")
WIDE_SCAN = ("--scan-degree", "6", "--scan-coeff-degree", "5")


@dataclass
class Op:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    # False for the ops refused at the seed commit; their time stays out of
    # the timing metrics so that a fix does not move the timings.
    seed_ok: bool


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Independent re-check run once after the timed passes; returns the
    # keys of the ops that disagree with it.
    recheck: Callable[[dict[str, Any]], list[str]] | None = None


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = realpv.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_outcome(result: tuple[int, str, str]) -> dict:
    """The part of a CLI answer that is compared with the golden."""
    code, out, err = result
    if code != 0:
        return {"code": code, "error": err.strip().splitlines()[0] if err.strip() else ""}
    payload = json.loads(out)
    reports = payload if isinstance(payload, list) else [payload]
    return {
        "code": 0,
        "reports": [{"ok": r["ok"], "data": r["data"]} for r in reports],
    }


def _cli_check(golden: dict | None) -> Callable[[Any], str]:
    def check(result) -> str:
        got = cli_outcome(result)
        if golden is None:
            return FAILED
        if got == golden:
            return OK if got["code"] == 0 else REFUSED
        if golden["code"] != 0 and got["code"] == 0:
            return OK if all(r["ok"] for r in got["reports"]) else FAILED
        return FAILED

    return check


def _cli_ops(keys_argv: list[tuple[str, list[str]]], golden: dict | None) -> list[Op]:
    ops = []
    for key, argv in keys_argv:
        g = None if golden is None else golden[key]
        ops.append(
            Op(
                key,
                lambda argv=argv: cli_call(argv),
                _cli_check(g),
                seed_ok=g is None or g["code"] == 0,
            )
        )
    return ops


def _algebra_check(cat: algebra.Catalogue, key: str, golden: dict | None):
    def check(result) -> str:
        return OK if golden is not None and cat.matches(key, result, golden[key]) else FAILED

    return check


def scenario_paths() -> list[Path]:
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    for p in paths:
        load_scenario(str(p))  # the corpus must stay valid
    return paths


def certify_argvs() -> list[tuple[str, list[str]]]:
    out = []
    for p in scenario_paths():
        for cmd in ("build", "group"):
            out.append((f"{cmd} {p.name}", [cmd, str(p), "--json"]))
            out.append(
                (f"{cmd} {p.name} wide", [cmd, str(p), "--json", *WIDE_SCAN])
            )
    return out


def pipeline_argvs() -> list[tuple[str, list[str]]]:
    out = [(f"all {p.name}", ["all", str(p), "--json"]) for p in scenario_paths()]
    out += [(f"demo {d}", ["demo", d, "--json"]) for d in DEMOS]
    return out


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        return json.load(fh)


def make(name: str, seed: int, with_golden: bool = True) -> Workload:
    """Build a workload's ops; the seed orders them."""
    golden = load_golden(name) if with_golden else None
    if name == "certify":
        wl = Workload(name, _cli_ops(certify_argvs(), golden))
    elif name == "pipeline":
        wl = Workload(name, _cli_ops(pipeline_argvs(), golden))
    elif name == "algebra":
        cat = algebra.Catalogue()
        wl = Workload(
            name,
            [Op(key, run, _algebra_check(cat, key, golden), seed_ok=True)
             for key, run in cat.ops()],
            recheck=lambda results: cat.oracle_check(results, seed),
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(wl.ops)
    return wl
