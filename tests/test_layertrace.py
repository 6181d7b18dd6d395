"""The benchmark's layer tracer still finds every layer it patches.

`bench/layertrace.py` wraps named functions and methods of `realpv` from
the outside; a renamed or deleted layer makes `install` fail, and a counted
operator that moves out of its class body (where the tracer looks it up)
would read 0.  The tracer
runs in a fresh interpreter so that its patches do not leak into the other
tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import layertrace
import realpv.cli

tr = layertrace.Tracer()
layertrace.install(tr)
for argv in (["correspond", "scenarios/exp.json"], ["twist", "scenarios/sqrt.json"]):
    code = tr.op(lambda: realpv.cli.main(argv + ["--json"]))
    assert code == 0, (argv, code)
for name in ("cli.main", "correspondence.fixed_field", "galois.defining_equations",
             "galois.invariance_conditions", "tower.DiffTower.derive",
             "rewrite.normal_form", "realforms.twist", "realforms.non_reality_witness",
             "gauss.GaussRat.mul", "gauss.GaussRat.add", "gauss.GaussRat.inverse",
             "poly.Poly.mul", "poly.Context.key"):
    assert tr.calls[name] > 0, name
print("traced", len(tr.calls))
"""


def test_layer_tracer_installs_and_traces_an_op():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("traced ")
