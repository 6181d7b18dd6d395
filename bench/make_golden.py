"""Record the golden outputs that the benchmark checks answers against.

    python3 bench/make_golden.py

Run it once, from the root of a checkout, at the commit whose outputs
are the reference.  It runs every op of every workload once and writes
bench/golden/<workload>.json: for CLI ops the exit code and either the
`ok` flag and `data` payload of each report or the first line of the
refusal; for library ops the printed result.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def main() -> int:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, seed=0, with_golden=False)
        golden = {}
        for op in sorted(wl.ops, key=lambda op: op.key):
            out = op.run()
            golden[op.key] = workloads.cli_outcome(out) if name != "algebra" else str(out)
            print(name, op.key, golden[op.key] if name == "algebra" else golden[op.key]["code"],
                  file=sys.stderr)
        with open(workloads.GOLDEN_DIR / f"{name}.json", "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
