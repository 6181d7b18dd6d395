"""The realpv benchmark.

    python3 bench/run.py --workload certify|pipeline|algebra|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `realpv` from
`src/`.  Each workload is a closed loop with one client in this single
process: it repeats passes over a fixed op list (ordered by the seed)
until `--seconds` have elapsed, with at least four passes, and checks
every answer outside the timed region (see workloads.py).

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics.  Times are wall times scaled to a reference CPU
speed (see ScaledClock), because the CPU's own speed drifts by up to
1.7x; the unscaled pass times are in the context line.

- pass_s: median time of one pass over the ops that succeeded at the
  seed commit;
- op_p50_ms, op_tail_ms: median and tail per-op latency over those ops;
  the tail is the highest whole percentile that leaves at least ten
  samples beyond it in a four-pass run, and is fixed per workload;
- ok_frac: share of attempted ops answered with an output that passes
  its check (1 - failed_frac, where failed_frac counts failures, refusals
  and failed checks);
- peak_rss_mb: peak resident set size of the process so far, before the
  sympy re-check;
- setup_s: median of nine set-ups, each a fresh import of realpv plus
  loading the scenarios, generating the inputs and loading the goldens.

With `--trace 1` the run first makes one untraced pass, then traces
passes (see layertrace.py) and reports the per-layer metrics of one pass,
as medians over the traced passes; spans go to `bench/out/`.  The line
before the result holds the run's context: Python version, git revision,
nproc, seed, the pass-to-pass spread, the tail percentile and its sample
count, failed_frac, and for traced runs the overhead and layer shares.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("certify", "pipeline", "algebra")
OWN_MODULES = ("workloads", "algebra", "layertrace")
SETUP_REPS = 9
MIN_PASSES = 4
PROBE_STEPS = 500
# Probe time that defines the reference speed (see ScaledClock).
REF_PROBE_S = 0.0021
SAMPLE_S = 0.05

END_TO_END = {
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _layer_names() -> dict[str, str]:
    out = {}

    def add(prefix, stats):
        for stat in stats:
            unit = "s" if stat.endswith("_s") else (
                "ratio" if stat.endswith("ratio") else "count")
            out[f"{prefix}.{stat}"] = unit

    for op in ("mul", "add", "inverse"):
        add(f"gauss.GaussRat.{op}", ["calls"])
    add("poly.Poly.mul", ["calls", "terms_out"])
    add("poly.Poly.add", ["calls"])
    add("poly.Context.key", ["calls"])
    add("rewrite.normal_form", ["calls", "self_s", "terms_in", "terms_out"])
    add("rewrite.buchberger", ["calls", "self_s", "relations_in", "rules_out"])
    add("linsolve.kernel", ["calls", "self_s", "rows", "cols"])
    add("tower.FieldElement.new", ["calls"])
    add("tower.FieldElement.eq", ["calls", "self_s"])
    add("tower.FieldElement.arith", ["calls", "self_s"])
    add("tower.FieldElement", ["terms_max"])
    for m in ("derive", "linear_relations", "constant_scan", "eval_poly", "new"):
        add(f"tower.DiffTower.{m}", ["calls", "self_s"])
    add("tower.DiffTower.constant_scan", ["window"])
    add("wronskian.wronskian_det", ["calls", "self_s", "order"])
    add("pv.build_pv", ["calls", "self_s"])
    for f in ("defining_equations", "apply", "invariance_conditions", "reduces_to_zero"):
        add(f"galois.{f}", ["calls", "self_s"])
    for f in ("fixed_field", "normality_check"):
        add(f"correspondence.{f}", ["calls", "self_s"])
    add("correspondence.member_of_field", ["calls", "self_s", "hit_ratio"])
    add("correspondence.window_products", ["calls", "self_s", "kept_ratio"])
    for f in ("twist", "non_reality_witness", "h1_enumerate"):
        add(f"realforms.{f}", ["calls", "self_s"])
    add("realforms.non_reality_witness", ["found_ratio"])
    add("seidenberg.seidenberg_demo", ["self_s"])
    add("cli.main", ["self_s"])
    add("scenario.load_scenario", ["self_s"])
    add("report.Report.to_json", ["self_s"])
    out["trace.pass.overhead"] = "ratio"
    out["trace.pass.coverage"] = "ratio"
    return out


PER_LAYER = _layer_names()


def git_revision() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a
    git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_cpu() -> int | None:
    """Keep this process on one CPU; the scheduler moving it between CPUs
    adds run-to-run drift."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def probe() -> float:
    """Wall time of a fixed pure-Python task: Fraction arithmetic and dict
    stores, the mix of realpv's inner loops, but no realpv code."""
    start = perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, PROBE_STEPS):
        acc += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
        seen[i % 97, i % 13] = acc.numerator % 1000
    return perf_counter() - start


class ScaledClock:
    """Times calls and scales the times to a reference CPU speed.

    The CPU this runs on switches between speeds that differ by up to
    1.7x, for tenths of a second to tens of seconds, whatever this process
    does.  The clock measures the speed a call ran at with probes: one
    right before the call, one right after it, and, when sampling, one
    every SAMPLE_S during it, run from a timer signal (no thread).  The
    scaled time is the call's wall time, less the time spent in probes,
    times REF_PROBE_S over the mean probe time: the time the call takes
    when the probe takes REF_PROBE_S.
    """

    def __init__(self, sample: bool):
        self.sample = sample
        self.before = probe()
        self._probes: list[float] = []
        self._spent = 0.0
        if sample:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self._probes.append(probe())
        self._spent += perf_counter() - start

    def time(self, fn):
        """Run fn(); returns (its result, scaled seconds, wall seconds)."""
        self._probes, self._spent = [self.before], 0.0
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - start
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall -= self._spent
            self.before = probe()
        self._probes.append(self.before)
        return result, wall * REF_PROBE_S / statistics.fmean(self._probes), wall


def fresh_setup(name: str, seed: int):
    """Import realpv and the workload modules afresh and build the
    workload; returns (workload, workloads module)."""
    for mod in list(sys.modules):
        if mod == "realpv" or mod.startswith("realpv.") or mod in OWN_MODULES:
            del sys.modules[mod]
    import workloads

    return workloads.make(name, seed), workloads


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile with at least ten samples beyond it in a
    run of MIN_PASSES passes."""
    return max(0, math.floor(100 - 1000 / (n_ops * MIN_PASSES)))


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _median_shares(shares: dict[str, list[float]]) -> dict[str, float]:
    med = {k: round(statistics.median(v), 4) for k, v in shares.items()}
    return dict(sorted(med.items(), key=lambda kv: -kv[1]))


class Tally:
    def __init__(self, wmod):
        self.wmod = wmod
        self.attempted = self.refused = self.failed = 0
        self.op_times: list[float] = []
        self.pass_times: list[float] = []
        self.wall_times: list[float] = []
        self.last: dict[str, object] = {}

    def run_pass(self, wl, clock: ScaledClock, tracer=None) -> float:
        """One pass over the ops; returns its scaled time."""
        total = wall = 0.0
        for op in wl.ops:
            run = op.run if tracer is None else (lambda run=op.run: tracer.op(run))
            try:
                out, op_time, op_wall = clock.time(run)
                error = None
            except Exception as exc:  # a crashing op is a failed op
                out, error = None, exc
            status = self.wmod.FAILED if error else op.check(out)
            if error:
                print(f"op {op.key} raised {type(error).__name__}: {error}", file=sys.stderr)
            elif status == self.wmod.FAILED:
                print(f"op {op.key} failed its output check", file=sys.stderr)
            self.attempted += 1
            self.refused += status == self.wmod.REFUSED
            self.failed += status == self.wmod.FAILED
            self.last[op.key] = out
            if op.seed_ok and not error:
                self.op_times.append(op_time)
                total += op_time
                wall += op_wall
        self.pass_times.append(total)
        self.wall_times.append(wall)
        return total


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    clock = ScaledClock(sample=not trace)
    setups = []
    for _ in range(SETUP_REPS):
        (wl, wmod), elapsed, _ = clock.time(lambda: fresh_setup(name, seed))
        setups.append(elapsed)
        gc.collect()  # drop the previous import, so set-ups do not pile up
    tally = Tally(wmod)
    n_timed = sum(op.seed_ok for op in wl.ops)
    pct = tail_percentile(n_timed)
    info = {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "git_rev": git_revision(),
        "nproc": os.cpu_count(),
        "ops_per_pass": len(wl.ops),
        "timed_ops_per_pass": n_timed,
    }
    layer = {}
    start = perf_counter()
    if trace:
        import layertrace

        untraced = tally.run_pass(wl, clock)
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        per_pass: list[dict[str, float]] = []
        shares: dict[str, list[float]] = {}
        layer_shares: dict[str, list[float]] = {}
        while not per_pass or perf_counter() - start < seconds:
            tracer.reset_totals()
            traced = tally.run_pass(wl, clock, tracer)
            m = layertrace.layer_metrics(tracer)
            m["trace.pass.overhead"] = traced / untraced
            op_time = tracer.inclusive_s[layertrace.OP_SPAN]
            unattributed = (tracer.self_s[layertrace.OP_SPAN]
                            + tracer.self_s[layertrace.CLI_SPAN])
            m["trace.pass.coverage"] = 1 - unattributed / op_time
            per_pass.append(m)
            tracer.keep_spans = False  # passes repeat; one pass of spans is enough
            for k, v in tracer.inclusive_s.items():
                shares.setdefault(k, []).append(v / op_time)
            for k, v in tracer.layer_s.items():
                layer_shares.setdefault(k, []).append(v / op_time)
        layer = {k: statistics.median(p.get(k, 0) for p in per_pass) for k in PER_LAYER}
        info["traced_passes"] = len(per_pass)
        info["untraced_pass_s"] = untraced
        info["layer_shares"] = _median_shares(layer_shares)
        info["span_shares"] = _median_shares(shares)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        while len(tally.pass_times) < MIN_PASSES or perf_counter() - start < seconds:
            tally.run_pass(wl, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    disagree = wl.recheck(tally.last) if wl.recheck else []
    for key in disagree:
        print(f"op {key} disagrees with the sympy oracle", file=sys.stderr)
    tally.failed += len(disagree)

    ok = tally.attempted - tally.refused - tally.failed
    info.update(
        passes=len(tally.pass_times),
        pass_times=[round(t, 4) for t in tally.pass_times],
        pass_wall_times=[round(t, 4) for t in tally.wall_times],
        pass_spread=round(spread(tally.pass_times), 4),
        setup_spread=round(spread(setups), 4),
        op_tail_pct=pct,
        op_samples=len(tally.op_times),
        failed_frac=(tally.refused + tally.failed) / tally.attempted,
        refused=tally.refused,
        oracle_disagreements=len(disagree),
    )
    if trace:
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {
            "pass_s": statistics.median(tally.pass_times),
            "op_p50_ms": statistics.median(tally.op_times) * 1000,
            "op_tail_ms": percentile(tally.op_times, pct) * 1000,
            "ok_frac": ok / tally.attempted,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "realpv" / "__init__.py").is_file():
        print(f"no realpv sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    cpu = pin_cpu()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        info, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for key, m in result["metrics"].items():
            print(f"{name:9s} {key:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
        info["cpu_pinned"] = cpu
        print(json.dumps({"info": info}))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
