"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps the public layer entry points of `realpv` from the
outside: methods are replaced on their class, and functions are replaced
in every module that holds them, including modules that imported them by
name (`buchberger` in `tower` and `galois`, `kernel` in `tower` and `pv`,
`wronskian_det` in `pv`, `apply` in `correspondence`, and so on).

Spans carry a trace id (one per op), a span id, a parent id, a name and
start/end times; they stay in memory and are written out at the end.  A
span's self time is its duration minus the durations of its children.
The hottest operators (`GaussRat`, `Poly`, `Context.key`, scan windows)
are counted, not spanned, to keep the overhead bounded.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

OP_SPAN = "bench.op"
CLI_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # flat records: trace id, span id, parent id, name id, start, end
        self.spans = array("d")
        self._stack: list[list] = []  # [span id, name id, start, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self.keep_spans = True
        # on only inside op(), so that the benchmark's own checks do not count
        self.active = False
        self._next_id = 1
        self.trace_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        # time inside the outermost span of each name, and of each layer
        # (module), for layer shares
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)

    def reset_totals(self) -> None:
        """Start a new pass; the wrappers keep references to these dicts."""
        for d in (self.calls, self.self_s, self.counts, self.maxima, self.inclusive_s,
                  self.layer_s):
            d.clear()

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._depth[name] += 1
        self._depth[_layer(name)] += 1
        self._stack.append([span_id, self._name_id(name), perf_counter(), 0.0])

    def close(self) -> None:
        end = perf_counter()
        span_id, name_id, start, child = self._stack.pop()
        dur = end - start
        name = self.names[name_id]
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive_s[name] += dur
        layer = _layer(name)
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.layer_s[layer] += dur
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if self.keep_spans:
            self.spans.extend((self.trace_id, span_id, parent, name_id, start, end))

    def current(self) -> str | None:
        return self.names[self._stack[-1][1]] if self._stack else None

    def op(self, run):
        """Run one op as a new trace, under a root span."""
        self.trace_id += 1
        self.active = True
        self.open(OP_SPAN)
        try:
            return run()
        finally:
            self.close()
            self.active = False

    # -- wrappers --------------------------------------------------------------

    def spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(args, None, exc)
                raise
            finally:
                self.close()
            if after is not None:
                after(args, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn, after=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write the kept spans, times in microseconds from the first start."""
        rec = self.spans
        t0 = rec[4] if rec else 0.0
        with open(path, "w") as fh:
            fh.write('{"fields":["trace","span","parent","name","start_us","end_us"],')
            fh.write(f'"names":{json.dumps(self.names)},"spans":[')
            for i in range(0, len(rec), 6):
                fh.write(
                    f"{',' if i else ''}[{int(rec[i])},{int(rec[i + 1])},{int(rec[i + 2])},"
                    f"{int(rec[i + 3])},{round((rec[i + 4] - t0) * 1e6)},"
                    f"{round((rec[i + 5] - t0) * 1e6)}]"
                )
            fh.write("]}\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _replace_everywhere(orig, wrapper, modules) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install(tr: Tracer) -> None:
    """Patch the realpv layers (and the benchmark's own modules, which call
    them by name) so that they report to `tr`."""
    from realpv import (
        cli, correspondence, galois, gauss, linsolve, poly, pv, realforms,
        report, rewrite, scenario, seidenberg, tower, wronskian,
    )

    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "realpv" or n.startswith("realpv.")
                                     or n in ("workloads", "algebra"))]

    def function(mod, fname, name, kind="span", after=None):
        orig = getattr(mod, fname)
        wrap = (tr.spanned if kind == "span" else tr.counted)(name, orig, after)
        _replace_everywhere(orig, wrap, modules)

    def method(cls, attrs, name, kind="span", after=None):
        for attr in attrs:
            orig = cls.__dict__[attr]
            wrap = (tr.spanned if kind == "span" else tr.counted)(name, orig, after)
            setattr(cls, attr, wrap)

    counts, maxima = tr.counts, tr.maxima

    def add(key, value):
        counts[key] += value

    # gauss and poly: counted only
    method(gauss.GaussRat, ["__mul__", "__rmul__"], "gauss.GaussRat.mul", "count")
    method(gauss.GaussRat, ["__add__", "__radd__"], "gauss.GaussRat.add", "count")
    method(gauss.GaussRat, ["inverse"], "gauss.GaussRat.inverse", "count")
    method(poly.Poly, ["__mul__"], "poly.Poly.mul", "count",
           lambda a, r, e: add("poly.Poly.mul.terms_out", len(r.terms)))
    method(poly.Poly, ["__add__"], "poly.Poly.add", "count")
    method(poly.Context, ["key"], "poly.Context.key", "count")

    def nf_after(a, r, e):
        if e is None:
            add("rewrite.normal_form.terms_in", len(a[1].terms))
            add("rewrite.normal_form.terms_out", len(r.terms))

    method(rewrite.RewriteSystem, ["normal_form"], "rewrite.normal_form", after=nf_after)

    def bb_after(a, r, e):
        if e is None:
            add("rewrite.buchberger.relations_in", len(a[0]))
            add("rewrite.buchberger.rules_out", len(r.rules))

    function(rewrite, "buchberger", "rewrite.buchberger", after=bb_after)

    orig_kernel = linsolve.kernel
    kernel_span = tr.spanned("linsolve.kernel", orig_kernel)

    def kernel(n_cols, equations):
        if not tr.active:
            return orig_kernel(n_cols, equations)
        equations = list(equations)
        add("linsolve.kernel.rows", len(equations))
        add("linsolve.kernel.cols", n_cols)
        return kernel_span(n_cols, equations)

    _replace_everywhere(orig_kernel, kernel, modules)

    def fe_after(a, r, e):
        if isinstance(r, tower.FieldElement):
            size = len(r.num.terms) + len(r.den.terms)
            if size > maxima["tower.FieldElement.terms_max"]:
                maxima["tower.FieldElement.terms_max"] = size

    FE = tower.FieldElement
    method(FE, ["__init__"], "tower.FieldElement.new", "count")
    method(FE, ["__eq__"], "tower.FieldElement.eq")
    method(FE, ["__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
                "inverse", "__pow__"], "tower.FieldElement.arith", after=fe_after)
    DT = tower.DiffTower
    method(DT, ["__init__"], "tower.DiffTower.new")
    for m in ("derive", "linear_relations", "constant_scan", "eval_poly"):
        method(DT, [m], f"tower.DiffTower.{m}")

    def scan_after(a, r, e):
        if tr.current() == "tower.DiffTower.constant_scan":
            add("tower.DiffTower.constant_scan.window", len(r[0]))

    method(DT, ["scan_basis"], "tower.DiffTower.scan_basis", "count", scan_after)

    def wr_after(a, r, e):
        n = len(a[0].rows)
        if n > maxima["wronskian.wronskian_det.order"]:
            maxima["wronskian.wronskian_det.order"] = n

    function(wronskian, "wronskian_det", "wronskian.wronskian_det", after=wr_after)
    function(pv, "build_pv", "pv.build_pv")
    for f in ("defining_equations", "apply", "invariance_conditions", "reduces_to_zero"):
        function(galois, f, f"galois.{f}")
    for f in ("fixed_field", "normality_check"):
        function(correspondence, f, f"correspondence.{f}")

    def member_after(a, r, e):
        if r:
            add("correspondence.member_of_field.hits", 1)

    function(correspondence, "member_of_field", "correspondence.member_of_field",
             after=member_after)

    def window_after(a, r, e):
        if e is not None:
            return
        tw, gens, degree_bound, t_power_bound = a
        spread = 2 * t_power_bound + 1 if tw.base_var and t_power_bound else 1
        add("correspondence.window_products.raw", (degree_bound + 1) ** len(gens) * spread)
        add("correspondence.window_products.kept", len(r))

    function(correspondence, "window_products", "correspondence.window_products",
             after=window_after)
    for f in ("twist", "h1_enumerate"):
        function(realforms, f, f"realforms.{f}")

    def witness_after(a, r, e):
        if e is None:
            add("realforms.non_reality_witness.found", 1)

    function(realforms, "non_reality_witness", "realforms.non_reality_witness",
             after=witness_after)
    function(seidenberg, "seidenberg_demo", "seidenberg.seidenberg_demo")
    function(cli, "main", CLI_SPAN)
    function(scenario, "load_scenario", "scenario.load_scenario")
    method(report.Report, ["to_json"], "report.Report.to_json")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Totals for one pass, by per-layer metric name."""
    out: dict[str, float] = {}
    for name, n in tr.calls.items():
        out[f"{name}.calls"] = n
    for name, s in tr.self_s.items():
        out[f"{name}.self_s"] = s
    out.update(tr.counts)
    out.update(tr.maxima)
    c = tr.counts
    out["correspondence.member_of_field.hit_ratio"] = _ratio(
        c["correspondence.member_of_field.hits"],
        tr.calls["correspondence.member_of_field"],
    )
    out["correspondence.window_products.kept_ratio"] = _ratio(
        c["correspondence.window_products.kept"], c["correspondence.window_products.raw"]
    )
    out["realforms.non_reality_witness.found_ratio"] = _ratio(
        c["realforms.non_reality_witness.found"], tr.calls["realforms.non_reality_witness"]
    )
    return out
