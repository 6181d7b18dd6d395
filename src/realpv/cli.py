"""Command line front end.

Subcommands take a scenario file (see scenario.py for the schema) and
print a deterministic report, as text or JSON:

    realpv build scenario.json        construct and certify the extension
    realpv group scenario.json        solution relations and defining equations
    realpv correspond scenario.json   fixed field and round trips (needs subgroup)
    realpv twist scenario.json        twist by a cocycle (needs cocycle)
    realpv all scenario.json          everything the scenario supports
    realpv demo NAME                  weak-normality, so2-forms,
                                      radical-forms or seidenberg

Exit status: 0 when every check passes, 1 when a check fails or the
mathematics refuses (certificate failure, unsupported fragment), 2 for
bad usage or an invalid scenario.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, cached_property

from .correspondence import (
    check_correspondence,
    normality_check,
    weak_normality_demo,
)
from .errors import AlgebraError, NotPV, ScenarioError, WitnessNotFound
from .galois import defining_equations, matrix_from_texts
from .pv import DEFAULT_SCAN_BOUNDS, LinearODE, build_pv
from .realforms import (
    cocycle_check,
    h1_enumerate,
    non_reality_witness,
    radical_pair_report,
    twist,
)
from .report import Report
from .scenario import Scenario, load_scenario
from .seidenberg import seidenberg_demo
from .tower import DiffTower

__all__ = ["main"]

DEMO_NAMES = ("weak-normality", "so2-forms", "radical-forms", "seidenberg")


class _Session:
    """One invocation's pipeline: the certified extension and its Galois
    group, each built once, on first use.  A session lives for a single
    `main` call; nothing is kept between calls."""

    def __init__(self, scn: Scenario, scan_bounds: tuple[int, int]):
        self.scn = scn
        self.scan_bounds = scan_bounds

    @cached_property
    def pv(self):
        scn = self.scn
        base = DiffTower(base_var=scn.base_var or None)
        ode = LinearODE.from_texts(base, list(scn.coefficients))
        radical_base = base.parse(scn.radical_base) if scn.radical_base else None
        return build_pv(base, ode, scn.eq_class, self.scan_bounds, radical_base)

    @cached_property
    def group(self):
        return defining_equations(self.pv)


def _build_report(ses: _Session) -> Report:
    scn, pv = ses.scn, ses.pv
    rep = Report(f"build: {scn.describe()}")
    rep.info("equation", pv.ode.describe())
    rep.info("extension", "; ".join(pv.extension.describe()))
    rep.info("solutions", ", ".join(str(s) for s in pv.solutions))
    rep.info(
        "companion matrix",
        "; ".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in pv.companion
        ),
    )
    rep.extend(pv.certificates)
    rep.data["solutions"] = [str(s) for s in pv.solutions]
    rep.data["class"] = pv.eq_class
    return rep


def _group_report(ses: _Session) -> Report:
    rep = Report(f"group: {ses.scn.describe()}")
    group = ses.group
    for line in group.relations:
        rep.info("relation", line)
    rep.info(
        "relation list complete",
        "yes" if group.relations_complete else "no (a generator relation is not "
        "expressible in the solutions; defining set may be larger than the true group)",
    )
    if group.polys:
        for p in group.polys:
            rep.info("defining equation", str(p))
    else:
        rep.info("defining equation", "none (the group is all of GL1)")
    rep.data["defining_set"] = group.serialized()
    rep.data["size"] = group.size
    return rep


def _correspond_report(ses: _Session) -> Report:
    scn = ses.scn
    if scn.subgroup is None:
        raise ScenarioError("correspond needs a subgroup entry", location="scenario")
    group, desc = ses.group, scn.subgroup
    rep = Report(f"correspond: {desc.label()} inside the group of {scn.describe()}")
    round_trips, fixed, sub = check_correspondence(group, desc)
    rep.info("fixed field", fixed.describe())
    rep.info(
        "stabilizer", "; ".join(sub.serialized()) if sub.polys else "the full group"
    )
    rep.extend(round_trips)
    normality = normality_check(group, desc)
    rep.extend(normality.report)
    if normality.quotient_ode is not None:
        rep.info("quotient equation", normality.quotient_ode.describe())
        rep.info(
            "quotient solutions",
            ", ".join(str(x) for x in normality.quotient_solutions),
        )
    rep.data["fixed_field"] = fixed.describe()
    rep.data["stabilizer"] = sub.serialized()
    return rep


def _twist_report(ses: _Session) -> Report:
    scn = ses.scn
    if scn.cocycle is None:
        raise ScenarioError("twist needs a cocycle entry", location="scenario")
    pv, group, rows = ses.pv, ses.group, scn.cocycle
    rep = Report(f"twist: {scn.describe()}")
    is_cocycle = cocycle_check(group, rows)
    rep.add("matrix is a cocycle", is_cocycle)
    if not is_cocycle:
        return rep
    result = twist(pv, group, rows)
    rep.info("cocycle", str(result.cocycle.render()))
    rep.info("twist", result.note)
    rep.extend(result.report)
    if result.isomorphic_to_original:
        rep.info("real form", "isomorphic to the original extension")
    else:
        rep.info("real form", "a genuinely different real form")
        try:
            wit = non_reality_witness(result.tower)
            rep.info(
                "non-reality witness",
                " , ".join(str(x) for x in wit) + "  (squares sum to -1)",
            )
        except WitnessNotFound as e:
            rep.info("non-reality witness", f"none found: {e}")
        if pv.eq_class == "RADICAL":
            rep.extend(radical_pair_report(pv, result))
    rep.data["twisted_solutions"] = [str(x) for x in result.solutions]
    return rep


_SCENARIO_REPORTS = {
    "build": _build_report,
    "group": _group_report,
    "correspond": _correspond_report,
    "twist": _twist_report,
}


def _demo_report(name: str) -> Report:
    if name == "weak-normality":
        rep = Report("demo: weak normality fails for K(e^3) inside K(e)")
        wr = weak_normality_demo(3)
        rep.info(
            "subgroup sizes",
            f"{wr.real_member_count} real member(s) vs "
            f"{wr.complex_member_count} over the complexified constants",
        )
        rep.extend(wr.report)
        rep.info("control case", "q = 2, where a real member does move e")
        wr2 = weak_normality_demo(2)
        rep.extend(wr2.report)
        rep.data["q3_real_members"] = wr.real_member_count
        rep.data["q3_complex_members"] = wr.complex_member_count
        return rep

    if name == "so2-forms":
        rep = Report("demo: the two real forms of the circle extension")
        base = DiffTower(base_var="t")
        pv = build_pv(base, LinearODE.from_texts(base, ["1", "0"]), "CIRCLE")
        group = defining_equations(pv)
        h1 = h1_enumerate(group, "SO2")
        rep.info("classes", ", ".join(c.label for c in h1.classes))
        rep.extend(h1.report)
        result = twist(pv, group, matrix_from_texts([["-1", "0"], ["0", "-1"]]))
        rep.extend(result.report)
        wit = non_reality_witness(result.tower)
        squares = sum((x * x for x in wit), result.tower.zero())
        rep.add(
            "twisted field is not formally real",
            squares == result.tower.const(-1),
            " , ".join(str(x) for x in wit) + "  squares sum to -1",
        )
        try:
            non_reality_witness(pv.extension)
            found = True
        except WitnessNotFound:
            found = False
        rep.add(
            "original field has no such witness",
            not found,
            "witness found" if found else "no relation writes -1 as a sum of squares",
        )
        rep.data["classes"] = [c.label for c in h1.classes]
        return rep

    if name == "radical-forms":
        rep = Report("demo: square roots of t and of -t are different real forms")
        base = DiffTower(base_var="t")
        pv = build_pv(base, LinearODE.from_texts(base, ["-1/2 * 1/t"]), "RADICAL")
        group = defining_equations(pv)
        h1 = h1_enumerate(group, "MU_2")
        rep.info("classes", ", ".join(c.label for c in h1.classes))
        rep.extend(h1.report)
        result = twist(pv, group, matrix_from_texts([["-1"]]))
        rep.extend(result.report)
        rep.extend(radical_pair_report(pv, result))
        rep.data["classes"] = [c.label for c in h1.classes]
        return rep

    if name == "seidenberg":
        rep = Report("demo: a differential field with real constants that is not real")
        res = seidenberg_demo()
        rep.extend(res.report)
        rep.info("witness", ", ".join(str(x) for x in res.witness))
        rep.info("new constants", " ; ".join(str(x) for x in res.new_constants))
        rep.data["witness"] = [str(x) for x in res.witness]
        rep.data["new_constants"] = [str(x) for x in res.new_constants]
        return rep

    raise ScenarioError(f"unknown demo {name!r}, pick one of {DEMO_NAMES}")


def _emit(reports: list[Report], args) -> int:
    if args.json:
        if len(reports) == 1:
            text = reports[0].to_json()
        else:
            payload = [json.loads(r.to_json()) for r in reports]
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(r.to_text() for r in reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r.ok for r in reports) else 1


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", help="write the report to a file")


def _scan_bounds(args) -> tuple[int, int]:
    """The command-line scan bounds; out-of-range ones are refused."""
    if args.scan_degree < 1:
        raise ScenarioError("scan bounds out of range", location="--scan-degree")
    if args.scan_coeff_degree < 0:
        raise ScenarioError("scan bounds out of range", location="--scan-coeff-degree")
    return args.scan_degree, args.scan_coeff_degree


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="realpv",
        description="exact real Picard-Vessiot computations on certified towers",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    deg, cdeg = DEFAULT_SCAN_BOUNDS
    for name in ("build", "group", "correspond", "twist", "all"):
        p = subs.add_parser(name)
        p.add_argument("scenario", help="path to a scenario JSON file")
        _add_output(p)
        p.add_argument("--scan-degree", type=int, default=deg, help="override the scan degree bound")
        p.add_argument(
            "--scan-coeff-degree",
            type=int,
            default=cdeg,
            help="override the scan coefficient bound",
        )
    demo = subs.add_parser("demo")
    demo.add_argument("name", choices=DEMO_NAMES)
    _add_output(demo)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "demo":
            reports = [_demo_report(args.name)]
        else:
            scn = load_scenario(args.scenario)
            ses = _Session(scn, _scan_bounds(args))
            if args.command == "all":
                reports = [_build_report(ses), _group_report(ses)]
                if scn.subgroup is not None:
                    reports.append(_correspond_report(ses))
                if scn.cocycle is not None:
                    reports.append(_twist_report(ses))
            else:
                reports = [_SCENARIO_REPORTS[args.command](ses)]
    except ScenarioError as e:
        loc = f" at {e.location}" if e.location else ""
        print(f"scenario error{loc}: {e}", file=sys.stderr)
        return 2
    except NotPV as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        if e.report is not None:
            for check in e.report.lines:
                print(f"  [{check.status}] {check.name}: {check.detail}", file=sys.stderr)
        return 1
    except AlgebraError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return _emit(reports, args)


if __name__ == "__main__":
    sys.exit(main())
