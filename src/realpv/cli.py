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

The twist and demo reports come whole from the library; this module
assembles the build, group and correspond reports from library results,
titles the scenario reports and prints them.

Exit status: 0 when every check passes, 1 when a check fails or the
mathematics refuses (certificate failure, unsupported fragment), 2 for
bad usage, an invalid scenario or an `--out` file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, cached_property

from .correspondence import check_correspondence, normality_check, weak_normality_demo
from .errors import AlgebraError, NotPV, ScenarioError
from .galois import defining_equations
from .pv import DEFAULT_SCAN_BOUNDS, MAX_SCAN_BOUNDS, LinearODE, build_pv
from .realforms import radical_forms_demo, so2_forms_demo, twist_report
from .report import Report
from .scenario import Scenario, load_scenario
from .seidenberg import seidenberg_demo
from .tower import DiffTower

__all__ = ["main"]


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
        ode = LinearODE(base, tuple(base.elem(*f) for f in scn.parsed_coefficients))
        radical_base = scn.parsed_radical_base and base.elem(*scn.parsed_radical_base)
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
    rep.extend(normality_check(group, desc))
    rep.data["fixed_field"] = fixed.describe()
    rep.data["stabilizer"] = sub.serialized()
    return rep


def _twist_report(ses: _Session) -> Report:
    scn = ses.scn
    if scn.cocycle is None:
        raise ScenarioError("twist needs a cocycle entry", location="scenario")
    rep = twist_report(ses.pv, ses.group, scn.cocycle)
    rep.title = f"twist: {scn.describe()}"
    return rep


_SCENARIO_REPORTS = {
    "build": _build_report,
    "group": _group_report,
    "correspond": _correspond_report,
    "twist": _twist_report,
}

# Each demo is called through this module's globals, so that a tracer that
# replaces the module attribute sees the call.
_DEMO_REPORTS = {
    "weak-normality": lambda: weak_normality_demo(),
    "so2-forms": lambda: so2_forms_demo(),
    "radical-forms": lambda: radical_forms_demo(),
    "seidenberg": lambda: seidenberg_demo(),
}
DEMO_NAMES = tuple(_DEMO_REPORTS)


def _emit(reports: list[Report], args) -> int:
    if args.json:
        if len(reports) == 1:
            text = reports[0].to_json()
        else:
            payload = [r.payload() for r in reports]
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(r.to_text() for r in reports)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all(r.ok for r in reports) else 1


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", help="write the report to a file")


def _scan_bounds(args) -> tuple[int, int]:
    """The command-line scan bounds; out-of-range ones are refused."""
    bounds = args.scan_degree, args.scan_coeff_degree
    flags = ("--scan-degree", "--scan-coeff-degree")
    for flag, value, low, high in zip(flags, bounds, (1, 0), MAX_SCAN_BOUNDS):
        if value < low:
            raise ScenarioError("scan bounds out of range", location=flag)
        if value > high:
            raise ScenarioError(f"scan bound above the limit of {high}", location=flag)
    return bounds


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
            reports = [_DEMO_REPORTS[args.name]()]
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
        for check in e.report.lines:
            print(f"  [{check.status}] {check.name}: {check.detail}", file=sys.stderr)
        return 1
    except AlgebraError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return _emit(reports, args)


if __name__ == "__main__":
    sys.exit(main())
