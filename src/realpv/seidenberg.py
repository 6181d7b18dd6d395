"""A real differential field that is not formally real, and what breaks.

The field adjoins a, b over the rational constants with

    a' = b,   b' = -4a,   4a^2 + b^2 + 1 = 0.

Its constants are still the rationals (certified by an exact window scan),
yet -1 is a sum of squares: (2a)^2 + b^2 = -1.  The generator a solves
Y'' + 4Y = 0 over the field, and adjoining an honest solution pair of that
same equation inevitably creates new constants, so the equation admits no
PV extension of this field without constant growth.  Both phenomena are
exhibited exactly: the witness by normal-form arithmetic, the obstruction
by running the usual certified construction and capturing its failure,
together with the explicit new constants the scan finds.  `seidenberg_demo`
returns all of it as one report.
"""

from __future__ import annotations

from .errors import NotPV
from .pv import LinearODE, build_pv
from .realforms import non_reality_witness
from .report import Report
from .tower import DiffTower

__all__ = [
    "build_seidenberg",
    "seidenberg_demo",
]


def build_seidenberg() -> DiffTower:
    """The non-real field: constants base, generators a and b as above."""
    base = DiffTower(base_var=None)
    return base.adjoin_abstract(
        ["a", "b"], ["b", "-4*a"], ["4*a^2+b^2+1"]
    )


def seidenberg_demo() -> Report:
    """The checks on the field and on the adjoined pair, then the witness
    and the new constants as INFO lines and in the data."""
    F = build_seidenberg()
    a, b = F.var("a"), F.var("b")
    report = Report("demo: a differential field with real constants that is not real")

    # the defining relation holds and differentiates consistently
    rel = F.const(4) * a * a + b * b + F.one()
    report.add("4a^2 + b^2 + 1 = 0 in the field", rel.is_zero(), str(rel))

    # constants of the field itself are just the rationals
    own = F.constant_scan(3, 0)
    report.add(
        "window scan finds no new constants in the field itself",
        not own,
        f"{len(own)} kernel directions",
    )

    # -1 is a sum of two squares: the field is not formally real
    wit = non_reality_witness(F)
    sq = sum((x * x for x in wit), F.zero())
    report.add(
        "sum of squares equal to -1", sq == F.const(-1), " , ".join(str(x) for x in wit)
    )

    # a solves Y'' + 4Y = 0 over the field
    ode = LinearODE(F, (F.const(4), F.zero()))
    report.add("generator a solves Y'' + 4Y = 0", ode.apply(a).is_zero(), "a'' = -4a")

    # the certified circle construction refuses: new constants appear
    try:
        build_pv(F, ode, "CIRCLE")
        report.add(
            "certified construction must fail over this field", False, "it succeeded"
        )
    except NotPV as e:
        names = [c.name for c in e.report.failures()]
        report.add(
            "certified construction fails on the constant check",
            "no_new_constants_in_window" in names,
            f"failing checks: {names}",
        )

    # exhibit the new constants directly on the adjoined tower
    ext = F.adjoin_abstract(["c", "s"], ["-2*s", "2*c"], ["s^2+c^2-1"])
    found = ext.constant_scan(2, 0)
    all_const = all(x.derive().is_zero() for x in found)
    none_scalar = all(x.as_scalar() is None for x in found)
    report.add(
        "adjoined solution pair creates nonscalar constants",
        bool(found) and all_const and none_scalar,
        " ; ".join(str(x) for x in found),
    )

    report.info("witness", ", ".join(str(x) for x in wit))
    report.info("new constants", " ; ".join(str(x) for x in found))
    report.data["witness"] = [str(x) for x in wit]
    report.data["new_constants"] = [str(x) for x in found]
    return report
