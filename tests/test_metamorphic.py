"""Metamorphic tests: one equation through two doors gives one answer.

Family 4, class aliases: CIRCLE with w^2 and CONSTCOEFF2 with [w^2, 0]
present Y'' + w^2 Y = 0, whose roots are the conjugate pair +/- wi.  CIRCLE
lists the solutions as (s, c) and CONSTCOEFF2 as (c, s), so the two give
one tower, swapped solutions, and groups equal after the swap of
coordinates X11 <-> X22, X12 <-> X21.  Fixed fields and the -I twist, which
act on the tower alone, agree as they are.
"""

from __future__ import annotations

import pytest

from realpv import LinearODE, Poly, build_pv
from realpv.correspondence import FULL, SO2, TRIVIAL, finite_list, fixed_field
from realpv.galois import defining_equations
from realpv.realforms import twist
from realpv.rewrite import buchberger

PM_ONE = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]
MINUS_I = [[-1, 0], [0, -1]]
SOLUTION_SWAP = {"X11": "X22", "X22": "X11", "X12": "X21", "X21": "X12"}


def _swapped(group):
    """The group's defining polynomials under X11 <-> X22, X12 <-> X21."""
    ctx = group.context
    return [
        p.substitute(
            lambda v: Poly.variable(ctx, SOLUTION_SWAP.get(v, v)), lambda c: Poly.const(ctx, c)
        )
        for p in group.polys
    ]


@pytest.mark.parametrize("w2", ["1", "4", "9", "1/4"])
def test_circle_is_constcoeff2_with_swapped_solutions(base, w2):
    ode = LinearODE.from_texts(base, [w2, "0"])
    circle, constcoeff = build_pv(base, ode, "CIRCLE"), build_pv(base, ode, "CONSTCOEFF2")
    assert circle.extension == constcoeff.extension
    assert list(circle.solutions) == list(reversed(constcoeff.solutions))

    g_circle, g_constcoeff = defining_equations(circle), defining_equations(constcoeff)
    assert g_circle.context == g_constcoeff.context
    assert g_circle.basis.rules == buchberger(_swapped(g_constcoeff), g_circle.context).rules

    for desc in [SO2, finite_list(PM_ONE), TRIVIAL, FULL]:
        got = fixed_field(g_circle, desc).describe()
        assert got == fixed_field(g_constcoeff, desc).describe(), desc.label()
    assert fixed_field(g_circle, finite_list(PM_ONE)).describe() == "K(c^2, s*c)"

    t_circle = twist(circle, g_circle, MINUS_I)
    t_constcoeff = twist(constcoeff, g_constcoeff, MINUS_I)
    assert t_circle.tower == t_constcoeff.tower
    assert t_circle.tower != circle.extension  # -I is a nontrivial class of SO2
    assert list(t_circle.solutions) == list(reversed(t_constcoeff.solutions))
