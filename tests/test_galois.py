"""Defining equations of the differential Galois groups and their action."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from realpv import (
    BadIdeal,
    Context,
    GaussRat,
    LinearODE,
    NotInGroup,
    Poly,
    Unsupported,
    apply,
    buchberger,
    build_pv,
    defining_equations,
    invariance_conditions,
    matrix_from_texts,
    parse_poly,
    parse_scalar,
    reduces_to_zero,
)
from realpv.linsolve import adjugate, identity, mat_mul

I = GaussRat(Fraction(0), Fraction(1))


def _strs(group):
    return [str(p) for p in group.polys]


# -- relations of the solutions ------------------------------------------------


def test_relation_ideal_exp(exp_pv):
    g = defining_equations(exp_pv)
    assert g.relations == ("Z1' = (1)*Z1",)
    assert g.relations_complete


def test_relation_ideal_circle(circle_pv):
    g = defining_equations(circle_pv)
    assert len(g.relations) == 3
    assert g.relations[2] == "Z2^2 + Z1^2 - 1 = 0"


def test_relation_ideal_radical(sqrt_pv):
    # g^2 = t turns into Z1^2 - t
    assert defining_equations(sqrt_pv).relations[1:] == ("Z1^2 - t = 0",)


def test_wrong_derivation_coefficient_rejected(circle_pv):
    # the relation's own coefficients are checked, not the certificates
    doubled = tuple((row[0].scale(2), row[1]) for row in circle_pv.companion)
    bad = dataclasses.replace(circle_pv, companion=doubled)
    with pytest.raises(BadIdeal, match="derivation relation fails"):
        defining_equations(bad)


# -- frozen defining sets --------------------------------------------------------


def test_exp_group_is_full_gl1(exp_pv):
    g = defining_equations(exp_pv)
    assert g.polys == ()
    assert g.relations_complete


def test_sqrt_group_is_mu2(sqrt_pv):
    g = defining_equations(sqrt_pv)
    assert _strs(g) == ["X11^2 - 1"]


def test_circle_group_is_so2(circle_pv):
    g = defining_equations(circle_pv)
    ref = [
        parse_poly(s, g.context)
        for s in ("X11 - X22", "X12 + X21", "X11^2 + X21^2 - 1")
    ]
    assert g.basis == buchberger(ref, g.context)


def test_constcoeff_distinct_group_is_torus(base):
    pv = build_pv(base, LinearODE.from_texts(base, ["2", "-3"]), "CONSTCOEFF2")
    g = defining_equations(pv)
    assert _strs(g) == ["X12", "X21"]


def test_constcoeff_zero_root_group(base):
    pv = build_pv(base, LinearODE.from_texts(base, ["0", "-1"]), "CONSTCOEFF2")
    g = defining_equations(pv)
    assert _strs(g) == ["X11 - 1", "X12", "X21"]


def test_constcoeff_double_root_group(base):
    pv = build_pv(base, LinearODE.from_texts(base, ["1", "-2"]), "CONSTCOEFF2")
    g = defining_equations(pv)
    assert _strs(g) == ["X21", "X22 - X11"]


def test_constcoeff_conjugate_group(base):
    pv = build_pv(base, LinearODE.from_texts(base, ["2", "2"]), "CONSTCOEFF2")
    g = defining_equations(pv)
    assert _strs(g) == ["X21 + X12", "X22 - X11"]
    # the circle relation of the auxiliary generators is not expressible in
    # the solution letters over the base, and the group records that
    assert not g.relations_complete


# -- membership and elements -----------------------------------------------------


def test_membership_circle(circle_pv):
    g = defining_equations(circle_pv)
    assert g.is_member(matrix_from_texts([["3/5", "-4/5"], ["4/5", "3/5"]]))
    assert g.is_member(matrix_from_texts([["3/5", "4/5"], ["-4/5", "3/5"]]))
    assert not g.is_member(matrix_from_texts([["2", "0"], ["0", "1/2"]]))
    assert not g.is_member(matrix_from_texts([["1", "0"], ["0", "0"]]))  # singular
    assert not g.is_member([[GaussRat.of(1)]])  # wrong shape


def test_element_rejects_nonmember(circle_pv):
    g = defining_equations(circle_pv)
    with pytest.raises(NotInGroup):
        g.element(matrix_from_texts([["2", "0"], ["0", "2"]]))


def test_identity_and_inverse(circle_pv):
    g = defining_equations(circle_pv)
    e = g.element(identity(2))
    r = g.element(matrix_from_texts([["3/5", "-4/5"], ["4/5", "3/5"]]))
    # a rotation has determinant 1, so its inverse is its adjugate
    adj, det = adjugate(r.matrix)
    assert det == GaussRat.of(1)
    r_inv = g.element(adj)
    assert g.element(mat_mul(r.matrix, r_inv.matrix)).matrix == e.matrix
    x = circle_pv.extension.var("s")
    assert apply(r_inv, apply(r, x)) == apply(e, x) == x


# -- the action on the tower ------------------------------------------------------


def test_apply_is_field_morphism(circle_pv):
    g = defining_equations(circle_pv)
    ext = circle_pv.extension
    r = g.element(matrix_from_texts([["3/5", "-4/5"], ["4/5", "3/5"]]))
    s, c = ext.var("s"), ext.var("c")
    x = (s + c) / (ext.one() + c * c)
    y = s * c - ext.var("t")
    assert apply(r, x * y) == apply(r, x) * apply(r, y)
    assert apply(r, x + y) == apply(r, x) + apply(r, y)


def test_apply_commutes_with_derivation(circle_pv):
    g = defining_equations(circle_pv)
    ext = circle_pv.extension
    r = g.element(matrix_from_texts([["5/13", "-12/13"], ["12/13", "5/13"]]))
    s, c = ext.var("s"), ext.var("c")
    for x in (s, c, s * c + c, (s + ext.one()) / c):
        assert apply(r, x.derive()) == apply(r, x).derive()


def test_apply_fixes_base(circle_pv):
    g = defining_equations(circle_pv)
    ext = circle_pv.extension
    r = g.element(matrix_from_texts([["0", "-1"], ["1", "0"]]))
    t = ext.var("t")
    x = (t * t + ext.one()) / t
    assert apply(r, x) == x


def test_compose_is_action_composition(circle_pv):
    g = defining_equations(circle_pv)
    ext = circle_pv.extension
    a = g.element(matrix_from_texts([["3/5", "-4/5"], ["4/5", "3/5"]]))
    b = g.element(matrix_from_texts([["0", "-1"], ["1", "0"]]))
    ab = g.element(mat_mul(a.matrix, b.matrix))
    x = ext.var("s") * ext.var("c") + ext.var("t")
    assert apply(ab, x) == apply(a, apply(b, x))


def test_complex_member_acts_on_complexified(exp_pv):
    g = defining_equations(exp_pv)
    sigma = g.element([[I]])
    e = exp_pv.extension.var("e")
    img = apply(sigma, e)
    assert img.tower == exp_pv.extension
    assert img == img.tower.var("e").scale(I)
    # still a differential morphism
    assert apply(sigma, e.derive()) == img.derive()


def test_invariance_conditions_cut_out_stabilizer(circle_pv):
    g = defining_equations(circle_pv)
    ext = circle_pv.extension
    s, c = ext.var("s"), ext.var("c")
    conds = invariance_conditions(g, s * s + c * c)  # constant: no condition
    assert reduces_to_zero(conds, list(g.polys), g.context)
    conds = invariance_conditions(g, s)
    # only the identity rotation fixes s: conditions force X21 = 0, X22 = 1
    fixed = g.extended(conds)
    assert fixed.is_member(matrix_from_texts([["1", "0"], ["0", "1"]]))
    assert not fixed.is_member(matrix_from_texts([["0", "-1"], ["1", "0"]]))
    assert not fixed.is_member(matrix_from_texts([["-1", "0"], ["0", "-1"]]))


def test_evaluate_homogenises_at_polynomial_entries(circle_pv):
    g = defining_equations(circle_pv)
    p = parse_poly("X11^2 + X21^2 - 1", g.context)
    rot = matrix_from_texts([["3/5", "-4/5"], ["4/5", "3/5"]])
    assert g.evaluate(p, rot) == GaussRat.of(0)
    assert g.evaluate(p, rot, GaussRat.of(2)) == GaussRat.of(-3)  # 1 - 4
    ctx = Context(["u", "w"])
    u, w = Poly.variable(ctx, "u"), Poly.variable(ctx, "w")
    zero = Poly.zero(ctx)
    # w^2 * p(M / w) for M = [[u, 0], [w, 0]]: u^2 + w^2 - w^2
    assert g.evaluate(p, [[u, zero], [w, zero]], w) == u * u
    assert g.evaluate(p, [[u, zero], [w, zero]]) == u * u + w * w - Poly.const(ctx, 1)


def test_scalar_and_matrix_parsing():
    assert parse_scalar("3/5") == GaussRat.of(Fraction(3, 5))
    assert parse_scalar("-2 + i") == GaussRat(Fraction(-2), Fraction(1))
    m = matrix_from_texts([["1", "0"], ["0", "1"]])
    assert m[0][0] == GaussRat.of(1)
