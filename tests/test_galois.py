"""Defining equations of the differential Galois groups and their action."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

import realpv.correspondence as correspondence
import realpv.galois as galois
from realpv import (
    DIAGONAL,
    FULL,
    SO2,
    TRIVIAL,
    AlgebraError,
    BadIdeal,
    Context,
    DiffTower,
    GaussRat,
    LinearODE,
    NotInGroup,
    Poly,
    RewriteSystem,
    Unsupported,
    apply,
    buchberger,
    build_pv,
    defining_equations,
    finite_list,
    fixed_field,
    invariance_conditions,
    load_scenario,
    matrix_from_texts,
    mu_n,
    parse_poly,
    parse_scalar,
    reduces_to_zero,
    subgroup_of,
)
from realpv.galois import fixed_combinations
from realpv.linsolve import adjugate, identity, mat_mul, relations
from realpv.cli import _Session
from realpv.pv import DEFAULT_SCAN_BOUNDS
from realpv.tower import cleared_numerators

I = GaussRat(Fraction(0), Fraction(1))
ROOT = Path(__file__).resolve().parent.parent
# every scenario: of the CLI, of the benchmark and of the tests
CORPUS = sorted(
    [*ROOT.glob("scenarios/*.json"), *ROOT.glob("bench/scenarios/*.json"),
     *ROOT.glob("tests/scenarios/*.json")]
)
PM_ONE = [[["1", "0"], ["0", "1"]], [["-1", "0"], ["0", "-1"]]]


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


# -- the generic member's table of monomial images ------------------------------


def _moved_by_substitution(group, x):
    """The former route, kept as a reference: sigma(num)*den - num*sigma(den)
    for x = num/den, with the generators' images substituted into num and den
    by `DiffTower.eval_poly` and combined as field elements."""
    tw = group.param_tower
    mapping = galois._generator_map(group, group.sym_images)
    x = tw.lift(x)
    num_s = tw.eval_poly(x.num, mapping)
    den_s = tw.eval_poly(x.den, mapping)
    return num_s * tw.elem(x.den) - tw.elem(x.num) * den_s


def _fixed_by_substitution(group, elems):
    """The former fixed_combinations: the moved elements, cleared of their
    (constant) denominators and reduced modulo the tower's rules and the
    group's basis, one kernel equation per monomial."""
    tw = group.param_tower
    system = RewriteSystem(tw.context, tw.rewrite.rules + group.basis.rules_for(tw.context))
    moved = [_moved_by_substitution(group, e) for e in elems]
    assert all(m.den.is_constant() for m in moved)
    return relations([p.by_key for p in cleared_numerators(system, moved)])


def _conditions_by_substitution(group, x):
    return galois._collect_coefficients(_moved_by_substitution(group, x).num, group.context)


def _outcome(f, *args):
    """f's value, or the type and text of the refusal it raises."""
    try:
        return f(*args)
    except Unsupported as e:
        return ("Unsupported", str(e))


@pytest.fixture(scope="module")
def corpus_groups():
    """The group and the scenario's own descriptor of each scenario of the
    corpus that builds, by path."""
    out = {}
    for path in CORPUS:
        scn = load_scenario(str(path))
        ses = _Session(scn, DEFAULT_SCAN_BOUNDS)
        try:
            ses.pv
        except AlgebraError:
            continue
        out[str(path.relative_to(ROOT))] = (ses.group, scn.subgroup)
    return out


def test_the_table_agrees_with_substitution(corpus_groups):
    """On every corpus group and every descriptor that `subgroup_of`
    accepts: the kernel basis of `fixed_combinations` over the keys of the
    window of `fixed_field` equals the former route's over the window's
    field elements, and so does `invariance_conditions` on the window
    elements and on quotients with t and with non-constant denominators."""
    assert len(corpus_groups) >= 15
    seen = {"kernels": 0, "conditions": 0, "refused": 0, "denominators": 0}
    for name, (group, own) in sorted(corpus_groups.items()):
        descs = [FULL, TRIVIAL, DIAGONAL, SO2, mu_n(2), mu_n(3),
                 finite_list(PM_ONE), finite_list(PM_ONE[:1])]
        if own is not None and own not in descs:
            descs.append(own)
        ext = group.pv.extension
        t = ext.var(ext.base_var)
        for desc in descs:
            try:
                sub = subgroup_of(group, desc)
            except Unsupported:
                continue
            degree = max(4, desc.order or 0)
            window = ext.scan_basis(degree, 0)[0]
            keys = ext.irreducible_monomials(degree)
            # the same window, element k being the monomial with key k
            assert [(w.num.by_key, w.den) for w in window] == [
                ({m: GaussRat.of(1)}, ext.one().den) for m in keys
            ]
            got = _outcome(fixed_combinations, sub, keys)
            assert got == _outcome(_fixed_by_substitution, sub, window), (name, desc)
            if isinstance(got, tuple):
                seen["refused"] += 1
                continue
            seen["kernels"] += 1
            head = window[:6]
            elems = head + [w * t + v for v, w in zip(head, head[1:])]
            elems += [v / (w + t) for v, w in zip(head, head[1:])]
            for x in elems:
                got = invariance_conditions(sub, x)
                assert got == _conditions_by_substitution(sub, x), (name, desc, x)
                seen["conditions"] += 1
                seen["denominators"] += not x.den.is_constant()
    assert min(seen.values()) > 0, seen


def test_fixed_field_acts_through_the_table(exp_pv, circle_pv, monkeypatch):
    """A fixed_field call substitutes nothing (no `DiffTower.eval_poly`),
    and the group action inside it (`fixed_combinations` and
    `invariance_conditions`) makes at most one `Poly` product per window
    key: one per new table entry."""
    counts = {"eval_poly": 0, "products": 0, "acting": 0}
    eval_poly, mul = DiffTower.eval_poly, Poly.__mul__

    def counted_eval_poly(*args):
        counts["eval_poly"] += 1
        return eval_poly(*args)

    def counted_mul(a, b):
        counts["products"] += counts["acting"] > 0
        return mul(a, b)

    def acting(f):
        def run(*args):
            counts["acting"] += 1
            try:
                return f(*args)
            finally:
                counts["acting"] -= 1

        return run

    monkeypatch.setattr(DiffTower, "eval_poly", counted_eval_poly)
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    for f in ("fixed_combinations", "invariance_conditions"):
        monkeypatch.setattr(correspondence, f, acting(getattr(correspondence, f)))
    cases = [(exp_pv, mu_n(3), "K(e^3)"), (exp_pv, mu_n(50), "K(e^50)"),
             (circle_pv, finite_list(PM_ONE), "K(c^2, s*c)"), (circle_pv, SO2, "K")]
    for pv, desc, field in cases:
        group = defining_equations(pv)  # a cold table
        keys = pv.extension.irreducible_monomials(max(4, desc.order or 0))
        subgroup_of(group, desc).basis  # the subgroup's Groebner basis, outside the count
        counts.update(eval_poly=0, products=0)
        assert fixed_field(group, desc).describe() == field
        assert counts["eval_poly"] == 0, desc
        assert 0 < counts["products"] <= len(keys), (desc, counts)


def test_invariance_conditions_fill_a_cold_table_without_recursion(exp_pv):
    group = defining_equations(exp_pv)
    e = exp_pv.extension.var("e")
    got = invariance_conditions(group, e**5000)
    assert got == [parse_poly("X11^5000 - 1", group.context)]


def test_an_image_with_a_denominator_is_refused(exp_pv):
    """A group whose generator image is not a polynomial, X11*e/t for e."""
    group = defining_equations(exp_pv)
    tw = group.param_tower
    doctored = dataclasses.replace(
        group, sym_images=(tw.var("X11") * tw.var("e") / tw.var("t"),)
    )
    why = (
        r"^the action on e is not polynomial: its image \(e\*X11\)/\(t\) "
        r"has a non-constant denominator$"
    )
    with pytest.raises(Unsupported, match=why):
        fixed_field(doctored, mu_n(3))
    with pytest.raises(Unsupported, match=why):
        invariance_conditions(doctored, exp_pv.extension.var("e"))
    # the group it was made from still acts
    assert fixed_field(group, mu_n(3)).describe() == "K(e^3)"
