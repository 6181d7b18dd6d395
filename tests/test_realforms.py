"""Twists by cocycles, non-reality witnesses, and the real-form class lists."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from realpv import (
    DiffTower,
    GaussRat,
    LinearODE,
    Unsupported,
    WitnessNotFound,
    build_pv,
    build_seidenberg,
    cocycle_check,
    defining_equations,
    h1_enumerate,
    matrix_from_texts,
    non_reality_witness,
    radical_pair_report,
    twist,
)
from realpv.linsolve import identity
from realpv.poly import Context, Poly, parse_poly
from realpv.realforms import _reread

I = GaussRat(Fraction(0), Fraction(1))
ID2 = [["1", "0"], ["0", "1"]]
NEG2 = [["-1", "0"], ["0", "-1"]]


@pytest.fixture(scope="module")
def circle_group(circle_pv):
    return defining_equations(circle_pv)


@pytest.fixture(scope="module")
def exp_group(exp_pv):
    return defining_equations(exp_pv)


@pytest.fixture(scope="module")
def sqrt_group(sqrt_pv):
    return defining_equations(sqrt_pv)


# -- cocycle condition ------------------------------------------------------------


def test_cocycle_check_so2(circle_group):
    assert cocycle_check(circle_group, matrix_from_texts(ID2))
    assert cocycle_check(circle_group, matrix_from_texts(NEG2))
    # complexified rotation with eigenvalue 2i: a member, but A * conj(A) = -I
    p = GaussRat(Fraction(0), Fraction(3, 4))
    q = GaussRat.of(Fraction(5, 4))
    a = [[p, -q], [q, p]]
    assert not cocycle_check(circle_group, a)
    # wrong shape and non-members are rejected
    assert not cocycle_check(circle_group, [[GaussRat.of(1)]])
    assert not cocycle_check(circle_group, matrix_from_texts([["2", "0"], ["0", "2"]]))


def test_cocycle_check_gl1(exp_group):
    assert cocycle_check(exp_group, [[GaussRat.of(1)]])
    assert cocycle_check(exp_group, [[GaussRat.of(-1)]])
    assert cocycle_check(exp_group, [[GaussRat.of(3)]]) is False  # 3 * 3 != 1
    # i * conj(i) = i * (-i) = 1
    assert cocycle_check(exp_group, [[I]])


# -- twists -----------------------------------------------------------------------


def _lines(res, status=None):
    """The report lines of a twist, rendered, optionally of one status."""
    return [l.render() for l in res.report.lines if status in (None, l.status)]


def _verdicts(res):
    """{name: status} of the PASS/FAIL lines of a twist's report."""
    return {l.name: l.status for l in res.report.lines if l.passed is not None}


def test_identity_twist_is_unchanged(circle_pv, circle_group):
    res = twist(circle_pv, circle_group, matrix_from_texts(ID2))
    assert res.tower is circle_pv.extension
    assert res.report.ok
    assert "[INFO] real form: isomorphic to the original extension" in _lines(res)
    assert res.report.data == {"twisted_solutions": ["s", "c"]}


def test_identity_twist_checks_the_solutions(circle_pv, circle_group):
    s, c = circle_pv.solutions
    wrong = replace(circle_pv, solutions=(s * s, c))
    res = twist(wrong, circle_group, matrix_from_texts(ID2))
    assert _verdicts(res) == {
        "twisted solutions solve the equation": "FAIL",
        "B lies in the group and B * conj(B)^-1 = A": "PASS",
    }


def test_exp_minus_one_twist_splits(exp_pv, exp_group):
    res = twist(exp_pv, exp_group, [[GaussRat.of(-1)]])
    assert res.tower is exp_pv.extension
    assert res.report.ok
    assert _lines(res, "INFO")[:2] == [
        "[INFO] cocycle: [['-1']]",
        "[INFO] twist: B = diag(i) splits the cocycle, twisted form isomorphic to "
        "the original",
    ]


def test_circle_minus_identity_twist(circle_pv, circle_group):
    res = twist(circle_pv, circle_group, matrix_from_texts(NEG2))
    assert res.tower is not circle_pv.extension
    assert res.report.ok
    assert "[INFO] real form: a genuinely different real form" in _lines(res)
    assert _verdicts(res)["twisted field is not formally real"] == "PASS"
    v, u = res.tower.var("v"), res.tower.var("u")
    assert u * u + v * v == res.tower.const(-1)
    # twisted pair rotates with the same speed
    assert v.derive() == -u
    assert u.derive() == v


def test_circle_twisted_field_has_witness(circle_pv, circle_group):
    res = twist(circle_pv, circle_group, matrix_from_texts(NEG2))
    wit = non_reality_witness(res.tower)
    total = sum((w * w for w in wit), res.tower.zero())
    assert total == res.tower.const(-1)


def test_original_circle_has_no_witness(circle_pv):
    with pytest.raises(WitnessNotFound):
        non_reality_witness(circle_pv.extension)


def _minus_one_twist(pv):
    return twist(pv, defining_equations(pv), [[GaussRat.of(-1)]]).tower


def test_radical_towers_over_minus_t2_minus_1_are_not_real(base):
    """h^2 + t^2 + 1 = 0 writes -1 = h^2 + t^2, whether it comes from the
    twist of the root of t^2 + 1 or from the root of -(t^2 + 1) itself."""
    for tower in (
        _minus_one_twist(_radical_pv(base, "t^2 + 1", Fraction(1, 2))),
        _radical_pv(base, "-(t^2 + 1)", Fraction(1, 2)).extension,
    ):
        wit = non_reality_witness(tower)
        assert len(wit) == 2 and str(wit[0]) == "t"
        assert sum((w * w for w in wit), tower.zero()) == tower.const(-1)


def test_witness_outcomes_on_the_shipped_towers(base, circle_pv, circle_group, sqrt_pv):
    towers = {
        "twisted circle": twist(circle_pv, circle_group, matrix_from_texts(NEG2)).tower,
        "seidenberg": build_seidenberg(),
        "sqrt(t) twist": _minus_one_twist(sqrt_pv),
        "sqrt(t^2+1) twist": _minus_one_twist(_radical_pv(base, "t^2 + 1", Fraction(1, 2))),
        "circle": circle_pv.extension,
    }
    # constant roots u of k*u^2 + 1 = 0: a witness exactly when k is a
    # rational square
    for k in (4, 5, 9):
        towers[f"u^2 = -1/{k}"] = DiffTower(base_var=None).adjoin_abstract(
            ["u"], ["0"], [f"{k}*u^2 + 1"]
        )
    expected = {
        "twisted circle": ("v", "u"),
        "seidenberg": ("2*a", "b"),
        "sqrt(t) twist": None,
        "sqrt(t^2+1) twist": ("t", "h"),
        "circle": None,
        "u^2 = -1/4": ("2*u",),
        "u^2 = -1/5": None,
        "u^2 = -1/9": ("3*u",),
    }
    for name, tower in towers.items():
        try:
            wit = non_reality_witness(tower)
        except WitnessNotFound as exc:
            assert str(exc) == "no relation of the tower writes -1 as a sum of squares"
            assert expected[name] is None, name
            continue
        assert tuple(map(str, wit)) == expected[name], name
        assert sum((w * w for w in wit), tower.zero()) == tower.const(-1), name


def test_sqrt_minus_one_twist(sqrt_pv, sqrt_group):
    res = twist(sqrt_pv, sqrt_group, [[GaussRat.of(-1)]])
    assert res.tower is not sqrt_pv.extension
    assert res.report.ok
    assert res.report.data == {"twisted_solutions": ["h"]}
    h = res.tower.var("h")
    t = res.tower.var("t")
    assert h * h == -t


def test_twist_rejects_non_cocycle(exp_pv, exp_group):
    with pytest.raises(Unsupported):
        twist(exp_pv, exp_group, [[GaussRat.of(2)]])


def test_twist_rejects_unknown_recipe(base, circle_group):
    from realpv import LinearODE, build_pv

    pv = build_pv(base, LinearODE.from_texts(base, ["2", "2"]), "CONSTCOEFF2")
    g = defining_equations(pv)
    with pytest.raises(Unsupported):
        twist(pv, g, matrix_from_texts(NEG2))


# -- descent against the former per-class recipes ------------------------------------


def _recipe_twist(pv, rows, f_text=None):
    """The twisted tower and solutions from the per-class recipes that the
    descent replaced: identity, EXP with -1, RADICAL g^2 = f with -1 (f given
    as `f_text`) and CIRCLE with -I."""
    if matrix_from_texts(rows) == identity(len(rows)) or pv.eq_class == "EXP":
        return pv.extension, pv.solutions
    base, ode = pv.base, pv.ode
    if pv.eq_class == "RADICAL":
        f = base.parse(f_text)
        ctx = base.extended_context(["h"])
        h = Poly.variable(ctx, "h")
        relation = f.den.in_context(ctx) * h * h + f.num.in_context(ctx)
        rate = -ode.coeffs[0]
        deriv = (rate.num.in_context(ctx) * h, rate.den.in_context(ctx))
        tower = base.adjoin_algebraic("h", relation, deriv)
        return tower, (tower.var("h"),)
    ws = str(pv.companion[1][0])  # s' = w c
    tower = base.adjoin_abstract(
        ["v", "u"], [f"-({ws})*u", f"({ws})*v"], ["u^2+v^2+1"]
    )
    return tower, (tower.var("u"), tower.var("v"))


def _radical_pv(base, f_text, exponent):
    f = base.parse(f_text)
    ode = LinearODE(base, (-(f.derive() / f).scale(GaussRat.of(exponent)),))
    return build_pv(base, ode, "RADICAL", radical_base=f)


RECIPE_CASES = [
    "circle w=1",
    "circle w=3",
    "circle identity",
    "sqrt(t)",
    "sqrt(t^2+1)",
    "exp -1",
    "exp identity",
]


@pytest.mark.parametrize("case", RECIPE_CASES)
def test_descent_reproduces_the_recipes(base, case):
    def circle(w2):
        return build_pv(base, LinearODE.from_texts(base, [w2, "0"]), "CIRCLE")

    exp = build_pv(base, LinearODE.from_texts(base, ["-1"]), "EXP")
    pv, rows, f_text = {
        "circle w=1": (circle("1"), NEG2, None),
        "circle w=3": (circle("9"), NEG2, None),
        "circle identity": (circle("1"), ID2, None),
        "sqrt(t)": (_radical_pv(base, "t", Fraction(1, 2)), [["-1"]], "t"),
        "sqrt(t^2+1)": (_radical_pv(base, "t^2 + 1", Fraction(1, 2)), [["-1"]], "t^2 + 1"),
        "exp -1": (exp, [["-1"]], None),
        "exp identity": (exp, [["1"]], None),
    }[case]
    res = twist(pv, defining_equations(pv), matrix_from_texts(rows))
    tower, sols = _recipe_twist(pv, rows, f_text)
    assert res.report.ok, res.report.lines
    assert res.tower.signature() == tower.signature()
    assert [str(y) for y in res.solutions] == [str(y) for y in sols]
    assert (res.tower is pv.extension) == (tower is pv.extension)
    isomorphic = "[INFO] real form: isomorphic to the original extension"
    assert (isomorphic in _lines(res)) == (tower is pv.extension)


def test_fourth_root_minus_one_twist_is_a_coboundary(base):
    # g^4 = t: B = i lies in mu_4 and i / conj(i) = -1
    pv = _radical_pv(base, "t", Fraction(1, 4))
    res = twist(pv, defining_equations(pv), [[GaussRat.of(-1)]])
    assert res.tower is pv.extension
    assert res.report.ok
    assert _lines(res, "INFO")[1].startswith("[INFO] twist: B = diag(i) splits")


def test_root_of_t_cubed_minus_one_twist(base):
    # g^2 = t^3 twists to h^2 = -t^3
    pv = _radical_pv(base, "t", Fraction(3, 2))
    res = twist(pv, defining_equations(pv), [[GaussRat.of(-1)]])
    assert res.tower is not pv.extension
    assert res.report.ok
    h, t = res.tower.var("h"), res.tower.var("t")
    assert h * h == -(t ** 3)
    assert [str(y) for y in res.solutions] == ["h"]


def test_reread_refuses_data_that_is_not_real():
    # g^3 - t at g = i*h is -i*h^3 - t, which has no real reading
    src, ctx = Context(["t", "g"]), Context(["t", "h"])
    with pytest.raises(Unsupported, match="not real"):
        _reread(["g"], ctx, {"g": "h"}, parse_poly("g^3 - t", src))


def test_twist_refuses_a_complex_cocycle(exp_pv, exp_group):
    a = [[GaussRat(Fraction(3, 5), Fraction(4, 5))]]
    assert cocycle_check(exp_group, a)
    with pytest.raises(Unsupported):
        twist(exp_pv, exp_group, a)


def test_coboundary_line_fails_outside_the_group(base):
    # the same g^4 = t, with the group cut down to mu_2, which holds -1 but
    # not i
    pv = _radical_pv(base, "t", Fraction(1, 4))
    group = defining_equations(pv)
    ctx = group.context
    mu2 = group.extended([Poly.variable(ctx, "X11", 2) - Poly.const(ctx, 1)])
    res = twist(pv, mu2, [[GaussRat.of(-1)]])
    assert _verdicts(res)["B lies in the group and B * conj(B)^-1 = A"] == "FAIL"
    gl1 = h1_enumerate(mu2, "GL1")
    assert gl1.lines[1].render().startswith("[FAIL] -1 is a coboundary")


def test_descended_solutions_line_fails_for_another_equation(base, circle_pv, circle_group):
    other = LinearODE.from_texts(base, ["9", "0"])
    res = twist(replace(circle_pv, ode=other), circle_group, matrix_from_texts(NEG2))
    assert _verdicts(res)["twisted solutions solve the equation"] == "FAIL"


def test_relations_line_fails_for_a_wrong_solution(sqrt_pv, sqrt_group):
    g, t = sqrt_pv.extension.var("g"), sqrt_pv.extension.var("t")
    res = twist(replace(sqrt_pv, solutions=(g * t,)), sqrt_group, [[GaussRat.of(-1)]])
    name = "original relations at b*x~ are the twisted relations with the opposite sign"
    assert _verdicts(res)[name] == "FAIL"
    # the radical pair lines read the generators g and h, not the solution
    assert _verdicts(res)["both generators solve the same first-order equation"] == "PASS"


# -- radical pair ------------------------------------------------------------------


def test_radical_pair_not_isomorphic(sqrt_pv, sqrt_group):
    res = twist(sqrt_pv, sqrt_group, [[GaussRat.of(-1)]])
    rep = radical_pair_report(sqrt_pv, res.tower.var("h"))
    assert rep.ok
    names = [n for n, _, _ in rep.lines]
    assert "matching generators forces gamma^2 = -1 over the rational constants" in names
    # the twist's own report ends with the same lines
    assert res.report.lines[-len(rep.lines):] == rep.lines


def test_radical_pair_lines_fail_for_the_trivial_twist(sqrt_pv, sqrt_group):
    # twisting by 1 keeps g, so g^2 / h^2 = 1 and no contradiction is forced
    res = twist(sqrt_pv, sqrt_group, [[GaussRat.of(1)]])
    rep = radical_pair_report(sqrt_pv, res.tower.var("g"))
    failed = [line.name for line in rep.failures()]
    assert failed == [
        "matching generators forces gamma^2 = -1 over the rational constants",
        "gamma^2 = -1 has no solution in the constants of a real field",
    ]


def test_line_through_h_fails_where_the_twisted_field_has_a_new_constant(
    sqrt_pv, sqrt_group
):
    """Above h, a generator k with k' = 0 is a new constant, so k*h solves
    Y' = a Y and is no constant multiple of h: the line through h prints
    FAIL, names the constants the scan found, and is the only failure."""
    res = twist(sqrt_pv, sqrt_group, [[GaussRat.of(-1)]])
    doctored = res.tower.adjoin_abstract(["k"], ["0"])
    rep = radical_pair_report(sqrt_pv, doctored.var("h"))
    assert rep.failures() == [(
        "solution space in the twisted field is the line through h",
        False,
        "(y/h)' = 0 for every solution y; scan bounds (2, 2): found k, k^2",
    )]


# -- cohomology class lists -----------------------------------------------------------


def test_h1_gl1(exp_group):
    rep = h1_enumerate(exp_group, "GL1")
    assert rep.ok
    assert rep.data["classes"] == ["1"]
    assert rep.lines[0].render() == "[INFO] classes: 1"


def test_h1_mu2(sqrt_pv):
    g = defining_equations(sqrt_pv)
    rep = h1_enumerate(g, "MU_2")
    assert rep.ok
    assert rep.data["classes"] == ["1", "-1"]
    assert rep.lines[0].render() == "[INFO] classes: 1, -1"


def test_h1_so2(circle_group):
    rep = h1_enumerate(circle_group, "SO2")
    assert rep.ok
    assert rep.data["classes"] == ["I", "-I"]
    # both representatives really are cocycles of the group
    status = {line.name: line.status for line in rep.lines}
    assert status["I is a cocycle"] == status["-I is a cocycle"] == "PASS"
    assert cocycle_check(circle_group, matrix_from_texts(ID2))
    assert cocycle_check(circle_group, matrix_from_texts(NEG2))


def test_h1_so2_line_fails_without_the_inverse(circle_group, monkeypatch):
    import realpv.realforms as realforms

    # B * conj(B) in place of B * conj(B)^-1: its eigenvalue on (1, -i) is
    # no sum of squares, so the exact check must fail
    monkeypatch.setattr(realforms, "adjugate", lambda m: (m, m[0][0] ** 0))
    rep = h1_enumerate(circle_group, "SO2")
    assert [line.status for line in rep.lines] == ["INFO", "FAIL", "PASS", "PASS"]


def test_h1_unknown_kind(circle_group):
    with pytest.raises(Unsupported):
        h1_enumerate(circle_group, "SL7")
