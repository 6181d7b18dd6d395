"""Twists by cocycles, non-reality witnesses, and the real-form class lists."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

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
from realpv.realforms import _WITNESS_COEFFS

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


def test_identity_twist_is_unchanged(circle_pv, circle_group):
    res = twist(circle_pv, circle_group, matrix_from_texts(ID2))
    assert res.isomorphic_to_original
    assert res.tower is circle_pv.extension
    assert res.report.ok


def test_identity_twist_checks_the_solutions(circle_pv, circle_group):
    s, c = circle_pv.solutions
    wrong = replace(circle_pv, solutions=(s * s, c))
    res = twist(wrong, circle_group, matrix_from_texts(ID2))
    status = {line.name: line.status for line in res.report.lines}
    assert status == {"twisted solutions solve the equation": "FAIL"}


def test_exp_minus_one_twist_splits(exp_pv, exp_group):
    res = twist(exp_pv, exp_group, [[GaussRat.of(-1)]])
    assert res.isomorphic_to_original
    assert res.report.ok
    assert "coboundary" in res.cocycle.label


def test_circle_minus_identity_twist(circle_pv, circle_group):
    res = twist(circle_pv, circle_group, matrix_from_texts(NEG2))
    assert res.isomorphic_to_original is False
    assert res.report.ok
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


def _witness_by_trials(tower, degree_bound=2):
    """The former search: each coefficient trial squared and compared with -1."""
    minus_one = tower.const(-1)
    window, one = tower.scan_basis(degree_bound, 0)
    elems = [x for k, x in enumerate(window) if k != one]
    for x in elems:
        for c in _WITNESS_COEFFS:
            y = x.scale(GaussRat(c))
            if y * y == minus_one:
                return (y,)
    for x1, x2 in combinations_with_replacement(elems, 2):
        for c1 in _WITNESS_COEFFS:
            for c2 in _WITNESS_COEFFS:
                y1, y2 = x1.scale(GaussRat(c1)), x2.scale(GaussRat(c2))
                if y1 * y1 + y2 * y2 == minus_one:
                    return (y1, y2)
    raise WitnessNotFound(
        f"no sum of at most two squares equals -1 in the search window "
        f"(degree bound {degree_bound})"
    )


def _witness_outcome(search, tower, degree_bound):
    try:
        return tuple(str(y) for y in search(tower, degree_bound))
    except WitnessNotFound as exc:
        return f"not found: {exc}"


def test_witness_agrees_with_the_coefficient_trials(
    base, circle_pv, circle_group, sqrt_pv, sqrt_group
):
    f = base.parse("t^2 + 1")
    ode = LinearODE(base, (-(f.derive() / f).scale(GaussRat.of(Fraction(1, 2))),))
    hyp_pv = build_pv(base, ode, "RADICAL", radical_base=f)
    minus_one = [[GaussRat.of(-1)]]
    towers = {
        "twisted circle": twist(circle_pv, circle_group, matrix_from_texts(NEG2)).tower,
        "seidenberg": build_seidenberg(),
        "sqrt(t) twist": twist(sqrt_pv, sqrt_group, minus_one).tower,
        "sqrt(t^2+1) twist": twist(
            hyp_pv, defining_equations(hyp_pv), minus_one
        ).tower,
        "circle": circle_pv.extension,
    }
    # constant roots u of k*u^2 + 1 = 0: the single 2u for k = 4, the pair
    # u, 2u for k = 5, and none for k = 9
    for k in (4, 5, 9):
        towers[f"u^2 = -1/{k}"] = DiffTower(base_var=None).adjoin_abstract(
            ["u"], ["0"], [f"{k}*u^2 + 1"]
        )
    found = set()
    for name, tower in towers.items():
        for degree_bound in (1, 2, 3):
            new = _witness_outcome(non_reality_witness, tower, degree_bound)
            assert new == _witness_outcome(_witness_by_trials, tower, degree_bound), (
                name,
                degree_bound,
            )
            if isinstance(new, tuple):
                found.add((name, len(new)))
    assert {
        ("twisted circle", 2),
        ("seidenberg", 2),
        ("u^2 = -1/4", 1),
        ("u^2 = -1/5", 2),
    } <= found
    assert not any(name in ("circle", "u^2 = -1/9") for name, _ in found)


def test_sqrt_minus_one_twist(sqrt_pv, sqrt_group):
    res = twist(sqrt_pv, sqrt_group, [[GaussRat.of(-1)]])
    assert res.isomorphic_to_original is False
    assert res.report.ok
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


# -- radical pair ------------------------------------------------------------------


def test_radical_pair_not_isomorphic(sqrt_pv, sqrt_group):
    res = twist(sqrt_pv, sqrt_group, [[GaussRat.of(-1)]])
    rep = radical_pair_report(sqrt_pv, res)
    assert rep.report.ok
    names = [n for n, _, _ in rep.report.lines]
    assert "matching generators forces gamma^2 = -1 over the rational constants" in names


def test_radical_pair_lines_fail_for_the_trivial_twist(sqrt_pv, sqrt_group):
    # twisting by 1 keeps g, so g^2 / h^2 = 1 and no contradiction is forced
    res = twist(sqrt_pv, sqrt_group, [[GaussRat.of(1)]])
    rep = radical_pair_report(sqrt_pv, res)
    failed = [line.name for line in rep.report.failures()]
    assert failed == [
        "matching generators forces gamma^2 = -1 over the rational constants",
        "gamma^2 = -1 has no solution in the constants of a real field",
    ]


# -- cohomology class lists -----------------------------------------------------------


def test_h1_gl1(exp_group):
    rep = h1_enumerate(exp_group, "GL1")
    assert rep.report.ok
    assert [c.label for c in rep.classes] == ["1"]


def test_h1_mu2(sqrt_pv):
    g = defining_equations(sqrt_pv)
    rep = h1_enumerate(g, "MU_2")
    assert rep.report.ok
    assert [c.label for c in rep.classes] == ["1", "-1"]


def test_h1_so2(circle_group):
    rep = h1_enumerate(circle_group, "SO2")
    assert rep.report.ok
    assert [c.label for c in rep.classes] == ["I", "-I"]
    # both representatives really are cocycles of the group
    for c in rep.classes:
        assert cocycle_check(circle_group, c.matrix)


def test_h1_so2_line_fails_without_the_inverse(circle_group, monkeypatch):
    import realpv.realforms as realforms

    # B * conj(B) in place of B * conj(B)^-1: its eigenvalue on (1, -i) is
    # no sum of squares, so the exact check must fail
    monkeypatch.setattr(realforms, "adjugate", lambda m: (m, m[0][0] ** 0))
    rep = h1_enumerate(circle_group, "SO2")
    assert [line.status for line in rep.report.lines] == ["FAIL", "PASS", "PASS"]


def test_h1_unknown_kind(circle_group):
    with pytest.raises(Unsupported):
        h1_enumerate(circle_group, "SL7")
