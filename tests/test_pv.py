"""Construction and certification of the four supported equation classes."""

from __future__ import annotations

from dataclasses import replace

import pytest

from realpv import (
    DiffTower,
    LinearODE,
    NotPV,
    UnsupportedEquation,
    build_pv,
)
from realpv.pv import _certify
from realpv.tower import Ladder


def _ode(base, *texts):
    return LinearODE.from_texts(base, list(texts))


def _companion(pv):
    return [[str(a) for a in row] for row in pv.companion]


def _relation(pv):
    return str(pv.extension.specs[-1].relation)


# -- the four classes certify --------------------------------------------------


def test_circle_build(circle_pv):
    assert circle_pv.eq_class == "CIRCLE"
    assert [str(s) for s in circle_pv.solutions] == ["s", "c"]
    assert _companion(circle_pv) == [["0", "-1"], ["1", "0"]]
    assert circle_pv.certificates.ok
    names = [c.name for c in circle_pv.certificates.lines]
    assert names == [
        "solutions_satisfy_equation",
        "wronskian_invertible",
        "no_new_constants_in_window",
        "companion_matrix_consistent",
    ]


def test_perturbed_companion_fails_its_certificate(circle_pv):
    base = circle_pv.base
    rows = ((base.zero(), base.const(-2)), (base.one(), base.zero()))
    rep = _certify(replace(circle_pv, companion=rows))
    status = {c.name: c.status for c in rep.lines}
    assert status["companion_matrix_consistent"] == "FAIL"
    assert status["solutions_satisfy_equation"] == "PASS"


@pytest.mark.parametrize(
    "eq_class,coeffs,derives",
    [("CIRCLE", ["1", "0"], 4), ("CONSTCOEFF2", ["2", "-3"], 4), ("EXP", ["-1"], 1)],
)
def test_certificates_derive_each_solution_once_per_order(
    base, monkeypatch, eq_class, coeffs, derives
):
    # the equation, the wronskian and the companion check all read one
    # ladder y, y', ..., y^(n) per solution, derived once by the cleared
    # recurrence and never again by `derive`
    ode = _ode(base, *coeffs)
    steps, calls = [], []

    def counted_ladder(self, y, depth, _orig=Ladder.__init__):
        steps.append(depth)
        _orig(self, y, depth)

    def counted(self, x, _orig=DiffTower.derive):
        calls.append(x)
        return _orig(self, x)

    monkeypatch.setattr(Ladder, "__init__", counted_ladder)
    monkeypatch.setattr(DiffTower, "derive", counted)
    build_pv(base, ode, eq_class)
    assert sum(steps) == derives
    assert not calls


def test_exp_build(exp_pv):
    e = exp_pv.extension.var("e")
    assert e.derive() == e
    assert exp_pv.companion == ((exp_pv.base.one(),),)
    assert exp_pv.certificates.ok


def test_radical_build(sqrt_pv):
    g = sqrt_pv.extension.var("g")
    t = sqrt_pv.extension.var("t")
    assert (g * g) == t
    assert _relation(sqrt_pv) == "g^2 - t"
    assert sqrt_pv.certificates.ok


def test_radical_cube_of_square(base):
    # Y' = (2/3)(1/t) Y encodes g^3 = t^2
    pv = build_pv(base, _ode(base, "-2/3 * 1/t"), "RADICAL")
    assert _relation(pv) == "g^3 - t^2"
    g = pv.extension.var("g")
    t = pv.extension.var("t")
    assert g ** 3 == t * t


def test_constcoeff2_distinct_roots(base):
    pv = build_pv(base, _ode(base, "2", "-3"), "CONSTCOEFF2")
    assert _companion(pv) == [["2", "0"], ["0", "1"]]
    assert [str(s) for s in pv.solutions] == ["e1", "e2"]
    e1, e2 = pv.solutions
    assert e1.derive() == e1 + e1
    assert e2.derive() == e2


def test_constcoeff2_zero_root(base):
    pv = build_pv(base, _ode(base, "0", "-1"), "CONSTCOEFF2")
    assert _companion(pv) == [["0", "0"], ["0", "1"]]
    assert [str(s) for s in pv.solutions] == ["1", "e"]


def test_constcoeff2_double_root(base):
    pv = build_pv(base, _ode(base, "1", "-2"), "CONSTCOEFF2")
    assert _companion(pv) == [["1", "1"], ["0", "1"]]
    e, u = pv.solutions
    assert u.derive() == u + e


def test_constcoeff2_t_solutions(base):
    pv = build_pv(base, _ode(base, "0", "0"), "CONSTCOEFF2")
    assert _companion(pv) == [["0", "1"], ["0", "0"]]
    assert pv.extension is pv.base
    assert [str(s) for s in pv.solutions] == ["1", "t"]


def test_constcoeff2_conjugate_pair(base):
    pv = build_pv(base, _ode(base, "2", "2"), "CONSTCOEFF2")
    assert _companion(pv) == [["-1", "1"], ["-1", "-1"]]
    assert [str(s) for s in pv.solutions] == ["c*e", "s*e"]
    for s in pv.solutions:
        assert pv.ode.apply(pv.extension.lift(s)).is_zero()


@pytest.mark.parametrize("w", [1, 3])
def test_circle_is_the_conjugate_pair_branch(base, w):
    # CIRCLE [w^2, 0] is CONSTCOEFF2 [w^2, 0] with its solutions (c, s) listed
    # as (s, c): one tower, and the companion conjugated by the swap
    ode = _ode(base, str(w * w), "0")
    circle = build_pv(base, ode, "CIRCLE")
    pair = build_pv(base, ode, "CONSTCOEFF2")
    assert circle.extension == pair.extension
    assert circle.solutions == pair.solutions[::-1]
    swapped = [[pair.companion[1 - i][1 - j] for j in range(2)] for i in range(2)]
    assert [list(row) for row in circle.companion] == swapped


# -- refusals are honest -------------------------------------------------------


def test_trivial_rate_is_not_pv(base):
    # Y' = 0 adjoins a new constant, the certificate must catch it
    with pytest.raises(NotPV) as exc:
        build_pv(base, _ode(base, "0"), "EXP")
    failed = [c.name for c in exc.value.report.failures()]
    assert failed == ["no_new_constants_in_window"]


def test_unknown_class(base):
    with pytest.raises(UnsupportedEquation):
        build_pv(base, _ode(base, "-1"), "AIRY")


def test_circle_rejects_wrong_shape(base):
    with pytest.raises(UnsupportedEquation):
        build_pv(base, _ode(base, "-1"), "CIRCLE")
    with pytest.raises(UnsupportedEquation):
        build_pv(base, _ode(base, "-1", "0"), "CIRCLE")  # Y'' = Y
    with pytest.raises(UnsupportedEquation):
        build_pv(base, _ode(base, "2", "0"), "CIRCLE")  # w^2 = 2 irrational


def test_radical_rejects_nonlogarithmic_rate(base):
    with pytest.raises(UnsupportedEquation):
        build_pv(base, _ode(base, "t"), "RADICAL")


def test_radical_rejects_negative_exponent(base):
    with pytest.raises(UnsupportedEquation):
        build_pv(base, _ode(base, "1/2 * 1/t"), "RADICAL")


def test_constcoeff2_rejects_irrational_roots(base):
    with pytest.raises(UnsupportedEquation):
        build_pv(base, _ode(base, "-2", "0"), "CONSTCOEFF2")


def test_foreign_base_rejected(base, circle_pv):
    ode = _ode(circle_pv.extension, "1", "0")
    with pytest.raises(UnsupportedEquation):
        build_pv(base, ode, "CIRCLE")

