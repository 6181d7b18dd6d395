"""Fixed fields, stabilizers, round trips, and the normality reports."""

from __future__ import annotations

import pytest

from realpv import (
    DIAGONAL,
    FULL,
    SO2,
    TRIVIAL,
    GaussRat,
    IntermediateField,
    Unsupported,
    check_correspondence,
    check_inclusion_reversal,
    defining_equations,
    descriptor_of,
    finite_list,
    fixed_field,
    group_over,
    matrix_from_texts,
    member_of_field,
    mu_n,
    normality_check,
    subgroup_of,
    weak_normality_demo,
)
from realpv.correspondence import descriptor_polys, descriptor_samples


@pytest.fixture(scope="module")
def circle_group(circle_pv):
    return defining_equations(circle_pv)


@pytest.fixture(scope="module")
def exp_group(exp_pv):
    return defining_equations(exp_pv)


PM_ONE = [[["1", "0"], ["0", "1"]], [["-1", "0"], ["0", "-1"]]]


# -- descriptors -----------------------------------------------------------------


def test_descriptor_labels():
    assert FULL.label() == "FULL"
    assert mu_n(4).label() == "MU_N(4)"
    assert finite_list(PM_ONE).label() == "FINITE_LIST[2 elements]"


def test_descriptor_polys_shapes(circle_group, exp_group):
    assert [str(p) for p in descriptor_polys(exp_group, mu_n(2))] == ["X11^2 - 1"]
    # ambient equations come first, then the pointwise pins
    trivial = [str(p) for p in descriptor_polys(circle_group, TRIVIAL)]
    for pin in ("X11 - 1", "X12", "X21", "X22 - 1"):
        assert pin in trivial
    assert len(trivial) == len(circle_group.polys) + 4
    assert descriptor_polys(circle_group, FULL) == list(circle_group.polys)
    pm = finite_list(PM_ONE)
    got = sorted(str(p) for p in descriptor_polys(circle_group, pm))
    assert "X11^2 - 1" in got and "X22 - X11" in got


def test_descriptor_polys_rejects_odd_finite_list(circle_group):
    rot = finite_list([[["0", "-1"], ["1", "0"]]])
    with pytest.raises(Unsupported):
        descriptor_polys(circle_group, rot)


def test_descriptor_samples_are_members(circle_group):
    for desc in (TRIVIAL, SO2, finite_list(PM_ONE)):
        sub = subgroup_of(circle_group, desc)
        for sigma in descriptor_samples(circle_group, desc):
            assert sub.is_member(sigma.matrix)


# -- fixed fields ------------------------------------------------------------------


def test_fixed_field_of_trivial_is_everything(circle_group):
    F = fixed_field(circle_group, TRIVIAL)
    ext = circle_group.pv.extension
    assert F.contains(ext.var("s"))
    assert F.contains(ext.var("c"))
    assert F.describe() == "K(c, s)"


def test_fixed_field_of_full_is_base(circle_group):
    F = fixed_field(circle_group, SO2)
    assert F.generators == ()
    assert F.describe() == "K"


def test_fixed_field_of_pm_identity(circle_group):
    F = fixed_field(circle_group, finite_list(PM_ONE))
    got = sorted(str(g) for g in F.generators)
    assert got == ["c^2", "s*c"]
    ext = circle_group.pv.extension
    s, c = ext.var("s"), ext.var("c")
    assert F.contains(s * s)
    assert F.contains(s * c)
    assert not F.contains(s)


def test_fixed_field_of_mu3_on_exp(exp_group):
    F = fixed_field(exp_group, mu_n(3))
    assert [str(g) for g in F.generators] == ["e^3"]
    ext = exp_group.pv.extension
    e = ext.var("e")
    assert F.contains(e**3)
    assert F.contains(e**6)
    assert not F.contains(e)
    assert not F.contains(e * e)


def test_fixed_field_of_full_on_exp(exp_group):
    F = fixed_field(exp_group, FULL)
    assert F.generators == ()


def test_member_of_field_mixed_fractions(exp_group):
    ext = exp_group.pv.extension
    e = ext.var("e")
    t = ext.var("t")
    e3 = e**3
    assert member_of_field(ext, (e3 + t) / e3, [e3])
    assert member_of_field(ext, e**6 * t, [e3])
    assert not member_of_field(ext, e, [e3])


# -- stabilizers and round trips -----------------------------------------------------


def test_group_over_recovers_subgroup(circle_group):
    ext = circle_group.pv.extension
    F = IntermediateField(circle_group.pv, (ext.var("c") * ext.var("c"),))
    sub, desc = group_over(circle_group, F)
    assert desc is not None
    # c^2 is fixed exactly by {I, -I} inside SO(2)
    assert desc.kind == "FINITE_LIST"


def test_round_trips_circle(circle_group):
    for desc in (TRIVIAL, finite_list(PM_ONE), SO2):
        rep, F, sub = check_correspondence(circle_group, desc)
        assert rep.ok, rep.lines


def test_round_trips_exp(exp_group):
    for desc in (TRIVIAL, mu_n(2), mu_n(3), mu_n(6), FULL):
        rep, F, sub = check_correspondence(exp_group, desc)
        assert rep.ok, rep.lines


def test_inclusion_reversal_exp(exp_group):
    chain = (TRIVIAL, mu_n(2), mu_n(6), FULL)
    rep = check_inclusion_reversal(exp_group, chain)
    assert rep.ok, rep.lines
    assert len(rep.lines) == 3


def test_inclusion_reversal_circle(circle_group):
    rep = check_inclusion_reversal(
        circle_group, (TRIVIAL, finite_list(PM_ONE), SO2)
    )
    assert rep.ok, rep.lines


def test_descriptor_of_recognizes_so2(circle_group):
    sub = subgroup_of(circle_group, SO2)
    desc = descriptor_of(circle_group, sub)
    # the ambient group already is the rotation group, so either name works;
    # the recognizer prefers the more specific shape
    assert desc is not None and desc.kind == "SO2"


# -- normality ---------------------------------------------------------------------


def test_mu2_normal_in_gl1(exp_group):
    rep = normality_check(exp_group, mu_n(2))
    assert rep.normal and rep.report.ok
    assert rep.quotient_ode is not None
    assert [str(s) for s in rep.quotient_solutions] == ["e^2"]
    names = [n for n, _, _ in rep.report.lines]
    assert "quotient map lambda -> lambda^q lands in GL1" in names


def test_pm_identity_normal_in_so2(circle_group):
    rep = normality_check(circle_group, finite_list(PM_ONE))
    assert rep.normal and rep.report.ok
    assert rep.quotient_ode is not None
    got = [str(s) for s in rep.quotient_solutions]
    # c^2 - s^2 normalizes to 2c^2 - 1 modulo the circle relation
    assert got == ["2*s*c", "2*c^2 - 1"]
    for y in rep.quotient_solutions:
        assert rep.quotient_ode.apply(circle_group.pv.extension.lift(y)).is_zero()


def test_conjugation_instability_detected(circle_group):
    # the group generated by one off-axis reflection is not conjugation stable
    refl = finite_list([[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]])
    with pytest.raises(Unsupported):
        # descriptor polys for this list are unsupported, the report relies
        # on sampled conjugation of explicit elements instead
        descriptor_polys(circle_group, refl)


# -- weak normality -----------------------------------------------------------------


def test_weak_normality_q3():
    rep = weak_normality_demo(3)
    assert rep.real_member_count == 1
    assert rep.complex_member_count == 3
    assert rep.intermediate_is_pv
    assert not rep.witness_in_intermediate
    assert not rep.moved_by_real_member
    assert all(p for _, p, _ in rep.report.lines)


def test_weak_normality_q2_control():
    rep = weak_normality_demo(2)
    assert rep.real_member_count == 2
    assert rep.moved_by_real_member
    assert all(p for _, p, _ in rep.report.lines)


def test_weak_normality_rejects_q1():
    with pytest.raises(ValueError):
        weak_normality_demo(1)
