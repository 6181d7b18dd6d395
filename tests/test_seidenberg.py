"""The non-real differential field with rational constants, exactly checked."""

from __future__ import annotations

import pytest

from realpv import (
    DiffTower,
    NotPV,
    build_pv,
    build_seidenberg,
    non_reality_witness,
    seidenberg_demo,
)
from realpv.pv import LinearODE


def test_field_relations():
    F = build_seidenberg()
    a, b = F.var("a"), F.var("b")
    assert a.derive() == b
    assert b.derive() == F.const(-4) * a
    assert (F.const(4) * a * a + b * b).is_zero() is False
    assert (F.const(4) * a * a + b * b + F.one()).is_zero()


def test_field_has_rational_constants_in_window():
    F = build_seidenberg()
    assert F.constant_scan(3, 0) == []


def test_demo_all_checks_pass():
    rep = seidenberg_demo()
    assert rep.ok, rep.lines
    assert [line.status for line in rep.lines] == ["PASS"] * 6 + ["INFO"] * 2


def test_demo_witness_is_2a_b():
    rep = seidenberg_demo()
    assert rep.data["witness"] == ["2*a", "b"]
    assert rep.lines[-2].render() == "[INFO] witness: 2*a, b"
    F = build_seidenberg()
    wit = non_reality_witness(F)
    assert [str(w) for w in wit] == rep.data["witness"]
    total = F.zero()
    for w in wit:
        total = total + w * w
    assert total == F.const(-1)


def test_circle_over_seidenberg_raises_notpv():
    F = build_seidenberg()
    ode = LinearODE(F, (F.const(4), F.zero()))
    with pytest.raises(NotPV) as exc:
        build_pv(F, ode, "CIRCLE")
    failed = [c.name for c in exc.value.report.failures()]
    assert failed == ["no_new_constants_in_window"]


def test_demo_exhibits_new_constants():
    rep = seidenberg_demo()
    assert rep.data["new_constants"]
    assert rep.lines[-1].detail == " ; ".join(rep.data["new_constants"])
    # the demo's scan, on the pair adjoined over the field
    ext = build_seidenberg().adjoin_abstract(["c", "s"], ["-2*s", "2*c"], ["s^2+c^2-1"])
    found = ext.constant_scan(2, 0)
    assert [str(x) for x in found] == rep.data["new_constants"]
    for x in found:
        assert x.derive().is_zero()
        assert x.as_scalar() is None
    # the classic combination s*a + (1/2)*c*b appears in the scan's span
    rendered = " ; ".join(rep.data["new_constants"])
    assert "s*a" in rendered or "a*s" in rendered


def test_new_constant_demo_spans_the_four_invariants():
    # two solution pairs of Y' = Z, Z' = -Y adjoined with no relation: the
    # scan finds the circle first integrals and the cross determinant, which
    # is why the certified circle construction imposes s^2 + c^2 = 1
    ext = DiffTower(base_var=None).adjoin_abstract(
        ["y1", "z1", "y2", "z2"], ["z1", "-y1", "z2", "-y2"]
    )
    found = ext.constant_scan(2, 0)
    assert len(found) == 4
    for x in found:
        assert x.derive().is_zero()
    y1, z1, y2, z2 = (ext.var(v) for v in ("y1", "z1", "y2", "z2"))
    targets = {
        "y1^2 + z1^2": y1 * y1 + z1 * z1,
        "y2^2 + z2^2": y2 * y2 + z2 * z2,
        "y1*z2 - y2*z1": y1 * z2 - y2 * z1,
    }
    for label, x in targets.items():
        assert x.derive().is_zero(), label
        rels = ext.linear_relations(list(found) + [x])
        assert any(len(found) in v for v in rels), f"{label} outside the scanned span"
