"""Known wrong answers, each asserting the correct one as a strict `xfail`.

Every case below is answered wrongly today; its reason names the ROADMAP
item whose fix makes it pass.  Strictness makes that fix turn the case
into a failure until the mark is removed, so a fixed answer is noticed.

The group cases read the `group --json` report and ask whether a
polynomial lies in the ideal its defining set generates.  A new constant
c of the extension is fixed by every automorphism, so sigma(c) = c is an
equation on the group: e2^2/e1 constant on K(e1, e2) puts X11 - X22^2 in
the ideal, and e = t^5 on K(e) puts X11 - 1 there.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from realpv import DiffTower, LinearODE, build_pv, member_of_field
from realpv.cli import main
from realpv.poly import Context, parse_poly
from realpv.rewrite import buchberger

ROOT = Path(__file__).resolve().parent.parent


def _known_wrong(item: int, why: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {why}")


def _scenario(tmp_path, eq_class: str, coefficients: list[str], **extra) -> str:
    path = tmp_path / "case.json"
    equation = {"class": eq_class, "coefficients": coefficients, **extra}
    path.write_text(json.dumps({"base_var": "t", "equation": equation}))
    return str(path)


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def _group_contains(capsys, path: str, text: str) -> bool:
    """Whether `group` exits 0 with text in the ideal of its defining set."""
    code, out = _run(capsys, "group", path, "--json")
    if code != 0:
        return False
    data = json.loads(out)["data"]
    n = data["size"]
    ctx = Context([f"X{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)])
    ideal = buchberger([parse_poly(p, ctx) for p in data["defining_set"]], ctx)
    return ideal.is_zero_mod(parse_poly(text, ctx))


@_known_wrong(1, "e2^2/e1 is a new constant the window scan misses")
def test_constcoeff_group_is_a_one_dimensional_torus(capsys):
    assert _group_contains(capsys, str(ROOT / "scenarios/constcoeff.json"), "X11 - X22^2")


@_known_wrong(1, "u/e - t is a new constant; the group is the scalars")
def test_double_root_group_is_the_scalars(capsys):
    path = str(ROOT / "bench/scenarios/constcoeff_double.json")
    assert _group_contains(capsys, path, "X12")


@_known_wrong(1, "e1^3/e2^4 is a new constant of degree 7, past the window")
def test_constcoeff_roots_4_and_3_group(capsys, tmp_path):
    path = _scenario(tmp_path, "CONSTCOEFF2", ["12", "-7"])
    assert _group_contains(capsys, path, "X11^3 - X22^4")


@_known_wrong(1, "e1^4*e2 is a new constant of degree 5, past the window")
def test_constcoeff_roots_1_and_minus_4_group(capsys, tmp_path):
    path = _scenario(tmp_path, "CONSTCOEFF2", ["-4", "3"])
    assert _group_contains(capsys, path, "X11^4*X22 - 1")


@_known_wrong(12, "the solution lies in K, so the group is trivial")
@pytest.mark.parametrize("rate", ["-5/t", "-2*t/(t^2+1)"])
def test_rational_solution_has_the_trivial_group(capsys, tmp_path, rate):
    assert _group_contains(capsys, _scenario(tmp_path, "EXP", [rate]), "X11 - 1")


@_known_wrong(12, "y^5 = t, so the group is the fifth roots of unity")
def test_fifth_root_of_t_has_a_finite_group(capsys, tmp_path):
    path = _scenario(tmp_path, "EXP", ["-1/(5*t)"])
    assert _group_contains(capsys, path, "X11^5 - 1")


@_known_wrong(12, "y -> t^5 * y maps Y' = 0 to Y' - (5/t)*Y = 0 (item 24's gauge pair)")
def test_gauge_pair_both_have_the_trivial_group(capsys, tmp_path):
    got = [_group_contains(capsys, _scenario(tmp_path, "EXP", [rate]), "X11 - 1")
           for rate in ("0", "-5/t")]
    assert got == [True, True]


@_known_wrong(2, "g^2 = -(t^2 + 1) has no real point, so the field is not real")
def test_radical_over_a_negative_base_is_refused(capsys, tmp_path):
    path = _scenario(tmp_path, "RADICAL", ["-t/(t^2+1)"], radical_base="-(t^2+1)")
    code, _ = _run(capsys, "build", path)
    assert code != 0


@_known_wrong(19, "B = [[(3+i)/4, -(3-i)/4], [(3-i)/4, (3+i)/4]] in SO2 splits A'")
def test_circle_twist_by_a_coboundary_is_isomorphic(capsys, tmp_path):
    """A' = B * conj(B)^-1 with det B = 1, so the twist by A' is the
    original real form; only diagonal B with entries 1 and i are tried."""
    path = tmp_path / "case.json"
    path.write_text(json.dumps({
        "base_var": "t",
        "equation": {"class": "CIRCLE", "coefficients": ["1", "0"]},
        "cocycle": [["5/4", "3/4*i"], ["-3/4*i", "5/4"]],
    }))
    code, out = _run(capsys, "twist", str(path))
    assert code == 0
    assert "isomorphic to the original extension" in out


@_known_wrong(5, "membership searches a bounded window (t-powers |j| <= 2)")
@pytest.mark.parametrize("inverted", [False, True], ids=["x", "1/x"])
def test_member_of_field_beyond_the_window(inverted):
    base = DiffTower(base_var="t")
    tower = build_pv(base, LinearODE.from_texts(base, ["-1"]), "EXP").extension
    e, t = tower.var("e"), tower.var("t")
    x = e**3 + t**5
    assert member_of_field(tower, x.inverse() if inverted else x, [e**3])


def test_the_probes_can_say_yes(capsys):
    """The probes above are not stuck at False: the group of sqrt(t) is
    {1, -1}, and e^6 + 1 lies in K(e^3)."""
    assert _group_contains(capsys, str(ROOT / "scenarios/sqrt.json"), "X11^2 - 1")
    base = DiffTower(base_var="t")
    tower = build_pv(base, LinearODE.from_texts(base, ["-1"]), "EXP").extension
    e = tower.var("e")
    assert member_of_field(tower, e**6 + tower.one(), [e**3])
