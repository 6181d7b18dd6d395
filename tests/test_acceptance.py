"""Acceptance gate: twelve criteria, each with its own exact checks and a
wall-clock budget.  Every test prints one pass line with its timing; any
assertion failure marks the criterion failed."""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from realpv import (
    DiffTower,
    FULL,
    GaussRat,
    LinearODE,
    TRIVIAL,
    WitnessNotFound,
    apply,
    buchberger,
    build_pv,
    defining_equations,
    matrix_from_texts,
    mu_n,
    parse_poly,
    radical_pair_report,
    reduces_to_zero,
    twist,
    weak_normality_demo,
    wronskian_det,
    wronskian_matrix,
)
from realpv.cli import main as cli_main
from realpv.correspondence import check_correspondence, descriptor_polys
from realpv.linsolve import identity, mat_mul
from realpv.poly import Poly
from realpv.realforms import non_reality_witness
from realpv.seidenberg import build_seidenberg

from helpers import rand_element, rand_poly, rng

I = GaussRat(Fraction(0), Fraction(1))


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(n: int, label: str, timer: Timer, limit: float) -> None:
    print(f"criterion {n:2d} ({label}): PASS in {timer.elapsed:.2f}s (limit {limit:g}s)")
    assert timer.elapsed < limit, f"criterion {n} exceeded {limit}s: {timer.elapsed:.2f}s"


def test_criterion_01_so2_group_recovery():
    with Timer() as tm:
        base = DiffTower(base_var="t")
        pv = build_pv(base, LinearODE.from_texts(base, ["1", "0"]), "CIRCLE")
        group = defining_equations(pv)
        ref = [
            parse_poly(s, group.context)
            for s in ("X11 - X22", "X12 + X21", "X11^2 + X21^2 - 1")
        ]
        assert group.polys, "defining set must be nonempty"
        assert group.basis == buchberger(ref, group.context)
    _report(1, "SO(2) recovery on Y'' + Y = 0", tm, 5.0)


def test_criterion_02_mu2_group_recovery():
    with Timer() as tm:
        base = DiffTower(base_var="t")
        pv = build_pv(base, LinearODE.from_texts(base, ["-1/2 * 1/t"]), "RADICAL")
        group = defining_equations(pv)
        ref = [parse_poly("X11^2 - 1", group.context)]
        assert group.basis == buchberger(ref, group.context)
        g = pv.extension.var("g")
        one = group.element(identity(1))
        neg = group.element([[GaussRat.of(-1)]])
        assert apply(one, g) == g
        assert apply(neg, g) == -g
        square = group.element(mat_mul(neg.matrix, neg.matrix))
        assert square.matrix == one.matrix
        assert apply(square, g) == apply(neg, apply(neg, g))
    _report(2, "mu_2 recovery on Y' = Y/(2t)", tm, 1.0)


def test_criterion_03_gl1_group():
    with Timer() as tm:
        base = DiffTower(base_var="t")
        pv = build_pv(base, LinearODE.from_texts(base, ["-1"]), "EXP")
        group = defining_equations(pv)
        assert group.polys == ()
        e = pv.extension.var("e")
        for lam in (GaussRat.of(2), GaussRat.of(-1), GaussRat.of(Fraction(1, 3)), I):
            sigma = group.element([[lam]])
            image = apply(sigma, e)
            # the relation generator Z' - Z must vanish on the image
            assert (image.derive() - image).is_zero()
            assert image == image.tower.var("e").scale(lam)
    _report(3, "GL(1) on Y' = Y with sampled members", tm, 1.0)


def test_criterion_04_correspondence_round_trips():
    with Timer() as tm:
        base = DiffTower(base_var="t")
        pv = build_pv(base, LinearODE.from_texts(base, ["-1"]), "EXP")
        group = defining_equations(pv)
        lattice = {
            "FULL": FULL,
            "MU6": mu_n(6),
            "MU3": mu_n(3),
            "MU2": mu_n(2),
            "TRIVIAL": TRIVIAL,
        }
        fields = {}
        for name, desc in lattice.items():
            rep, F, _sub = check_correspondence(group, desc)
            assert rep.ok, (name, rep.lines)
            fields[name] = F
        # every comparable pair reverses
        pairs = [
            ("TRIVIAL", "MU2"),
            ("TRIVIAL", "MU3"),
            ("TRIVIAL", "MU6"),
            ("TRIVIAL", "FULL"),
            ("MU2", "MU6"),
            ("MU3", "MU6"),
            ("MU2", "FULL"),
            ("MU3", "FULL"),
            ("MU6", "FULL"),
        ]
        for small, big in pairs:
            groups_ok = reduces_to_zero(
                descriptor_polys(group, lattice[big]),
                descriptor_polys(group, lattice[small]),
                group.context,
            )
            fields_ok = fields[big].subfield_of(fields[small])
            assert groups_ok and fields_ok, (small, big)
    _report(4, "K(e^t) lattice round trips and reversal", tm, 5.0)


def test_criterion_05_weak_normality():
    with Timer() as tm:
        rep = weak_normality_demo()
        assert rep.data["q3_real_members"] == 1
        assert rep.data["q3_complex_members"] == 3
        status = {}
        for line in rep.lines:  # the q = 3 lines come before the control
            status.setdefault(line.name, line.status)
        assert status["intermediate field K(e^3) is PV over K"] == "PASS"
        assert status["generator e lies outside the intermediate field"] == "PASS"
        assert status["no real subgroup member moves e"] == "PASS"
        assert rep.ok
    _report(5, "weak normality fails for K(e^3t)", tm, 1.0)


def test_criterion_06_so2_real_forms():
    with Timer() as tm:
        base = DiffTower(base_var="t")
        pv = build_pv(base, LinearODE.from_texts(base, ["1", "0"]), "CIRCLE")
        group = defining_equations(pv)
        res = twist(pv, group, matrix_from_texts([["-1", "0"], ["0", "-1"]]))
        assert res.report.ok
        wit = non_reality_witness(res.tower)
        total = res.tower.zero()
        for q in wit:
            total = total + q * q
        # the witness identity normalizes to the zero polynomial exactly
        residue = total + res.tower.one()
        assert residue.is_zero()
        assert residue.num == Poly.zero(residue.num.context)
        with pytest.raises(WitnessNotFound):
            non_reality_witness(pv.extension)
    _report(6, "SO(2) twist carries a -1 witness", tm, 2.0)


def test_criterion_07_radical_pair():
    with Timer() as tm:
        base = DiffTower(base_var="t")
        pv = build_pv(base, LinearODE.from_texts(base, ["-1/2 * 1/t"]), "RADICAL")
        group = defining_equations(pv)
        res = twist(pv, group, [[GaussRat.of(-1)]])
        g = pv.extension.var("g")
        h = res.tower.var("h")
        t_orig = pv.extension.var("t")
        t_tw = res.tower.var("t")
        assert g * g == t_orig
        assert h * h == -t_tw
        signs = [d for d in res.report.lines if "opposite sign" in d[0]]
        assert signs and signs[0][1]
        pair = radical_pair_report(pv, h)
        assert pair.ok, pair.lines
        forced = [d for d in pair.lines if "gamma^2 = -1" in d[0]]
        assert forced and all(p for _, p, _ in pair.lines)
    _report(7, "sqrt(t) vs sqrt(-t) are different forms", tm, 1.0)


def test_criterion_08_seidenberg():
    with Timer() as tm:
        F = build_seidenberg()
        a = F.var("a")
        two_a = F.const(2) * a
        da = a.derive()
        total = two_a * two_a + da * da + F.one()
        assert total.is_zero()
        assert total.num == Poly.zero(total.num.context)

        # two free solution pairs of Y' = Z, Z' = -Y: the scan finds the
        # constants that the circle relation s^2 + c^2 = 1 rules out
        ext = DiffTower(base_var=None).adjoin_abstract(
            ["y1", "z1", "y2", "z2"], ["z1", "-y1", "z2", "-y2"]
        )
        found = ext.constant_scan(2, 0)
        y1, z1, y2, z2 = (ext.var(v) for v in ("y1", "z1", "y2", "z2"))
        targets = (y1 * y1 + z1 * z1, y2 * y2 + z2 * z2, y1 * z2 - y2 * z1)
        for x in targets:
            assert x.derive().is_zero()
            rels = ext.linear_relations(list(found) + [x])
            assert any(len(found) in v for v in rels), f"{x} outside the scanned constants"
    _report(8, "Seidenberg witness and forced constants", tm, 2.0)


def test_criterion_09_wronskian_suite():
    with Timer() as tm:
        base = DiffTower(base_var="t")
        pv = build_pv(base, LinearODE.from_texts(base, ["1", "0"]), "CIRCLE")
        ext = pv.extension
        s, c = ext.var("s"), ext.var("c")
        assert str(wronskian_det(wronskian_matrix(ext, [s, c]))) == "-1"

        r = rng(9)

        def lite(k: int):
            num = rand_poly(r, ext.context, max_terms=2, max_degree=3, complex_ok=False)
            if k % 10:
                return ext.elem(num)
            den = Poly.zero(ext.context)
            while den.is_zero():
                den = rand_poly(r, ext.context, max_terms=2, max_degree=1, complex_ok=False)
            return ext.elem(num, den)

        for k in range(40):
            x = lite(k)
            q1 = GaussRat.of(r.randint(-4, 4)) / GaussRat.of(r.randint(1, 4))
            fam = [x, x.scale(q1)]
            assert wronskian_det(wronskian_matrix(ext, fam)).is_zero()
            q2 = GaussRat.of(r.randint(-4, 4)) / GaussRat.of(r.randint(1, 4))
            dep = [s, c, s.scale(q1) + c.scale(q2)]
            assert wronskian_det(wronskian_matrix(ext, dep)).is_zero()

        for k in range(200):
            fam = [lite(k), lite(k + 1)]
            swapped = [fam[1], fam[0]]
            a = wronskian_det(wronskian_matrix(ext, fam))
            b = wronskian_det(wronskian_matrix(ext, swapped))
            assert a == -b, f"swap case {k}"
    _report(9, "wronskian identities, 200 swaps", tm, 5.0)


def test_criterion_10_algebra_properties():
    with Timer() as tm:
        base = DiffTower(base_var="t")
        pv = build_pv(base, LinearODE.from_texts(base, ["1", "0"]), "CIRCLE")
        ext = pv.extension
        r = rng(10)

        for _ in range(500):  # Leibniz rule
            x = rand_element(r, ext, max_terms=2)
            y = rand_element(r, ext, max_terms=2)
            assert (x * y).derive() == x.derive() * y + x * y.derive()

        nf = ext.rewrite.normal_form
        for _ in range(500):  # normal-form idempotence and confluence
            p = rand_poly(r, ext.context, max_terms=4, max_degree=4, complex_ok=False)
            q = rand_poly(r, ext.context, max_terms=3, max_degree=3, complex_ok=False)
            n = nf(p)
            assert nf(n) == n
            assert nf(p * q) == nf(nf(p) * nf(q))

        def conj(x):  # conjugation acts on the coefficients only
            return ext.elem(x.num.conj(), x.den.conj())

        for _ in range(500):  # derivation commutes with conjugation
            num = rand_poly(r, ext.context, max_terms=3, max_degree=3)
            den = Poly.zero(ext.context)
            while den.is_zero():
                den = rand_poly(r, ext.context, max_terms=2, max_degree=2)
            x = ext.elem(num, den)
            assert conj(x.derive()) == conj(x).derive()
    _report(10, "algebra properties, 500 cases each", tm, 30.0)


def test_criterion_11_realification():
    with Timer() as tm:
        base = DiffTower(base_var="t")
        pv = build_pv(base, LinearODE.from_texts(base, ["1", "0"]), "CIRCLE")
        # the builder reads the real form directly: real solutions, tower
        # data and companion matrix, certified with no complexification
        assert [str(x) for x in pv.solutions] == ["s", "c"]
        data = [
            p
            for spec in pv.extension.specs
            for p in (spec.deriv_num, spec.deriv_den, spec.relation)
            if p is not None
        ]
        assert data and all(p.conj() == p for p in data)
        assert all(
            a.num.conj() == a.num and a.den.conj() == a.den
            for row in pv.companion
            for a in row
        )
        assert [c.status for c in pv.certificates.lines] == ["PASS"] * 4
    _report(11, "CIRCLE builds the real (s, c) form", tm, 1.0)


def test_criterion_12_deterministic_reports(tmp_path, capsys):
    with Timer() as tm:
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        for target in (first, second):
            code = cli_main(
                ["all", "scenarios/circle.json", "--json", "--out", str(target)]
            )
            assert code == 0
        capsys.readouterr()
        b1 = first.read_bytes()
        b2 = second.read_bytes()
        assert b1 == b2
        json.loads(b1.decode())
    _report(12, "all --json is byte-identical", tm, 30.0)
