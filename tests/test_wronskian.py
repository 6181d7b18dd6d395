"""Wronskian determinants: exact values, oracles, and the alternating law."""

from __future__ import annotations

import itertools

import pytest

from realpv import (
    DiffTower,
    EmptyInput,
    FieldElement,
    GaussRat,
    LinearODE,
    build_pv,
    independent_over_constants,
    wronskian_det,
    wronskian_matrix,
)
from realpv.linsolve import det
from realpv.rewrite import RewriteSystem
from realpv.tower import Ladder
from realpv.wronskian import WrMatrix

from helpers import bench_algebra, leibniz_derive, rand_element, rng

BENCH = bench_algebra()
TOWERS = BENCH.towers()


def _permanent_style_det(tower, rows):
    """Leibniz expansion over all permutations, the slow reference."""
    n = len(rows)
    total = tower.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for idx in range(n):
            for jdx in range(idx + 1, n):
                if seen[idx] > seen[jdx]:
                    sign = -sign
        term = tower.one()
        for idx in range(n):
            term = term * rows[idx][perm[idx]]
        total = total + (term if sign > 0 else -term)
    return total


def test_sine_cosine_pair_has_wronskian_minus_one(circle):
    s, c = circle.var("s"), circle.var("c")
    w = wronskian_matrix(circle, [s, c])
    assert str(wronskian_det(w)) == "-1"
    assert independent_over_constants(circle, [s, c])


def test_exponential_with_t_is_independent(exp_tower):
    e = exp_tower.var("e")
    t = exp_tower.var("t")
    assert independent_over_constants(exp_tower, [e, t])
    # Wr(e, t) = e - t*e
    w = wronskian_det(wronskian_matrix(exp_tower, [e, t]))
    assert w == exp_tower.parse("e - t*e")


def test_empty_family_rejected(circle):
    with pytest.raises(EmptyInput):
        wronskian_matrix(circle, [])


def test_det_matches_permutation_expansion(circle):
    """`linsolve.det` on rows of field elements that are no Wronskian, with
    a zero top-left entry among them: the expansion has no pivot to swap."""
    r = rng(20)
    for n in (2, 3):
        for trial in range(8):
            rows = [[rand_element(r, circle, max_terms=2) for _ in range(n)] for _ in range(n)]
            if trial % 4 == 0:
                rows[0][0] = circle.zero()
            assert det(rows) == _permanent_style_det(circle, rows)


def _catalogue_family(tower, n, seed):
    """n elements of the benchmark catalogue's shape: two numerator terms
    over a one-term denominator."""
    r = rng(seed)
    return [BENCH.rand_element(r, tower, 2, 1) for _ in range(n)]


def _reference_rows(tower, family):
    """The Wronskian's rows by `derive`, step after step."""
    rows = [list(family)]
    for _ in range(len(family) - 1):
        rows.append([y.derive() for y in rows[-1]])
    return rows


def _constant_derivative_tower():
    """E = c with E' = 0: u' = u/c for a constant generator c."""
    base = DiffTower(base_var="t").adjoin_abstract(["c"], ["0"])
    return base.adjoin_abstract(["u"], ["u/c"])


@pytest.mark.parametrize("name", sorted(TOWERS) + ["constant-E"])
def test_ladder_matches_repeated_derive(name):
    """Entry k of a ladder is y^(k) over E^a_k * d^(k+1): a_k = 2k - 1 on
    the radical tower, where E = t and E' != 0, a_k = k where E = c and
    E' = 0, and a_k = 0 on the other towers, where E = 1.  `derive` is
    the ladder's rung 1, so the reference is the Leibniz-rule derivative
    in field element arithmetic (`helpers.leibniz_derive`)."""
    tower = TOWERS[name] if name != "constant-E" else _constant_derivative_tower()
    powers = {"radical": [0, 1, 3, 5], "constant-E": [0, 1, 2, 3]}.get(name, [0] * 4)
    r = rng(3000)
    for _ in range(4):
        y = BENCH.rand_element(r, tower, 3, 2)
        lad = Ladder(y, 3)
        assert lad.powers == powers
        want = y
        for k in range(4):
            assert lad[k] == want, (k, y)
            want = leibniz_derive(tower, want)
        with pytest.raises(IndexError):
            lad[4]


def _built_by(monkeypatch, compute):
    """compute() and the number of `FieldElement`s it builds."""
    built = []
    init = FieldElement.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(FieldElement, "__init__", counted)
        out = compute()
    return out, len(built)


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_wronskian_det_builds_one_field_element(name, monkeypatch):
    tower = TOWERS[name]
    for n in (2, 3):
        w = wronskian_matrix(tower, _catalogue_family(tower, n, 3100 + n))
        _, built = _built_by(monkeypatch, lambda: wronskian_det(w))
        assert built == 1, (n, built)


def test_circle_wronskian_is_written_over_the_cubed_denominators():
    """The circle has E = 1, so a 3x3 Wronskian of the catalogue's shape is
    written over the product of the d_j^3 exactly (42 terms for the first
    family of the catalogue under the former Bareiss elimination, 5 now)."""
    tower = TOWERS["circle"]
    nf = tower.rewrite.normal_form
    for seed in range(3200, 3206):
        family = _catalogue_family(tower, 3, seed)
        matrix = wronskian_matrix(tower, family)
        w = wronskian_det(matrix)
        cubes = nf((family[0].den * family[1].den * family[2].den) ** 3)
        assert w.den == cubes.monic()
        reference = _reference_rows(tower, family)
        assert [list(row) for row in matrix.rows] == reference
        assert w == _permanent_style_det(tower, reference)


@pytest.mark.parametrize("name", ["seidenberg", "circle"])
def test_four_by_four_wronskian_matches_permutation_expansion(name, monkeypatch):
    tower = TOWERS[name]
    family = _catalogue_family(tower, 4, 3300)
    w = wronskian_matrix(tower, family)
    got, built = _built_by(monkeypatch, lambda: wronskian_det(w))
    assert built == 1
    assert not got.is_zero()
    assert got == _permanent_style_det(tower, _reference_rows(tower, family))


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_dependent_family_of_four_vanishes(name):
    tower = TOWERS[name]
    x, y, z = _catalogue_family(tower, 3, 3400)
    q1, q2 = GaussRat.of(3) / GaussRat.of(2), GaussRat.of(-2)
    family = [x, y, z, x.scale(q1) + z.scale(q2)]
    assert wronskian_det(wronskian_matrix(tower, family)).is_zero()
    assert not independent_over_constants(tower, family)


def test_constant_multiple_collapses(exp_tower):
    r = rng(21)
    e = exp_tower.var("e")
    for _ in range(20):
        q = GaussRat.of(r.randint(-6, 6)) / GaussRat.of(r.randint(1, 6))
        fam = [e, e.scale(q)]
        w = wronskian_det(wronskian_matrix(exp_tower, fam))
        assert w.is_zero()
        assert not independent_over_constants(exp_tower, fam)


def test_constant_linear_combination_collapses(circle):
    r = rng(22)
    s, c = circle.var("s"), circle.var("c")
    for _ in range(20):
        q1 = GaussRat.of(r.randint(-5, 5)) / GaussRat.of(r.randint(1, 4))
        q2 = GaussRat.of(r.randint(-5, 5)) / GaussRat.of(r.randint(1, 4))
        y3 = s.scale(q1) + c.scale(q2)
        w = wronskian_det(wronskian_matrix(circle, [s, c, y3]))
        assert w.is_zero()


def test_nonconstant_coefficient_does_not_collapse(circle):
    # t*s is not a constant multiple of s, the pair stays independent
    s = circle.var("s")
    t = circle.var("t")
    assert independent_over_constants(circle, [s, t * s])


def test_swap_flips_sign(circle):
    r = rng(23)
    for _ in range(30):
        fam = [rand_element(r, circle, max_terms=2) for _ in range(3)]
        i, j = r.sample(range(3), 2)
        swapped = list(fam)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        a = wronskian_det(wronskian_matrix(circle, fam))
        b = wronskian_det(wronskian_matrix(circle, swapped))
        assert a == -b


def test_repeated_entry_vanishes(circle):
    r = rng(24)
    for _ in range(10):
        x = rand_element(r, circle, max_terms=2)
        y = rand_element(r, circle, max_terms=2)
        w = wronskian_det(wronskian_matrix(circle, [x, y, x]))
        assert w.is_zero()


def test_matrix_shape_guard(circle):
    # two columns need two entries each; the second ladder stops at s
    s = circle.var("s")
    with pytest.raises(ValueError):
        WrMatrix([Ladder(s, 1), Ladder(s, 0)])


APPLY_CLASSES = [
    ("EXP", ["-1"]),
    ("RADICAL", ["-1/2 * 1/t"]),
    ("CIRCLE", ["1", "0"]),
    ("CONSTCOEFF2", ["2", "-3"]),
]


def test_ladder_entries_normal_form_only_their_denominators(monkeypatch):
    """`LinearODE.apply` on four elements of each of the four equation
    classes, 16 cases: a ladder makes one normal form per derivative step,
    one for d' when d is not 1 and the ladder is deeper than 1, and one per
    entry read, for its denominator; the numerator N_k is already a normal
    form."""
    base = DiffTower(base_var="t")
    cases = []
    for eq_class, coeffs in APPLY_CLASSES:
        pv = build_pv(base, LinearODE.from_texts(base, coeffs), eq_class)
        tower = pv.extension
        s = tower.lift(pv.solutions[0])
        t = tower.var("t")
        for y in (s, s * t, s / (t + tower.one()), s * s + t):
            cases.append((pv.ode, y))
    calls = []
    normal_form = RewriteSystem.normal_form

    def counting(self, p):
        calls.append(p)
        return normal_form(self, p)

    expected, entries = 0, []
    with monkeypatch.context() as m:
        m.setattr(RewriteSystem, "normal_form", counting)
        for ode, y in cases:
            ladder = Ladder(y, ode.order)
            entries.append([ladder[k] for k in range(ode.order + 1)])
            expected += 2 * ode.order + (ode.order > 1 and not y.den.is_constant())
    assert len(cases) == 16
    assert len(calls) == expected == 50
    for (ode, y), got in zip(cases, entries):
        want = [y]
        for _ in range(ode.order):
            want.append(want[-1].derive())
        assert got == want
        assert ode.apply(y) == ode.evaluate(want)
