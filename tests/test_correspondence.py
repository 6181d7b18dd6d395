"""Fixed fields, stabilizers, round trips, and the normality reports."""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import realpv.cli as cli
import realpv.correspondence as correspondence
import realpv.galois as galois
import realpv.tower as tower_module
from realpv import (
    DIAGONAL,
    FULL,
    SO2,
    TRIVIAL,
    BadField,
    DiffTower,
    FieldElement,
    GaussRat,
    IntermediateField,
    LinearODE,
    Poly,
    Unsupported,
    apply,
    buchberger,
    build_pv,
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
    parse_poly,
    reduces_to_zero,
    subgroup_of,
    weak_normality_demo,
)
from realpv.correspondence import descriptor_polys
from realpv.galois import MatrixGroup
from realpv.linsolve import identity, kernel, relations
from realpv.tower import cleared_numerators

from helpers import dense, rand_fraction, rng

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def circle_group(circle_pv):
    return defining_equations(circle_pv)


@pytest.fixture(scope="module")
def exp_group(exp_pv):
    return defining_equations(exp_pv)


@pytest.fixture(scope="module")
def radical_groups(base):
    """The groups of sqrt(t) and of the cube root of t, by radical order."""
    return {
        k: defining_equations(
            build_pv(base, LinearODE.from_texts(base, [f"-1/{k} * 1/t"]), "RADICAL")
        )
        for k in (2, 3)
    }


PM_ONE = [[["1", "0"], ["0", "1"]], [["-1", "0"], ["0", "-1"]]]
# the rotations by quarter turns: a finite group with no polynomial description here
QUARTER_TURNS = [
    [["1", "0"], ["0", "1"]],
    [["0", "-1"], ["1", "0"]],
    [["-1", "0"], ["0", "-1"]],
    [["0", "1"], ["-1", "0"]],
]

# named subgroup shapes tried on each group, by matrix size
SHAPES = {
    1: [TRIVIAL, *(mu_n(k) for k in range(2, 9)), FULL],
    2: [TRIVIAL, finite_list(PM_ONE), SO2, DIAGONAL, FULL],
}


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


def test_mu_n_bounds_the_order():
    limit = correspondence.MAX_ROOT_ORDER
    assert mu_n(limit).order == limit
    for q in (0, -3, limit + 1, 5000):
        with pytest.raises(ValueError, match=f"must be between 1 and {limit}$"):
            mu_n(q)


def test_finite_list_is_a_set_of_matrices(circle_group):
    # {-I, I} was refused while {I, -I} had a polynomial description
    pm, mp = finite_list(PM_ONE), finite_list(PM_ONE[::-1])
    assert pm == mp and hash(pm) == hash(mp)
    assert descriptor_polys(circle_group, mp) == descriptor_polys(circle_group, pm)
    eye = finite_list(PM_ONE[:1])
    assert descriptor_polys(circle_group, eye) == descriptor_polys(circle_group, TRIVIAL)


def test_descriptor_polys_rejects_odd_finite_list(circle_group):
    rot = finite_list([[["0", "-1"], ["1", "0"]]])
    # the group generated by one off-axis reflection
    refl = finite_list([[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]])
    for odd in (rot, refl):
        with pytest.raises(Unsupported):
            descriptor_polys(circle_group, odd)


@pytest.mark.parametrize(
    "group_name,desc,sizes",
    [
        ("circle_group", finite_list([[["1"]], [["-1"]]]), "1x1 .* 2x2"),
        ("circle_group", mu_n(3), "1x1 .* 2x2"),
        ("exp_group", SO2, "2x2 .* 1x1"),
        ("exp_group", finite_list([[["1"]], [["1", "0"], ["0", "1"]]]), "2x2 .* 1x1"),
    ],
    ids=["circle-1x1-list", "circle-mu3", "exp-so2", "exp-mixed-list"],
)
def test_descriptor_size_mismatch_refused(request, group_name, desc, sizes):
    group = request.getfixturevalue(group_name)
    for refuse in (fixed_field, descriptor_polys, normality_check):
        with pytest.raises(Unsupported, match=sizes):
            refuse(group, desc)


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


def test_fixed_field_refuses_a_generator_that_is_not_fixed(exp_group, monkeypatch):
    # an invariance condition that does not reduce to zero modulo MU_N(3)
    monkeypatch.setattr(
        correspondence,
        "invariance_conditions",
        lambda sub, g: [parse_poly("1", sub.context)],
    )
    with pytest.raises(BadField, match=r"^e\^3 is not fixed by MU_N\(3\) \(symbolic check\)$"):
        fixed_field(exp_group, mu_n(3))


def _unread_rates(monkeypatch):
    """`DiffTower.writes` answers False for every quotient with a
    non-constant denominator, such as a rate g'/g, so that the closure
    check of `fixed_field` takes the membership route."""
    writes = DiffTower.writes
    monkeypatch.setattr(
        DiffTower, "writes", lambda self, x: x.den.is_constant() and writes(self, x)
    )


def test_fixed_field_refuses_a_field_not_closed_under_the_derivation(
    exp_group, monkeypatch
):
    # K(e^3) is built without a membership query; with the rate 3 of e^3
    # unread and a membership test that finds nothing, (e^3)' = 3*e^3 is
    # left outside it
    _unread_rates(monkeypatch)
    monkeypatch.setattr(correspondence, "member_of_field", lambda *args: False)
    with pytest.raises(BadField, match=r"^derivative of e\^3 escapes the candidate field$"):
        fixed_field(exp_group, mu_n(3))


def test_fixed_field_of_full_on_exp(exp_group):
    F = fixed_field(exp_group, FULL)
    assert F.generators == ()


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("order", [2, 3])
def test_fixed_field_of_mu_n_on_radical_groups(radical_groups, order, q):
    # MU_N(q) cuts the group of order-th roots down to the gcd(q, order)-th
    # roots: all of it when order divides q, the trivial group otherwise
    rep, F, _ = check_correspondence(radical_groups[order], mu_n(q))
    assert F.describe() == ("K" if q % order == 0 else "K(g)")
    assert rep.ok, rep.lines


def _weight(ext, w):
    """Total generator degree of a monomial window element, None if mixed."""
    names = set(ext.generator_names())
    degs = {sum(e for v, e in m.exponents().items() if v in names) for m in w.num.terms}
    return degs.pop() if len(degs) == 1 else None


def _common_kernel(n, kernels):
    """Canonical basis of the intersection of the spans `kernels`, as the
    annihilator of the sum of their annihilators."""
    return kernel(n, [r for vecs in kernels for r in kernel(n, vecs)])


def _former_samples(group, desc):
    """The rational sample members the former computation drew for the
    descriptor: fixed matrices, kept where they lie in the group."""
    F = Fraction
    rot = lambda a, b: [[a, -b], [b, a]]
    diag = lambda d1, d2: [[d1, 0], [0, d2]]
    if desc.kind == "TRIVIAL":
        mats = [identity(group.size)]
    elif desc.kind == "FINITE_LIST":
        mats = list(desc.elements)
    elif desc.kind == "DIAGONAL":
        mats = [diag(2, 3), diag(F(1, 2), 5), diag(-1, 1)]
    elif desc.kind == "SO2":
        mats = [rot(F(3, 5), F(4, 5)), rot(F(5, 13), F(12, 13))]
    else:  # FULL on a 2x2 group
        mats = [rot(a, b) for a, b in ((1, 0), (-1, 0), (0, 1), (F(3, 5), F(4, 5)),
                                       (F(5, 13), F(12, 13)), (F(-3, 5), F(4, 5)))]
        mats += [diag(*d) for d in ((2, 3), (2, 1), (1, 2), (-1, 1), (F(1, 2), 5))]
        mats += [[[a, b], [0, a]] for a, b in ((1, 1), (2, 3), (1, -2))]
    return [group.element(m) for m in mats if group.is_member(m)]


def _sampled_fixed_field(group, desc):
    """The former computation of fixed_field: exponent weights for MU_N and
    for FULL on EXP, otherwise the common kernel of w -> sigma(w) - w over
    the descriptor's sample members; None where it refused."""
    pv = group.pv
    ext = pv.extension
    window, _ = ext.scan_basis(max(4, desc.order or 0), 0)
    if desc.kind == "MU_N" or (desc.kind == "FULL" and pv.eq_class == "EXP"):
        q = desc.order  # None for FULL, which keeps weight 0 only
        weights = [_weight(ext, w) for w in window]
        fixed = [w for w, k in zip(window, weights)
                 if k is not None and (k % q == 0 if q else k == 0)]
    else:
        samples = _former_samples(group, desc)
        if not samples:
            return None
        kernels = [ext.linear_relations([apply(s, w) - w for w in window]) for s in samples]
        common = _common_kernel(len(window), kernels)
        fixed = [ext.combine(k, window) for k in dense(common, len(window))]
    base_vars = {pv.base.base_var}
    candidates = sorted(
        (x.scale(x.num.leading_coefficient().inverse()) for x in fixed
         if not x.is_zero() and not (x.num.variables() | x.den.variables()) <= base_vars),
        key=lambda x: (x.num.total_degree(), str(x)),
    )
    kept = []
    for cand in candidates:
        if not (kept and member_of_field(ext, cand, kept)):
            kept.append(cand)
    return IntermediateField(pv, tuple(kept)).describe()


@pytest.mark.parametrize("group_name", ["circle_group", "exp_group"])
def test_fixed_field_agrees_with_the_sampled_computation(request, group_name):
    group = request.getfixturevalue(group_name)
    answered = 0
    for desc in SHAPES[group.size]:
        old = _sampled_fixed_field(group, desc)
        if old is not None:
            answered += 1
            assert fixed_field(group, desc).describe() == old, desc.label()
    assert answered >= 4


def test_fixed_field_makes_no_apply_call(circle_group, exp_group, monkeypatch):
    calls = []

    def counted(*args, _orig=galois.apply):
        calls.append(args)
        return _orig(*args)

    for module in (galois, correspondence):
        monkeypatch.setattr(module, "apply", counted)
    for group in (circle_group, exp_group):
        for desc in SHAPES[group.size]:
            fixed_field(group, desc)
    assert calls == []


def test_finite_list_without_ideal_is_refused_before_the_window(
    circle_group, monkeypatch
):
    scans = []

    def counted(self, *args, _orig=DiffTower.irreducible_monomials):
        scans.append(args)
        return _orig(self, *args)

    monkeypatch.setattr(DiffTower, "irreducible_monomials", counted)
    # the window is read as keys, so a refusal after it would be counted
    fixed_field(circle_group, finite_list(PM_ONE))
    assert scans == [(4,)]
    scans.clear()
    with pytest.raises(Unsupported, match="polynomial description"):
        fixed_field(circle_group, finite_list(QUARTER_TURNS))
    assert scans == []


@pytest.mark.parametrize(
    "eq_class,coeffs,desc,field",
    [("CIRCLE", ["1", "0"], DIAGONAL, "K(c^2, s*c)"),
     ("CONSTCOEFF2", ["2", "-3"], SO2, "K(e1^2, e2*e1)")],
    ids=["circle-diagonal", "torus-so2"],
)
def test_subgroup_with_no_rational_samples_gets_a_verdict(
    base, eq_class, coeffs, desc, field
):
    # both descriptors cut out {I, -I}, which none of the former rational
    # samples of the descriptor lies in; the generic members decide it
    group = defining_equations(build_pv(base, LinearODE.from_texts(base, coeffs), eq_class))
    rep, F, _ = check_correspondence(group, desc)
    assert F.describe() == field
    assert rep.ok, rep.lines
    lines = normality_check(group, desc).lines
    [line] = [l for l in lines if l.name == "conjugation stability"]
    assert line.status == "PASS"


def test_member_of_field_mixed_fractions(exp_group):
    ext = exp_group.pv.extension
    e = ext.var("e")
    t = ext.var("t")
    e3 = e**3
    assert member_of_field(ext, (e3 + t) / e3, [e3])
    assert member_of_field(ext, e**6 * t, [e3])
    assert not member_of_field(ext, e, [e3])


def _member_by_field_elements(tower, x, gens):
    """The former membership test: the products x*w and the window elements
    w as field elements, their linear relations, and each D part combined."""
    x = tower.lift(x)
    deg, tpow = correspondence.DEFAULT_FIELD_BOUNDS
    degrees = correspondence._generator_degrees
    deg = max(deg, *degrees(tower, x.num), *degrees(tower, x.den))
    if tower.base_var and all(tower.base_var not in y.variables() for y in [x, *gens]):
        tpow = 0
    window = correspondence.window_products(tower, gens, deg, tpow)
    elems = [x * w for w in window] + list(window)
    half = len(window)
    for vec in dense(tower.linear_relations(elems), len(elems)):
        if any(vec[:half]) and not tower.combine(vec[:half], window).is_zero():
            return True
    return False


def _seeded_fractions(ext, inside, outside, seed, count):
    """Nonzero quotients of short random sums of words times t^j, |j| <= 1,
    each word drawn from `inside` or, one time in four, from `outside`;
    about half of the denominators are 1."""
    r = rng(seed)
    t = ext.var("t")

    def sum_of_words():
        acc = ext.zero()
        for _ in range(r.randint(1, 2)):
            w = r.choice(outside if r.random() < 0.25 else inside)
            w = w * t ** r.choice([0, 0, 1, -1])
            acc = acc + w.scale(GaussRat(rand_fraction(r, 3) or 1))
        return acc

    out = []
    while len(out) < count:
        num = sum_of_words()
        den = sum_of_words() if r.random() < 0.5 else ext.one()
        if not (num.is_zero() or den.is_zero()):
            out.append(num / den)
    return out


def _membership_cases(name, ext):
    """Generator families (repeats included) of one field, and words outside
    some of the generated subfields."""
    v = ext.var
    t = v("t")
    if name == "exp":
        e = v("e")
        return [[e**3], [e**3, e**3], [e * e * t]], [e, e**2]
    if name == "circle":
        s, c = v("s"), v("c")
        return [[c * c], [c * c, s * c], [s * c, s * c]], [c, s]
    if name == "constcoeff":
        e1, e2 = v("e1"), v("e2")
        return [[e1 * e2], [e1 * e1, e2], [e1 * e2, e1 * e2]], [e1, e2]
    g = v("g")
    return [[], [g * t], [g, g]], [g]


@pytest.mark.parametrize("name", ["exp", "circle", "constcoeff", "sqrt"])
def test_member_of_field_agrees_with_the_field_element_test(
    base, exp_pv, circle_pv, sqrt_pv, name
):
    pvs = {"exp": exp_pv, "circle": circle_pv, "sqrt": sqrt_pv}
    pv = pvs.get(name) or build_pv(
        base, LinearODE.from_texts(base, ["2", "-3"]), "CONSTCOEFF2"
    )
    ext = pv.extension
    families, outside = _membership_cases(name, ext)
    answers = []
    for k, gens in enumerate(families):
        inside = [ext.one(), *gens, *(g * h for g in gens for h in gens)]
        windows = {}  # shared by the queries over one family
        for x in _seeded_fractions(ext, inside, outside, seed=k, count=4):
            got = member_of_field(ext, x, gens, windows)
            assert got is _member_by_field_elements(ext, x, gens), (x, gens)
            # x in t over t-free generators: the window spreads over t-powers
            t_path = "t" in x.variables() and all("t" not in g.variables() for g in gens)
            answers.append((got, not x.den.is_constant(), t_path))
    assert {got for got, _, _ in answers} == {True, False}
    assert (True, True) in {(got, den) for got, den, _ in answers}
    assert any(t_path for _, _, t_path in answers)


# -- stabilizers and round trips -----------------------------------------------------


@pytest.mark.parametrize("group_name", ["exp_group", "circle_group"])
def test_member_of_field_ignores_repeated_generators(request, group_name):
    ext = request.getfixturevalue(group_name).pv.extension
    if group_name == "exp_group":
        e, t = ext.var("e"), ext.var("t")
        g, member, non_member = e**3, e**3 * t, e
    else:
        s, c = ext.var("s"), ext.var("c")
        g, member, non_member = c * c, s * s, s
    for x, expect in ((member, True), (non_member, False)):
        assert member_of_field(ext, x, [g]) is expect
        assert member_of_field(ext, x, [g, g]) is expect


def _member_by_kernel(tower, x, gens):
    """The former member_of_field, kept as a reference: one canonical
    kernel of the rows nf(a * W_k), nf(b * W_k) over the whole cleared
    window W, and True when some kernel vector's D part sum d_k W_k is
    nonzero."""
    x = tower.lift(x)
    deg, tpow = correspondence.DEFAULT_FIELD_BOUNDS
    degrees = correspondence._generator_degrees
    deg = max(deg, *degrees(tower, x.num), *degrees(tower, x.den))
    if tower.base_var and all(tower.base_var not in y.variables() for y in [x, *gens]):
        tpow = 0
    cleared = cleared_numerators(
        tower.rewrite, correspondence.window_products(tower, gens, deg, tpow)
    )
    nf = tower.rewrite.normal_form
    rows = [nf(x.num * w) for w in cleared]
    rows += cleared if x.den.is_constant() else [nf(x.den * w) for w in cleared]
    half = len(cleared)
    for vec in dense(relations([p.by_key for p in rows]), len(rows)):
        d = Poly.zero(tower.context)
        for c, w in zip(vec[:half], cleared):
            if c:
                d = d + w.scale(c)
        if not d.is_zero():
            return True
    return False


def _generator_word(r, tower, degree):
    """A random monomial of the given degree in the tower's generators."""
    names = tower.generator_names()
    word = tower.one()
    for _ in range(degree):
        word = word * tower.var(r.choice(names))
    return word


def test_member_of_field_agrees_with_the_kernel_reference(corpus_towers):
    """Seeded queries over every corpus tower: quotients of sums of words
    times t^j, over one or two random generator monomials of degree 2, each
    word a generator or, two times in five, a single generator outside
    them; each query is answered by the echelon test and by the reference."""
    r = rng(2600)
    assert len(corpus_towers) >= 12
    seen = {"queries": 0, "denominator": 0, "False": 0, "True": 0, "t": 0}
    for name in sorted(corpus_towers):
        tower = corpus_towers[name]
        t = tower.var(tower.base_var)

        def word(gens):
            w = _generator_word(r, tower, 1) if r.random() < 0.4 else r.choice(gens)
            scale = GaussRat(rand_fraction(r, 3) or 1)
            return w.scale(scale) * t ** r.choice([0, 0, 1, -1])

        for _ in range(2):
            gens = [_generator_word(r, tower, 2) for _ in range(r.randint(1, 2))]
            windows = {}  # shared by the queries over one family
            for _ in range(3):
                num = word(gens) + (word(gens) if r.random() < 0.5 else tower.zero())
                den = word(gens) if r.random() < 0.5 else tower.one()
                if num.is_zero():
                    continue
                x = num / den
                got = member_of_field(tower, x, gens, windows)
                assert got is _member_by_kernel(tower, x, gens), (name, x, gens)
                seen["queries"] += 1
                seen["denominator"] += not x.den.is_constant()
                seen[str(got)] += 1
                seen["t"] += "t" in x.variables()
    assert seen["queries"] >= 60, seen
    assert seen["denominator"] >= 20, seen
    assert seen["False"] >= 20 and seen["True"] >= 20, seen
    assert seen["t"] >= 10, seen


def test_contains_never_changes_the_cached_span(exp_group):
    """One field answers member, non-member, member, rational non-member
    through its one shared window as fresh calls do, and the stored basis
    and echelon stay as the first query left them."""
    ext = exp_group.pv.extension
    e, t = ext.var("e"), ext.var("t")
    F = IntermediateField(exp_group.pv, (e**3,))
    queries = [(e**3 * t, True), (e * t, False), ((e**3 + t) / e**3, True),
               ((e**3 + t) / e, False)]

    def state():
        [(basis, span)] = F.windows.values()
        return [str(w) for w in basis], {
            c: (dict(row), inv) for c, (row, inv, _) in span.pivots.items()
        }

    first = None
    for x, expect in queries:
        assert F.contains(x) is expect
        assert member_of_field(ext, x, F.generators) is expect
        first = first or state()
        assert state() == first


@pytest.mark.parametrize("name", ["constcoeff", "circle"])
def test_all_makes_no_kernel_call_for_membership(name, monkeypatch, capsys):
    """`all` computes two kernels, the constant scan's (`_scan_relations`,
    which reads it off the leading monomials here) and the fixed
    combinations' (in `galois`); field membership adds none."""
    calls = []

    def counted(*args, _orig=tower_module.relations):
        calls.append("relations")
        return _orig(*args)

    def scan(*args, _orig=DiffTower._scan_relations):
        calls.append("scan")
        return _orig(*args)

    for module in (tower_module, galois):
        monkeypatch.setattr(module, "relations", counted)
    monkeypatch.setattr(DiffTower, "_scan_relations", scan)
    assert cli.main(["all", str(ROOT / "scenarios" / f"{name}.json")]) == 0
    capsys.readouterr()
    assert calls == ["scan", "relations"]


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


def test_closure_reads_the_rate_at_the_largest_root_order(capsys, tmp_path, monkeypatch):
    """On EXP with MU_N(1000), (e^1000)' = 1000*e^1000 lies in K(e^1000)
    because its rate 1000 lies in K: no membership window is built, and the
    report is the one the window gives."""
    path = tmp_path / "exp_mu_max.json"
    path.write_text(json.dumps({
        "equation": {"class": "EXP", "coefficients": ["-1"]},
        "subgroup": {"kind": "MU_N", "order": correspondence.MAX_ROOT_ORDER},
    }))
    calls = []
    products = correspondence.window_products

    def counting(*args):
        calls.append(args)
        return products(*args)

    monkeypatch.setattr(correspondence, "window_products", counting)
    assert cli.main(["correspond", str(path), "--json"]) == 0
    exact = capsys.readouterr()
    assert calls == []
    _unread_rates(monkeypatch)
    assert cli.main(["correspond", str(path), "--json"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr() == exact


def test_fixed_field_builds_field_elements_for_its_combinations_only(base, monkeypatch):
    """On EXP with MU_N(1000) the window has 1001 monomials, read as keys:
    fixed_field builds field elements for the fixed combinations 1 and
    e^1000 and its checks on e^1000, not one per window monomial."""
    group = defining_equations(build_pv(base, LinearODE.from_texts(base, ["-1"]), "EXP"))
    desc = mu_n(correspondence.MAX_ROOT_ORDER)
    subgroup_of(group, desc).basis  # the subgroup's Groebner basis, outside the count
    built = []
    init = FieldElement.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    assert fixed_field(group, desc).describe() == "K(e^1000)"
    assert 0 < len(built) <= 10


def test_writes_cancels_the_common_monomial(exp_tower, sqrt_pv):
    e, t = exp_tower.var("e"), exp_tower.var("t")
    base = DiffTower(base_var="t")
    assert base.writes((e**3).derive() / e**3)
    assert base.writes((e * t) / (e * t**2))
    assert not base.writes((e + t) / e)
    ext = sqrt_pv.extension
    g = ext.var("g") * ext.var("t")
    assert sqrt_pv.base.writes(g.derive() / g)
    assert not sqrt_pv.base.writes(ext.var("g"))


def test_inclusion_reversal_exp(exp_group):
    chain = (TRIVIAL, mu_n(2), mu_n(6), FULL)
    rep = check_inclusion_reversal(exp_group, chain)
    assert rep.ok, rep.lines
    assert len(rep.lines) == 3


def test_inclusion_reversal_reuses_the_cached_bases(exp_pv, monkeypatch):
    group = defining_equations(exp_pv)
    chain = (TRIVIAL, mu_n(2), mu_n(6), FULL)
    for desc in chain:
        subgroup_of(group, desc).basis
    calls = {"buchberger": 0, "apply": 0}

    def counting(name, orig):
        def counted(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return counted

    monkeypatch.setattr(galois, "buchberger", counting("buchberger", galois.buchberger))
    for module in (galois, correspondence):
        monkeypatch.setattr(module, "apply", counting("apply", galois.apply))
    rep = check_inclusion_reversal(group, chain)
    assert calls == {"buchberger": 0, "apply": 0}
    assert [line.render() for line in rep.lines] == [
        "[PASS] TRIVIAL <= MU_N(2): fields K(e^2) <= K(e)",
        "[PASS] MU_N(2) <= MU_N(6): fields K(e^6) <= K(e^2)",
        "[PASS] MU_N(6) <= FULL: fields K <= K(e^6)",
    ]


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


@pytest.mark.parametrize("q", [1, 2, 8, 9, 12, 60])
def test_descriptor_of_reads_every_root_of_unity_order(exp_group, q):
    desc = TRIVIAL if q == 1 else mu_n(q)
    assert descriptor_of(exp_group, subgroup_of(exp_group, desc)) == desc


def test_descriptor_of_full_and_unnamed_subgroups_of_gl1(exp_group):
    assert descriptor_of(exp_group, subgroup_of(exp_group, FULL)) == FULL
    # X11^2 = X11 + 2 cuts out {-1, 2}, which is no group of roots of unity
    odd = exp_group.extended([parse_poly("X11^2 - X11 - 2", exp_group.context)])
    assert descriptor_of(exp_group, odd) is None


@pytest.mark.parametrize("order", [2, 3])
def test_descriptor_of_on_radical_groups_reads_the_gcd(radical_groups, order):
    group = radical_groups[order]
    assert descriptor_of(group, subgroup_of(group, FULL)) == mu_n(order)
    assert descriptor_of(group, subgroup_of(group, mu_n(6 * order))) == mu_n(order)
    assert descriptor_of(group, subgroup_of(group, mu_n(5))) == TRIVIAL


@pytest.mark.parametrize("q", [9, 12, 60])
def test_round_trips_exp_beyond_order_eight(exp_group, q):
    rep, F, sub = check_correspondence(exp_group, mu_n(q))
    assert rep.ok, [line.render() for line in rep.lines]
    assert F.describe() == f"K(e^{q})"


# -- normality ---------------------------------------------------------------------


def _lines(rep):
    return {line.name: line for line in rep.lines}


def test_mu2_normal_in_gl1(exp_group):
    rep = normality_check(exp_group, mu_n(2))
    assert rep.ok
    lines = _lines(rep)
    assert lines["conjugation stability"].status == "PASS"
    assert lines["quotient map lambda -> lambda^q lands in GL1"].status == "INFO"
    # the report ends with the quotient equation and its solutions
    assert [line.render() for line in rep.lines[-2:]] == [
        "[INFO] quotient equation: Y' + (-2)*Y = 0",
        "[INFO] quotient solutions: e^2",
    ]


def test_pm_identity_normal_in_so2(circle_group):
    rep = normality_check(circle_group, finite_list(PM_ONE))
    assert rep.ok
    lines = _lines(rep)
    assert lines["conjugation stability"].status == "PASS"
    assert lines["quotient equation"].detail == "Y'' + (4)*Y = 0"
    # c^2 - s^2 normalizes to 2c^2 - 1 modulo the circle relation
    assert lines["quotient solutions"].detail == "2*s*c, 2*c^2 - 1"
    ext = circle_group.pv.extension
    s, c = ext.var("s"), ext.var("c")
    ode = LinearODE.from_texts(circle_group.pv.base, ["4", "0"])
    for y in (ext.const(2) * s * c, c * c - s * s):
        assert ode.apply(y).is_zero()


@pytest.mark.parametrize("desc", [DIAGONAL, SO2], ids=["diagonal", "so2"])
def test_conjugation_stability_fails_in_a_gl2_like_group(circle_group, desc):
    gl2 = replace(circle_group, polys=())
    rep = normality_check(gl2, desc)
    assert not rep.ok
    assert rep.lines[0].render().startswith("[FAIL] conjugation stability:")


def test_normality_check_uses_no_group_element(circle_group, exp_group, monkeypatch):
    calls = []

    def counted(name, orig):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(MatrixGroup, "is_member", counted("is_member", MatrixGroup.is_member))
    for module in (galois, correspondence):
        monkeypatch.setattr(module, "apply", counted("apply", galois.apply))
    for group, descs in (
        (circle_group, (TRIVIAL, finite_list(PM_ONE), SO2, DIAGONAL, FULL)),
        (exp_group, (TRIVIAL, mu_n(2), mu_n(3), FULL)),
    ):
        for desc in descs:
            assert normality_check(group, desc).ok, desc.label()
    assert calls == []


@pytest.mark.parametrize(
    "phi",
    [
        lambda m: [[m[0][0] * m[0][0], -m[1][0]], [m[1][0], m[0][0] * m[0][0]]],
        lambda m: m,  # a homomorphism, but not trivial on -I
    ],
    ids=["not-multiplicative", "identity"],
)
def test_double_angle_line_fails_for_a_wrong_quotient_map(circle_group, monkeypatch, phi):
    monkeypatch.setattr(correspondence, "_double_angle", phi)
    rep = normality_check(circle_group, finite_list(PM_ONE))
    [line] = [l for l in rep.lines if l.name.startswith("double-angle map")]
    assert line.status == "FAIL"


def test_certify_field_completes_the_subgroup_ideal_once(circle_pv, monkeypatch):
    group = defining_equations(circle_pv)  # fresh: nothing completed yet
    desc = finite_list(PM_ONE)
    inputs = []

    def counted(polys, *args, _orig=galois.buchberger, **kwargs):
        inputs.append(list(polys))
        return _orig(polys, *args, **kwargs)

    monkeypatch.setattr(galois, "buchberger", counted)
    rep, F, _ = check_correspondence(group, desc)
    assert rep.ok and len(F.generators) == 2
    # calls whose generators, normalized as a subgroup's are, cut out desc
    want = subgroup_of(group, desc).polys
    assert sum(group.extended(polys).polys == want for polys in inputs) == 1


def _mutual_reduction(a, b, ctx):
    """Each set reduces to zero modulo the other's Groebner basis."""
    return reduces_to_zero(a, b, ctx) and reduces_to_zero(b, a, ctx)


@pytest.mark.parametrize("group_name", ["circle_group", "exp_group"])
def test_same_zero_set_agrees_with_mutual_reduction(request, group_name):
    group = request.getfixturevalue(group_name)
    polys = []
    for desc in SHAPES[group.size]:
        try:
            polys.append(descriptor_polys(group, desc))
        except Unsupported:
            pass
    assert len(polys) >= 5
    seen = set()
    for a in polys:
        for b in polys:
            # equal reduced bases, the test descriptor_of uses
            got = buchberger(a, group.context) == buchberger(b, group.context)
            assert got == _mutual_reduction(a, b, group.context)
            seen.add(got)
    assert seen == {True, False}


# -- weak normality -----------------------------------------------------------------


@pytest.fixture(scope="module")
def weak_normality():
    """The demo's lines for q = 3 and for the control q = 2, and its data."""
    rep = weak_normality_demo()
    assert rep.ok, [line.render() for line in rep.lines]
    lines = [line.render() for line in rep.lines]
    control = lines.index("[INFO] control case: q = 2, where a real member does move e")
    return lines[:control], lines[control + 1 :], rep.data


def test_weak_normality_q3(weak_normality):
    odd, _, data = weak_normality
    assert data == {"q3_real_members": 1, "q3_complex_members": 3}
    assert odd[0] == (
        "[INFO] subgroup sizes: 1 real member(s) vs 3 over the complexified constants"
    )
    assert odd[1].startswith("[PASS] intermediate field K(e^3) is PV over K")
    assert odd[2].startswith("[PASS] generator e lies outside the intermediate field")
    assert odd[3:5] == [
        "[PASS] real members of MU_N(3): [1]",
        "[PASS] complexified member count equals q: "
        "X^3 - 1 has 3 roots over the complexified constants",
    ]
    assert odd[5].startswith("[PASS] no real subgroup member moves e")


def test_weak_normality_q2_control(weak_normality):
    _, even, _ = weak_normality
    assert even[2:] == [
        "[PASS] real members of MU_N(2): [1, -1]",
        "[PASS] complexified member count equals q: "
        "X^2 - 1 has 2 roots over the complexified constants",
        "[PASS] a real member moves e",
    ]


def test_weak_normality_pv_line_fails_when_the_power_solves_another_equation(base):
    # over e' = 2e the power e^3 solves Y' = 6Y, not the Y' = 3Y of q = 3
    pv = build_pv(base, LinearODE.from_texts(base, ["-2"]), "EXP")
    rep, _, _ = correspondence._weak_normality(defining_equations(pv), 3)
    line = rep.lines[0]
    assert line.name == "intermediate field K(e^3) is PV over K"
    assert line.status == "FAIL"


def test_weak_normality_member_lines_read_the_subgroup_ideal(monkeypatch):
    # with all of GL1 in place of the roots of unity, -1 is a real member
    # for q = 3 and the ideal has no polynomial to count roots of
    monkeypatch.setattr(correspondence, "subgroup_of", lambda group, desc: group)
    status = {}
    for line in weak_normality_demo().lines:
        status.setdefault(line.name, line.status)
    assert status["real members of MU_N(3)"] == "FAIL"
    assert status["complexified member count equals q"] == "FAIL"
