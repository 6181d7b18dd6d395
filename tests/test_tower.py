"""Differential towers: derivation, conjugation, scans, substitution."""

from fractions import Fraction

import pytest
import sympy

import realpv.tower
from realpv import (
    Context, DiffTower, FieldElement, GaussRat, LinearODE, Monomial, Poly, build_pv, parse_poly
)
from realpv.errors import ContextError, IncompatibleDerivation
from realpv.linsolve import kernel, relations
from realpv.rewrite import RewriteSystem
from realpv.seidenberg import build_seidenberg

from helpers import (
    bench_algebra, dense, eager_scan_columns, enumerated_monomials, leibniz_derive, rand_element,
    rand_monomial, rand_poly, reduced_scan_columns, rng,
)


@pytest.fixture(scope="module")
def circle(base):
    return base.adjoin_abstract(["c", "s"], ["-s", "c"], ["s^2+c^2-1"])


def test_base_derivative(base):
    t = base.var("t")
    assert t.derive() == base.one()
    assert (t * t).derive() == base.const(2) * t


def test_circle_derivation_rules(circle):
    s, c = circle.var("s"), circle.var("c")
    assert s.derive() == c
    assert c.derive() == -s
    assert (s * s + c * c).derive().is_zero()
    assert (s * s + c * c) == circle.one()


def test_relation_reduction(circle):
    # (1 - c^2)/s is just s
    x = circle.parse("(1 - c^2)/s")
    assert x == circle.var("s")


def test_incompatible_relation_rejected(base):
    # a relation whose derivative is not in the ideal must be refused
    with pytest.raises(IncompatibleDerivation):
        base.adjoin_abstract(["u"], ["1"], ["u^2 - 1"])


def test_leibniz_randomized(circle):
    r = rng(31)
    for _ in range(80):
        x = rand_element(r, circle)
        y = rand_element(r, circle)
        assert (x * y).derive() == x.derive() * y + x * y.derive()
        assert (x + y).derive() == x.derive() + y.derive()


def test_quotient_rule_randomized(circle):
    r = rng(32)
    for _ in range(40):
        x = rand_element(r, circle)
        y = rand_element(r, circle)
        if y.is_zero():
            continue
        q = x / y
        assert q.derive() == (x.derive() * y - x * y.derive()) / (y * y)


def test_field_element_equality_cross_multiplication(circle):
    s = circle.var("s")
    c = circle.var("c")
    one = circle.one()
    # s/(1-c) == (1+c)/s  since s^2 = 1 - c^2
    assert s / (one - c) == (one + c) / s


def test_as_scalar(circle):
    s = circle.var("s")
    assert ((s + s) / s).as_scalar() == GaussRat.of(2)
    assert s.as_scalar() is None
    assert circle.zero().as_scalar() == GaussRat.of(0)


def _conj(x):
    """Conjugation of K(i), on the coefficients of numerator and denominator."""
    return x.tower.elem(x.num.conj(), x.den.conj())


def test_conj_involution_randomized(circle):
    r = rng(33)
    for _ in range(60):
        x = rand_element(r, circle)
        assert _conj(_conj(x)) == x


def test_derivation_commutes_with_conjugation(circle):
    r = rng(34)
    for _ in range(60):
        x = rand_element(r, circle)
        assert _conj(x.derive()) == _conj(x).derive()


def test_eval_poly_substitution(circle):
    # substitution is a ring morphism
    s, c = circle.var("s"), circle.var("c")
    p = circle.parse("s^2 + 2*c").num
    image = circle.eval_poly(p, {"s": c, "c": s})
    assert image == c * c + circle.const(2) * s


def test_eval_poly_maps_foreign_variables_and_refuses_unmapped_ones(circle):
    z_ctx = Context(["t", "Z1", "Z2"])
    p = parse_poly("Z1^2 + Z2^2 - t", z_ctx)
    s, c, t = circle.var("s"), circle.var("c"), circle.var("t")
    assert circle.eval_poly(p, {"Z1": s, "Z2": c}) == circle.one() - t
    with pytest.raises(ContextError):
        circle.eval_poly(p, {"Z1": s})


def test_constant_scan_circle_empty(circle):
    assert circle.constant_scan(2, 0) == []
    assert circle.constant_scan(4, 3) == []


def test_constant_scan_abstract_pair_oracle():
    """The scan on freely adjoined oscillator pairs, against sympy.

    The derivation on Q[y1, z1, y2, z2] is the vector field
    z1*d/dy1 - y1*d/dz1 + z2*d/dy2 - y2*d/dz2; kernels of its action on
    the quadratic window must match between implementations.
    """
    base = DiffTower(base_var=None)
    ext = base.adjoin_abstract(["y1", "z1", "y2", "z2"], ["z1", "-y1", "z2", "-y2"])
    found = ext.constant_scan(2, 0)
    assert len(found) == 4

    y1, z1, y2, z2 = sympy.symbols("y1 z1 y2 z2")
    syms = [y1, z1, y2, z2]
    rates = {y1: z1, z1: -y1, y2: z2, z2: -y2}

    def d(expr):
        return sum(sympy.diff(expr, v) * rates[v] for v in syms)

    window, _ = ext.scan_basis(2, 0)
    window_sp = []
    for w in window:
        expr = sympy.Integer(0)
        for m, coeff in w.num.terms.items():
            term = sympy.Rational(coeff.re)
            for v, e in m.exponents().items():
                term *= sympy.Symbol(v) ** e
            expr += term
        window_sp.append(sympy.expand(expr))

    # monomial coefficient matrix of the derivative map
    monoms = sorted(
        {m for e in window_sp for m in sympy.Poly(d(e), syms).monoms()}
    )
    rows = []
    for e in window_sp:
        poly = sympy.Poly(d(e), syms)
        rows.append([poly.coeff_monomial(m) for m in monoms])
    m_sp = sympy.Matrix(rows).T
    null_dim = m_sp.cols - m_sp.rank()
    # the scan drops the constant direction itself
    assert len(found) == null_dim - 1
    for x in found:
        assert x.derive().is_zero()
        assert x.as_scalar() is None


def test_with_params_rank_below_base(base):
    tw = base.with_params(["X11"])
    assert tw.context.rank("X11") < tw.context.rank("t")
    x = tw.var("X11")
    assert x.derive().is_zero()


def test_adjoin_exponential(base):
    ext = base.adjoin_exponential("e", base.one())
    e = ext.var("e")
    assert e.derive() == e
    assert (e**3).derive() == ext.const(3) * e**3


def test_merge_requires_same_signature(base, circle):
    t = base.var("t")
    s = circle.var("s")
    # mixing towers without an explicit lift is an error, lifting fixes it
    with pytest.raises(ContextError):
        t + s
    total = circle.lift(t) + s
    assert total.tower.signature() == circle.signature()
    assert str(total) == "s + t"


def test_towers_with_different_derivations_do_not_mix(base):
    # K(e) with e' = e and K(e) with e' = 2e share a context and a rewrite
    # system, yet they are different differential fields
    e1 = base.adjoin_exponential("e", base.one()).var("e")
    e2 = base.adjoin_exponential("e", base.const(2)).var("e")
    with pytest.raises(ContextError):
        (e1 + e2.tower.zero()).derive()
    with pytest.raises(ContextError):
        e1 == e2


def test_irreducible_monomials(circle):
    mons = circle.irreducible_monomials(2)
    rendered = sorted(circle.context.render(m) for m in mons)
    # s^2 is reducible via the relation, t powers are included
    assert "s^2" not in rendered
    assert "s*c" in rendered
    assert "1" in rendered


def test_laurent_window(base):
    elems, trivial = base.scan_basis(2, 2)
    strs = [str(x) for x in elems]
    assert "(1)/(t^2)" in strs or any("t^2" in s and "/" in s for s in strs)
    assert strs[trivial] == "1" or "(1)/(1)" == strs[trivial]


def test_lift_returns_own_elements_and_rereads_base_ones(base, circle):
    x = circle.parse("s/t + c")
    assert circle.lift(x) is x
    y = base.parse("1/(t^2+1)")
    lifted = circle.lift(y)
    assert lifted is not y
    assert lifted.tower == circle
    assert lifted.num.context == circle.context == lifted.den.context
    assert lifted + circle.var("s") == circle.parse("1/(t^2+1) + s")


@pytest.fixture(scope="module")
def scan_towers(base, circle_pv, sqrt_pv, exp_pv):
    t2p1 = build_pv(
        base,
        LinearODE.from_texts(base, ["-t/(t^2+1)"]),
        "RADICAL",
        radical_base=base.parse("t^2+1"),
    )
    constcoeff = build_pv(base, LinearODE.from_texts(base, ["2", "-3"]), "CONSTCOEFF2")
    # roots 1 +- i: the pairs of c*e^k and s*e^k have one leading monomial
    constcoeff_complex = build_pv(
        base, LinearODE.from_texts(base, ["2", "-2"]), "CONSTCOEFF2"
    )
    seidenberg = build_seidenberg()
    # g^2 = t^3 is oriented as the rule t^3 -> g^2: t is on its left side
    radical_t3 = base.adjoin_algebraic("g", "g^2 - t^3", "3*g/(2*t)")
    rules = radical_t3.rewrite.rules
    assert [radical_t3.context.unpack(r.lhs) for r in rules] == [Monomial.var("t", 3)]
    # K(g, e) with e' = -3e/(2t) over it: g*e is a new constant
    radical_t3_exp = radical_t3.adjoin_exponential("e", radical_t3.parse("-3/(2*t)"))
    return {
        "circle": circle_pv.extension,
        "sqrt": sqrt_pv.extension,
        "radical_t2p1": t2p1.extension,
        "exp": exp_pv.extension,
        "constcoeff": constcoeff.extension,
        "constcoeff_complex": constcoeff_complex.extension,
        "seidenberg": seidenberg,
        # the Seidenberg demo's extension, whose window holds new constants
        "seidenberg_circle": seidenberg.adjoin_abstract(
            ["c", "s"], ["-2*s", "2*c"], ["s^2+c^2-1"]
        ),
        "radical_t3": radical_t3,
        "radical_t3_exp": radical_t3_exp,
        # g' = h' = 1: g - t and h - t are constants, and the scan's
        # dependent columns are not zero
        "gh": base.adjoin_abstract(["g", "h"], ["1", "1"]),
    }


_r = rng(41)
# default and wide scan bounds, then seeded random ones
SCAN_BOUNDS = [(4, 3), (6, 5)] + [(_r.randint(0, 4), _r.randint(1, 5)) for _ in range(2)]


SCAN_TOWER_NAMES = [
    "circle", "sqrt", "radical_t2p1", "exp", "constcoeff", "constcoeff_complex",
    "seidenberg", "seidenberg_circle", "radical_t3", "radical_t3_exp", "gh",
]


@pytest.mark.parametrize("bounds", SCAN_BOUNDS, ids=str)
@pytest.mark.parametrize("name", SCAN_TOWER_NAMES)
def test_scan_derivatives_match_derive(scan_towers, monkeypatch, name, bounds):
    """The derivatives the scan clears and normal-forms have the relations
    of the window elements' derivatives, each computed by the Leibniz-chain
    reference: the basis constant_scan solves for is the reference one."""
    tower = scan_towers[name]
    basis, _ = tower.scan_basis(*bounds)
    expected = tower.linear_relations([leibniz_derive(tower, b) for b in basis])
    kernels = []

    def recording(self, *args, _orig=DiffTower._scan_relations):
        kernels.append(_orig(self, *args))
        return kernels[-1]

    monkeypatch.setattr(DiffTower, "_scan_relations", recording)
    tower.constant_scan(*bounds)
    assert kernels == [expected]


def _leads_distinct(columns) -> bool:
    """Whether the nonzero columns' leading monomials are pairwise distinct."""
    leads = [max(col) for col in columns if col]
    return len(set(leads)) == len(leads)


def _t_rule(tower) -> bool:
    """Whether a rule's leading monomial has the base variable t."""
    t = tower.base_var
    return bool(t) and any(tower.context.degree_in(r.lhs, t) for r in tower.rewrite.rules)


def _eliminates(tower, window, eager) -> bool:
    """Whether the scan calls `relations` on the eager columns.  Always
    where a rule's leading monomial has t.  Otherwise when two nonzero
    leads of the reduced columns (`reduced_scan_columns`) meet, or a
    reduced column is zero and its eager column is not."""
    if _t_rule(tower):
        return True
    reduced = reduced_scan_columns(window, eager)
    return not _leads_distinct(reduced) or any(e and not r for r, e in zip(reduced, eager))


def _counting(monkeypatch, name):
    """Replace `realpv.tower`'s `name` by a wrapper; returns its call list."""
    calls = []
    orig = getattr(realpv.tower, name)

    def counting(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(realpv.tower, name, counting)
    return calls


@pytest.mark.parametrize("bounds", SCAN_BOUNDS, ids=str)
@pytest.mark.parametrize("name", SCAN_TOWER_NAMES)
def test_lazy_scan_columns_match_the_eager_writer(scan_towers, monkeypatch, name, bounds):
    """The constant scan's basis is the `relations` basis of the columns
    the eager reference writes, and it eliminates (calls `relations`)
    exactly as `_eliminates` says.  Where a rule's leading monomial has t,
    the one `relations` call gives the unit vectors of the zero columns
    when the columns' nonzero leading monomials are pairwise distinct;
    elsewhere it is never made then."""
    tower = scan_towers[name]
    window = tower._window(*bounds)
    eliminated = _counting(monkeypatch, "relations")
    eager = eager_scan_columns(tower, window, bounds[1])
    assert tower._scan_relations(window, bounds[1]) == relations(eager)
    assert len(eliminated) == _eliminates(tower, window, eager), len(eliminated)
    if not _leads_distinct(eager):
        return
    if _t_rule(tower):
        units = [{k: GaussRat.of(1)} for k, col in enumerate(eager) if not col]
        assert relations(eager) == units
    else:
        assert not eliminated


@pytest.mark.parametrize("bounds", [(4, 3), (6, 5)], ids=str)
def test_scan_builds_columns_only_where_leads_collide(corpus_towers, monkeypatch, bounds):
    """The columns built and the `relations` calls of each corpus scan.
    Only radical_t2p1's reduced leads meet: its scan builds one column to
    read a lead where the two leads of a pair cancel, then every column,
    and eliminates them once.  The eager leads of constcoeff_complex meet
    too (c*e^k against s*e^k), and its reduced pairs part them: its scan
    builds no column and calls no `relations`, like every other."""
    built = _counting(monkeypatch, "_column")
    eliminated = _counting(monkeypatch, "relations")
    counts = {}
    for path, tower in sorted(corpus_towers.items()):
        built.clear()
        eliminated.clear()
        tower.constant_scan(*bounds)
        counts[path] = len(built), len(eliminated)
    radical = "bench/scenarios/radical_t2p1.json"
    expected = {path: (0, 0) for path in corpus_towers}
    expected[radical] = len(corpus_towers[radical]._window(*bounds)) + 1, 1
    assert counts == expected
    complex_roots = corpus_towers["bench/scenarios/constcoeff_complex.json"]
    window = complex_roots._window(*bounds)
    assert not _leads_distinct(eager_scan_columns(complex_roots, window, bounds[1]))


@pytest.mark.parametrize("bounds", [(1, 1), (2, 2), (4, 3)], ids=str)
def test_scan_falls_back_where_a_dependent_column_is_not_zero(
    base, scan_towers, monkeypatch, bounds
):
    """Where a dependent column is not zero, its relation is no unit
    vector: the scan eliminates the eager columns, one `relations` call,
    and gives their basis.  On K(g, h) with g' = h' = 1, g - t and h - t
    are constants.  With g' = h' = 1/t, and with g' = h' = 1 and no base
    variable, g - h is, and no lead meets: there only the zero reduced
    column of h, whose eager column is not zero, shows the dependence."""
    towers = [
        scan_towers["gh"],
        base.adjoin_abstract(["g", "h"], ["1/t", "1/t"]),
        DiffTower(base_var=None).adjoin_abstract(["g", "h"], ["1", "1"]),
    ]
    eliminated = _counting(monkeypatch, "relations")
    for tower in towers:
        window = tower._window(*bounds)
        eager = eager_scan_columns(tower, window, bounds[1])
        eliminated.clear()
        got = tower._scan_relations(window, bounds[1])
        assert got == relations(eager), tower
        assert len(eliminated) == 1, tower
        # a canonical vector's largest key is its dependent column
        dependent = [max(vec) for vec in got]
        assert any(eager[k] for k in dependent), tower


@pytest.mark.parametrize("name", SCAN_TOWER_NAMES)
def test_irreducible_monomials_match_the_enumeration(scan_towers, name):
    """The window keys, built as keys, are the former enumeration's."""
    tower = scan_towers[name]
    for degree in range(7):
        assert tower.irreducible_monomials(degree) == enumerated_monomials(tower, degree)


@pytest.mark.parametrize("bounds", [(2, 0), (4, 3), (6, 5)], ids=str)
def test_constant_scan_finds_the_constant_of_a_t_rule_tower(scan_towers, bounds):
    """With the rule t^3 -> g^2, shifting a column by a power of t can make
    it reducible; the scan still finds the new constant g*e."""
    tower = scan_towers["radical_t3_exp"]
    found = tower.constant_scan(*bounds)
    assert str(found[0]) == "e*g"
    assert all(x.derive().is_zero() and x.as_scalar() is None for x in found)


@pytest.mark.parametrize("bounds", [(4, 3), (6, 5)], ids=str)
def test_constant_scan_reports_each_constant_once(scan_towers, bounds):
    """The window writes e*g also as e*g^3/g^2; the scan keeps one of them,
    so its constants and 1 are independent over the scalars."""
    tower = scan_towers["radical_t3_exp"]
    found = tower.constant_scan(*bounds)
    assert not any(x == y for i, x in enumerate(found) for y in found[:i])
    assert tower.linear_relations(found + [tower.one()]) == []


def test_constant_scan_normal_forms_per_monomial_not_per_window_element(
    scan_towers, monkeypatch
):
    """The scan normal-forms T_m for each generator monomial m, and m * E
    too unless the common denominator E is a constant (1 on the circle,
    t on sqrt), and writes each window element's column from them with
    no normal form."""
    calls = []
    normal_form = RewriteSystem.normal_form

    def counting(self, p):
        calls.append(p)
        return normal_form(self, p)

    monkeypatch.setattr(RewriteSystem, "normal_form", counting)
    for name, per_monomial in [("circle", 1), ("sqrt", 2)]:
        tower = scan_towers[name]
        assert tower.common_denominator.is_constant() == (per_monomial == 1)
        calls.clear()
        assert tower.constant_scan(6, 5) == []
        monomials = tower.irreducible_monomials(6)
        window = len(monomials) * len(range(-5, 6))
        # per generator monomial, and two for the zero that the kernel
        # vector of the scalar 1 combines to
        assert len(calls) == per_monomial * len(monomials) + 2 < window, name


def test_square_builds_no_one(circle, monkeypatch):
    """x ** 2 is one product x * x: one element and its two normal forms,
    with no element 1 built for the n = 0 case it does not reach."""
    built, normal_forms = [], []
    init, normal_form = FieldElement.__init__, RewriteSystem.normal_form

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_nf(self, p):
        normal_forms.append(p)
        return normal_form(self, p)

    x = circle.parse("(c+t)/(s+2)")
    monkeypatch.setattr(FieldElement, "__init__", counting_init)
    monkeypatch.setattr(RewriteSystem, "normal_form", counting_nf)
    square = x**2
    assert (len(built), len(normal_forms)) == (1, 2)
    monkeypatch.undo()
    assert square == x * x
    assert x**0 == circle.one()


def _pairwise_cleared_kernel(system, elems):
    """The kernel with each numerator times every other distinct denominator."""
    dens = list(dict.fromkeys(e.den for e in elems))
    by_monomial = {}
    for k, e in enumerate(elems):
        prod = e.num
        for d in dens:
            if d != e.den:
                prod = prod * d
        for m, c in system.normal_form(prod).by_key.items():
            by_monomial.setdefault(m, {})[k] = c
    rows = [by_monomial[m] for m in sorted(by_monomial, key=system.context.key)]
    return kernel(len(elems), rows)


def test_linear_relations_clear_by_the_lcm(circle, monkeypatch):
    texts = [
        "1", "1/t", "1/t^3", "t/(t^2+1)", "1/(t^3*(t^2+1))", "1/(t^2+1)",
        "t^2/(t^2+1)", "s^2/t^2", "c^2/t^2", "1/t^2", "s*c/(t^3*(t^2+1))",
    ]
    elems = [circle.parse(x) for x in texts]
    old = _pairwise_cleared_kernel(circle.rewrite, elems)

    cleared = []
    normal_form = RewriteSystem.normal_form

    def recording(self, p):
        cleared.append(p)
        return normal_form(self, p)

    monkeypatch.setattr(RewriteSystem, "normal_form", recording)
    new = circle.linear_relations(elems)
    monkeypatch.undo()

    assert new == old
    # 1/(t^3 (t^2+1)) = 1/t^3 - 1/t + t/(t^2+1), 1/(t^2+1) + t^2/(t^2+1) = 1
    # and s^2/t^2 + c^2/t^2 = 1/t^2
    assert len(new) == 3
    for vec in dense(new, len(elems)):
        assert circle.combine(vec, elems).is_zero()

    t = sympy.Symbol("t")
    lcm = sympy.lcm_list([sympy.sympify(str(e.den).replace("^", "**")) for e in elems])
    lcm_degree = sympy.degree(lcm, t)
    assert lcm_degree == 5
    assert len(cleared) == len(elems)
    for e, row in zip(elems, cleared):
        assert row.degree_in("t") <= e.num.degree_in("t") + lcm_degree
    # the pairwise product overshoots that bound
    pairwise = sum(d.degree_in("t") for d in dict.fromkeys(e.den for e in elems))
    assert pairwise > lcm_degree


# -- the cleared derivation -------------------------------------------------------


def _bench_towers():
    """The four towers of the benchmark's `algebra` workload."""
    return bench_algebra().towers()


def _agrees_with_the_reference(tower, r, count=4):
    """derive and the Leibniz-chain reference on seeded elements of the
    tower, with denominators and without; returns how many had one."""
    with_den = 0
    for _ in range(count):
        x = rand_element(r, tower)
        p = tower.elem(rand_poly(r, tower.context, complex_ok=False))
        for y in (x, p):
            assert y.derive() == leibniz_derive(tower, y), (tower, y)
            with_den += not y.den.is_constant()
    return with_den


def test_derive_agrees_with_the_reference_on_the_corpus(corpus_towers):
    r = rng(2800)
    assert len(corpus_towers) >= 12
    with_den = [_agrees_with_the_reference(corpus_towers[n], r) for n in sorted(corpus_towers)]
    assert sum(with_den)


@pytest.mark.parametrize("name", ["circle", "radical", "exponential", "seidenberg"])
def test_derive_agrees_with_the_reference_on_the_bench_towers(name):
    assert _agrees_with_the_reference(_bench_towers()[name], rng(2801), count=8)


@pytest.mark.parametrize(
    "name",
    [
        "circle", "sqrt", "radical_t2p1", "exp", "constcoeff", "seidenberg",
        "seidenberg_circle", "radical_t3", "radical_t3_exp",
    ],
)
def test_derive_agrees_with_the_reference_on_the_scan_towers(scan_towers, name):
    # the Seidenberg towers have no base variable
    assert _agrees_with_the_reference(scan_towers[name], rng(2802), count=8)


def test_derive_agrees_with_the_reference_with_parameters(scan_towers):
    # parameters differentiate to zero; the rate -3/(2t) gives E = t
    tower = scan_towers["radical_t3_exp"].with_params(["X11", "X12"])
    assert _agrees_with_the_reference(tower, rng(2803), count=8)
    x = tower.parse("X11*e/t + X12")
    assert x.derive() == tower.parse("X11*(-5/2)*e/t^2")


@pytest.mark.parametrize("name", ["circle", "radical_t3_exp", "seidenberg", "radical_t2p1"])
def test_derive_builds_one_field_element(scan_towers, monkeypatch, name):
    """One derive builds one element: the derivative, with no element in
    between.  An element of a smaller tower is re-read first, one more."""
    tower = scan_towers[name]
    r = rng(2805)
    xs = [rand_element(r, tower) for _ in range(6)]
    xs += [tower.elem(rand_poly(r, tower.context, complex_ok=False)) for _ in range(6)]
    built = []
    init = FieldElement.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    for x in xs:
        built.clear()
        x.derive()
        assert len(built) <= 1, x
    if tower.base_var:
        below = DiffTower(base_var=tower.base_var).parse("1/(t^2+1)")
        built.clear()
        tower.derive(below)
        assert len(built) <= 2


@pytest.mark.parametrize("name", ["circle", "radical_t3_exp", "seidenberg", "radical_t2p1"])
def test_derive_normal_forms(scan_towers, monkeypatch, name):
    """derive of n/d is rung 1 of its ladder: the numerator's and the
    denominator's normal forms only, also when d is not 1 (P_d is summed
    into the numerator before its one normal form)."""
    tower = scan_towers[name]
    r = rng(2805)
    xs = [rand_element(r, tower) for _ in range(6)]
    xs += [tower.elem(rand_poly(r, tower.context, complex_ok=False)) for _ in range(6)]
    assert {x.den.is_constant() for x in xs} == {True, False}
    calls = []
    normal_form = RewriteSystem.normal_form

    def counting(self, p):
        calls.append(p)
        return normal_form(self, p)

    monkeypatch.setattr(RewriteSystem, "normal_form", counting)
    for x in xs:
        calls.clear()
        x.derive()
        assert len(calls) == 2, x


def test_derivatives_share_one_denominator():
    """g' = g/(3t) clears to E = t: the derivative of g/(g+1) is written
    over t*(g+1)^2, not over t^2*(g+1)^2 as the Leibniz chain wrote it."""
    tower = _bench_towers()["radical"]
    x = tower.parse("g/(g+1)")
    dx = x.derive()
    assert dx == leibniz_derive(tower, x)
    assert dx.den == tower.parse("t*(g+1)^2").num.monic()
    assert leibniz_derive(tower, x).den.degree_in("t") == 2


# the analytic functions the generators of three towers stand for
_MODELS = {
    "circle": lambda t: {"c": sympy.cos(t), "s": sympy.sin(t)},
    "radical": lambda t: {"g": t ** sympy.Rational(1, 3)},
    "exponential": lambda t: {"e": sympy.exp(t**2 / 2)},
}


def _sympy_of(x, model):
    def poly(p):
        out = sympy.Integer(0)
        for m, c in p.terms.items():
            term = sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)
            for v, e in m.exponents().items():
                term *= model[v] ** e
            out += term
        return out

    return poly(x.num) / poly(x.den)


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_derive_agrees_with_sympy_on_the_models(name):
    """sympy differentiates the model of each seeded element; both sides
    agree to 40 digits at two rational points."""
    tower = _bench_towers()[name]
    t = sympy.Symbol("t")
    model = {"t": t, **_MODELS[name](t)}
    r = rng(2806)
    for _ in range(6):
        x = rand_element(r, tower)
        gap = _sympy_of(x.derive(), model) - sympy.diff(_sympy_of(x, model), t)
        for point in ("7391/10000", "13177/10000"):
            value = gap.evalf(60, subs={t: sympy.Rational(point)})
            assert abs(complex(value)) < 1e-40, (x, point)


def test_the_rate_of_an_exponential_restricts_to_the_base(base):
    """On e' = t*e the rate e'/e is stored as (e*t)/(e), which in lowest
    monomial terms is t: `writes` puts it in the base and `restrict` reads
    it there."""
    ext = build_pv(base, LinearODE.from_texts(base, ["-t"]), "EXP").extension
    e = ext.var("e")
    rate = e.derive() / e
    assert str(rate) == "(e*t)/(e)"
    assert base.writes(rate)
    assert str(base.restrict(rate)) == "t"


@pytest.mark.parametrize(
    "eq_class, coefficients", [("EXP", ["-t"]), ("CONSTCOEFF2", ["2", "-3"])]
)
def test_a_common_monomial_cancels_into_the_base(base, eq_class, coefficients):
    """p*m/(q*m), for a random base element b = p/q and a random monomial m
    in the generators and t, is written in the base and restricts to b; a
    nonzero b times a generator is not written in the base."""
    ext = build_pv(base, LinearODE.from_texts(base, coefficients), eq_class).extension
    r = rng(7)
    for _ in range(40):
        b = rand_element(r, base)
        wide = ext.lift(b)
        m = Poly(ext.context, {rand_monomial(r, ext.context): 1})
        x = FieldElement(wide.num * m, wide.den * m, ext)
        assert base.writes(x), (b, x)
        assert base.restrict(x) == b, (b, x)
        if not b.is_zero():
            assert not any(base.writes(wide * ext.var(g)) for g in ext.generator_names())
