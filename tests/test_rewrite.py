"""Completion and normal forms: worked examples plus confluence shuffles."""

from fractions import Fraction
from unittest.mock import patch

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from realpv import Context, GaussRat, Monomial, Poly, buchberger, parse_poly, rewrite
from realpv.errors import BudgetExceeded
from realpv.poly import mono_div, mono_divides, mono_mul
from realpv.seidenberg import build_seidenberg

from helpers import rand_fraction, rand_poly, rng


def test_linear_chain_completion():
    ctx = Context(["z", "y", "x"])
    system = buchberger(
        [parse_poly("x - y", ctx), parse_poly("y - z", ctx)], ctx
    )
    rendered = sorted(str(r.as_poly()) for r in system.rules)
    assert rendered == ["x - z", "y - z"]
    assert system.is_zero_mod(parse_poly("x - z", ctx))


def test_circle_relation_rule():
    ctx = Context(["t", "c", "s"])
    system = buchberger([parse_poly("s^2 + c^2 - 1", ctx)], ctx)
    assert len(system.rules) == 1
    rule = system.rules[0]
    assert ctx.unpack(rule.lhs).exponents() == {"s": 2}
    assert str(rule.rhs) == "-c^2 + 1"
    nf = system.normal_form(parse_poly("s^3", ctx))
    assert str(nf) == "-s*c^2 + s"


def test_radical_relation_rule():
    ctx = Context(["t", "g"])
    system = buchberger([parse_poly("g^2 - t", ctx)], ctx)
    assert system.normal_form(parse_poly("g^4", ctx)) == parse_poly("t^2", ctx)
    assert system.is_zero_mod(parse_poly("g^6 - t^3", ctx))


def test_normal_form_idempotent_randomized():
    ctx = Context(["t", "c", "s"])
    system = buchberger([parse_poly("s^2 + c^2 - 1", ctx)], ctx)
    r = rng(3)
    for _ in range(100):
        p = rand_poly(r, ctx)
        nf = system.normal_form(p)
        assert system.normal_form(nf) == nf


def test_confluence_shuffle_randomized():
    # normal form is a ring morphism modulo the ideal: reducing before or
    # after multiplication must agree
    ctx = Context(["t", "c", "s"])
    system = buchberger([parse_poly("s^2 + c^2 - 1", ctx)], ctx)
    r = rng(4)
    for _ in range(100):
        a = rand_poly(r, ctx, max_terms=3)
        b = rand_poly(r, ctx, max_terms=3)
        lhs = system.normal_form(a * b)
        rhs = system.normal_form(system.normal_form(a) * system.normal_form(b))
        assert lhs == rhs


def test_ideal_membership_two_generators():
    ctx = Context(["z", "y", "x"])
    gens = [parse_poly("x^2 - y", ctx), parse_poly("y^2 - z", ctx)]
    system = buchberger(gens, ctx)
    assert system.is_zero_mod(parse_poly("x^4 - z", ctx))
    assert not system.is_zero_mod(parse_poly("x - z", ctx))


def test_budget_guard(monkeypatch):
    # a tiny budget must trip deterministically on a system that needs pairs
    monkeypatch.setattr(rewrite, "DEFAULT_BUDGET", 1)
    ctx = Context(["z", "y", "x"])
    gens = [
        parse_poly("x^2*y - z", ctx),
        parse_poly("x*y^2 - y", ctx),
        parse_poly("y^3 - x", ctx),
    ]
    with pytest.raises(BudgetExceeded):
        buchberger(gens, ctx)


def test_rules_lift_to_wider_context():
    small = Context(["t", "g"])
    system = buchberger([parse_poly("g^2 - t", small)], small)
    wide = Context(["u", "t", "g"])
    p = parse_poly("g^2*u - t*u", wide)
    assert system.normal_form(p).is_zero()


# -- completion: work, budget and an independent oracle ---------------------

# name -> (variables, relations, the smallest DEFAULT_BUDGET that completes
# them, the rules completion keeps on the way, the reduced basis).  "guard"
# adds rules from S-polynomials and drops six in the inter-reduction.
PINNED = {
    "guard": (
        ["z", "y", "x"], ["x^2*y - z", "x*y^2 - y", "y^3 - x"], 30, 10,
        ["y*z^2 - z", "z^3 - y", "y^2 - z^2", "x - z"],
    ),
    "twisted_cubic": (
        ["z", "y", "x"], ["y - x^2", "z - x^3"], 4, 4,
        ["y^3 - z^2", "x^2 - y", "x*y - z", "x*z - y^2"],
    ),
    "cox_little_oshea": (
        ["y", "x"], ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"], 8, 5,
        ["x^2", "x*y", "y^2 - 1/2*x"],
    ),
    "unit": (["z", "y", "x"], ["x*y - 1", "x^2 - y", "y^2 - x", "x - 2"], 1, 4, ["1"]),
    "circle_line": (["y", "x"], ["x^2 + y^2 - 1", "x - y"], 0, 2, ["y^2 - 1/2", "x - y"]),
    "two_generators": (["z", "y", "x"], ["x^2 - y", "y^2 - z"], 0, 2, ["x^2 - y", "y^2 - z"]),
}


def _pinned(name):
    variables, relations, budget, kept, basis = PINNED[name]
    ctx = Context(variables)
    return ctx, [parse_poly(r, ctx) for r in relations], budget, kept, basis


@pytest.mark.parametrize("name", sorted(PINNED))
def test_completion_orients_each_kept_rule_once(name, monkeypatch):
    """Each remainder that joins the rules is oriented once, and the reduced
    basis keeps the minimal left-hand sides among them."""
    ctx, gens, _, kept, basis = _pinned(name)
    oriented = []
    orient = rewrite.Rule.orient

    def recording(p):
        oriented.append(orient(p))
        return oriented[-1]

    monkeypatch.setattr(rewrite.Rule, "orient", staticmethod(recording))
    system = buchberger(gens, ctx)
    lhss = [r.lhs for r in oriented]
    assert len(lhss) == len(set(lhss)) == kept
    minimal = {m for m in lhss if not any(o != m and mono_divides(o, m) for o in lhss)}
    assert {r.lhs for r in system.rules} == minimal
    assert [str(r.as_poly()) for r in system.rules] == basis


@pytest.mark.parametrize("name", sorted(PINNED))
def test_smallest_budget_that_completes(name, monkeypatch):
    """The budget counts S-polynomial reductions: the pinned one completes,
    one less raises."""
    ctx, gens, budget, _, basis = _pinned(name)
    monkeypatch.setattr(rewrite, "DEFAULT_BUDGET", budget)
    assert [str(r.as_poly()) for r in buchberger(gens, ctx).rules] == basis
    if budget:
        monkeypatch.setattr(rewrite, "DEFAULT_BUDGET", budget - 1)
        with pytest.raises(BudgetExceeded):
            buchberger(gens, ctx)


def _rand_relation(r, ctx):
    """Two to four terms with exponents up to 2 and rational coefficients."""
    terms = {}
    for _ in range(r.randint(2, 4)):
        m = Monomial({v: r.randint(0, 2) for v in ctx.variables if r.random() < 0.6})
        terms[m] = rand_fraction(r) or Fraction(1)
    return Poly(ctx, terms)


def _to_sympy(p):
    return sum(
        (
            sympy.Rational(c.re) * sympy.prod(sympy.Symbol(v) ** e for v, e in m.exponents().items())
            for m, c in p.terms.items()
        ),
        sympy.Integer(0),
    )


def _term_sets(exprs, gens):
    """Each expression as the set of its (exponents of gens, coefficient) terms."""
    return {frozenset(sympy.Poly(e, *gens, domain="QQ").terms()) for e in exprs}


def test_reduced_basis_matches_sympy():
    """Seeded random systems in three variables, and the pinned ones (the
    unit ideal among them): the reduced basis, made monic, is sympy's."""
    ctx = Context(["z", "y", "x"])
    r = rng(3201)
    systems = [(ctx, [_rand_relation(r, ctx) for _ in range(r.randint(2, 3))]) for _ in range(60)]
    systems += [_pinned(name)[:2] for name in sorted(PINNED)]
    sizes = []
    for ctx, relations in systems:
        gens = sympy.symbols(ctx.variables[::-1])  # highest rank first
        oracle = sympy.groebner([_to_sympy(p) for p in relations], *gens, order="grlex", domain="QQ")
        ours = [_to_sympy(rule.as_poly().monic()) for rule in buchberger(relations, ctx).rules]
        assert _term_sets(ours, gens) == _term_sets(oracle.exprs, gens), relations
        sizes.append(len(ours) if oracle.exprs != [1] else 0)
    # unit ideals, and bases of several rules
    assert sizes.count(0) >= 2 and max(sizes) >= 5


# -- ordered normal forms against the plain division loop ---------------------


def reference_normal_form(system, p, reappeared=None, divides=mono_divides):
    """Total division that finds the largest remaining term by scanning all
    of them on every step.  Monomials that cancel and later come back are
    appended to `reappeared`."""
    ctx = p.context
    rules = system.rules_for(ctx)
    work = dict(p.by_key)
    done = {}
    gone = set()
    while work:
        m = max(work, key=ctx.key)
        c = work.pop(m)
        hit = next((r for r in rules if divides(r.lhs, m)), None)
        if hit is None:
            done[m] = c
            continue
        quot = mono_div(m, hit.lhs)
        for rm, rc in hit.rhs.by_key.items():
            k = mono_mul(rm, quot)
            cur = work.get(k)
            if cur is None and k in gone and reappeared is not None:
                reappeared.append(k)
            val = c * rc if cur is None else cur + c * rc
            if val:
                work[k] = val
            elif cur is not None:
                del work[k]
                gone.add(k)
    return Poly(ctx, {ctx.unpack(m): c for m, c in done.items()})


def recording(log):
    """A divisibility test that logs every (rule, monomial) pair it is
    asked about, which is the order in which a normal form visits the
    terms."""

    def divides(lhs, m):
        log.append((lhs, m))
        return mono_divides(lhs, m)

    return divides


def _system(variables, relations):
    ctx = Context(variables)
    return buchberger([parse_poly(r, ctx) for r in relations], ctx)


SYSTEMS = {
    "circle": _system(["t", "c", "s"], ["s^2 + c^2 - 1"]),
    "radical": _system(["t", "g"], ["g^3 - t"]),
    "seidenberg": build_seidenberg().rewrite,
    "two_generators": _system(["z", "y", "x"], ["x^2 - y", "y^2 - z"]),
}
# contexts with a new variable on each side, where rules are read by rules_for
WIDE = {
    "circle": Context(["u", "t", "c", "s", "w"]),
    "radical": Context(["u", "t", "g", "w"]),
}

CASES = [(name, False) for name in sorted(SYSTEMS)] + [(name, True) for name in WIDE]

small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
coefficients = st.builds(
    GaussRat, small_fractions, st.one_of(st.just(Fraction(0)), small_fractions)
)


def polys(ctx, max_exp):
    n = len(ctx.variables)
    exps = st.lists(st.integers(0, max_exp), min_size=n, max_size=n)
    return st.dictionaries(exps.map(tuple), coefficients, max_size=5).map(
        lambda terms: Poly(
            ctx, {Monomial(zip(ctx.variables, e)): c for e, c in terms.items()}
        )
    )


@st.composite
def inputs(draw):
    """A system and either a polynomial a + b*g + c*lm(g) for a rule g of
    the system (reducing b*g cancels terms, and reducing c*lm(g) can bring
    them back), or one already in normal form."""
    name, wide = draw(st.sampled_from(CASES))
    system = SYSTEMS[name]
    ctx = WIDE[name] if wide else system.context
    rule = draw(st.sampled_from(system.rules_for(ctx)))
    a, b, c = (draw(polys(ctx, 2)) for _ in range(3))
    if draw(st.booleans()):
        return system, a + b * rule.as_poly() + c.mul_monomial(rule.lhs)
    kept = {ctx.unpack(m): v for m, v in a.by_key.items() if is_reduced(system, ctx, m)}
    return system, Poly(ctx, kept)


def first_reducible_term_log(system, p):
    """The divisibility tests of a scan over p's terms, in their own order,
    that stops at the first term some rule divides; and whether it found
    one."""
    log = []
    for m in p.by_key:
        for r in system.rules_for(p.context):
            log.append((r.lhs, m))
            if mono_divides(r.lhs, m):
                return log, True
    return log, False


def is_reduced(system, ctx, m):
    return not any(mono_divides(r.lhs, m) for r in system.rules_for(ctx))


def assert_same_normal_form(system, p):
    ref_log, new_log = [], []
    expected = reference_normal_form(system, p, divides=recording(ref_log))
    with patch.object(rewrite, "mono_divides", recording(new_log)):
        got = system.normal_form(p)
    assert got == expected
    assert got == system.normal_form(p)
    scan, reducible = first_reducible_term_log(system, p)
    if not reducible:
        # returned as it is, after one test of each term against each rule
        assert got is p
        assert new_log == scan
        return
    assert list(got.terms) == list(expected.terms)
    # after finding a reducible term, the same terms reduced in the same
    # order, by the same rules
    assert new_log == scan + ref_log


@settings(max_examples=200, deadline=None)
@given(inputs())
def test_heap_normal_form_matches_the_division_loop(case):
    assert_same_normal_form(*case)


@pytest.mark.parametrize(
    "name, text",
    [
        ("circle", "s^2*c^2 + s^2 - c^2"),
        ("circle", "s^3*c^2 + s^3 - s*c^2 + t"),
        ("circle", "(2 + i)*s^4*c^2 + (2 + i)*s^4 - (2 + i)*s^2*c^2 + s"),
        ("seidenberg", "a^2*b^2 + 4*a^4 + a^2 + b^2"),
        ("circle_wide", "u*s^2*c^2 + u*s^2 - u*c^2 + w"),
    ],
)
def test_heap_normal_form_when_a_cancelled_term_reappears(name, text):
    system = SYSTEMS[name.removesuffix("_wide")]
    ctx = WIDE["circle"] if name.endswith("_wide") else system.context
    p = parse_poly(text, ctx)
    reappeared = []
    reference_normal_form(system, p, reappeared)
    assert reappeared, "the input should cancel a term that later comes back"
    assert_same_normal_form(system, p)
