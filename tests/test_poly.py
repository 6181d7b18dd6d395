"""Multivariate polynomials: ordering, arithmetic, parsing, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from realpv import (
    Context, DiffTower, GaussRat, Monomial, Poly, buchberger, parse_fraction, parse_poly,
)
from realpv import poly
from realpv.errors import ContextError, Unsupported
from realpv.poly import mono_div, mono_divides, mono_gcd, mono_lcm, mono_mul

from helpers import partial, rand_element, rand_poly, rng


@pytest.fixture
def ctx():
    return Context(["t", "c", "s"])  # t lowest, s highest


def test_context_ranks(ctx):
    assert ctx.rank("t") < ctx.rank("c") < ctx.rank("s")
    assert "t" in ctx and "x" not in ctx


def test_graded_lex_order(ctx):
    # total degree decides first
    p = parse_poly("t^3 + s*c + s^2 + t", ctx)
    assert ctx.unpack(p.leading_monomial()).exponents() == {"t": 3}
    # on equal degree the higher-ranked variable wins
    q = parse_poly("s*c + s^2 + c^2", ctx)
    assert ctx.unpack(q.leading_monomial()).exponents() == {"s": 2}
    assert ctx.unpack(parse_poly("s*c + c^2", ctx).leading_monomial()).exponents() == {
        "s": 1,
        "c": 1,
    }


XYZ = Context(["x", "y", "z"])


def key(**exps):
    """The key of a monomial in x, y, z."""
    return XYZ.pack(Monomial(exps))


def degree(ctx, m):
    """The total degree of the key m, read by `Poly.total_degree`."""
    return Poly._build(ctx, {m: GaussRat.of(1)}).total_degree()


def test_monomial_operations():
    m = key(x=2, y=1)
    n = key(x=1)
    assert XYZ.unpack(mono_div(m, n)).exponents() == {"x": 1, "y": 1}
    assert sum(XYZ.unpack(m).exponents().values()) == degree(XYZ, m) == 3
    assert mono_divides(n, m)
    assert not mono_divides(m, n)
    assert XYZ.unpack(mono_lcm(m, key(y=3))).exponents() == {"x": 2, "y": 3}
    assert XYZ.unpack(mono_gcd(m, key(x=5, z=1))).exponents() == {"x": 2}
    assert XYZ.unpack(mono_gcd(m, key(z=1))).is_one()
    assert Monomial({}).is_one()


def test_mul_monomial_scales_only_when_asked(ctx):
    p = parse_poly("s + 2*c", ctx)
    m = ctx.pack(Monomial({"s": 1}))
    assert p.mul_monomial(m) == parse_poly("s^2 + 2*s*c", ctx)
    assert p.mul_monomial(m, GaussRat.of(1)) == p.mul_monomial(m)
    assert p.mul_monomial(m, -3) == parse_poly("-3*s^2 - 6*s*c", ctx)


def test_shifter_multiplies_keys_by_a_power_of_one_variable(ctx):
    p = parse_poly("s^2*c + 3*t - 1", ctx)
    for name in ("t", "c", "s"):
        shift = ctx.shifter(name)
        for s in (0, 1, 4):
            power = ctx.pack(Monomial.var(name, s))
            assert {shift(m, s): c for m, c in p.by_key.items()} == p.mul_monomial(power).by_key
    with pytest.raises(ContextError):
        ctx.shifter("x")


def test_degree_in_reads_one_exponent_of_a_key(ctx):
    p = parse_poly("s^2*c*t^3 + 3*t - 1 + s*c", ctx)
    for m in p.by_key:
        for name in ("t", "c", "s"):
            assert ctx.degree_in(m, name) == ctx.unpack(m).degree_in(name)
    with pytest.raises(ContextError):
        ctx.degree_in(ctx.one, "x")


def test_splitter_splits_keys_by_variables(ctx):
    p = parse_poly("s^2*c*t^3 + 3*t - 1 + s*c", ctx)
    for names in ((), ("s",), ("c", "s"), ("t", "c", "s")):
        split = ctx.splitter(names)
        for m in p.by_key:
            a, b = split(m)
            assert mono_mul(a, b) == m
            assert ctx.unpack(a).variables() <= set(names)
            assert not ctx.unpack(b).variables() & set(names)
    pack = lambda **exps: ctx.pack(Monomial(exps))
    assert ctx.splitter(["s", "c"])(pack(s=2, c=1, t=3)) == (pack(s=2, c=1), pack(t=3))
    with pytest.raises(ContextError):
        ctx.splitter(["s", "x"])


def test_poly_arithmetic(ctx):
    p = parse_poly("s + c", ctx)
    q = parse_poly("s - c", ctx)
    assert str(p * q) == "s^2 - c^2"
    assert (p + q).degree_in("c") == 0
    assert str(p**2) == "s^2 + 2*s*c + c^2"


def test_zero_coefficients_dropped(ctx):
    p = parse_poly("s + c", ctx) - parse_poly("s", ctx) - parse_poly("c", ctx)
    assert p.is_zero()
    assert p.terms == {}


def test_unknown_variable_rejected(ctx):
    with pytest.raises(ContextError):
        Poly.variable(ctx, "nope")


def test_public_constructor_coerces_and_checks(ctx):
    m = Monomial({"s": 1})
    p = Poly(ctx, {m: 3, Monomial(): Fraction(1, 2), Monomial({"c": 1}): 0})
    assert p.terms == {m: GaussRat.of(3), Monomial(): GaussRat(Fraction(1, 2))}
    assert all(type(c) is GaussRat for c in p.terms.values())
    with pytest.raises(ContextError):
        Poly(ctx, {Monomial({"x": 1}): 1})
    with pytest.raises(ContextError):
        Poly(ctx, {m: 1, Monomial({"s": 1, "x": 2}): GaussRat.of(-1)})
    # a zero term is dropped before its variables are looked at
    assert Poly(ctx, {Monomial({"x": 1}): 0}).is_zero()


def _valid(p):
    assert all(type(c) is GaussRat and c for c in p.by_key.values())
    assert all(type(c) is GaussRat and c for c in p.terms.values())
    assert all(v in p.context for m in p.terms for v in m.variables())
    assert all(e > 0 for m in p.terms for e in m.exponents().values())
    return p


def test_no_result_holds_a_zero_coefficient(ctx):
    system = buchberger([parse_poly("s^2 + c^2 - 1", ctx)], ctx)
    r = rng(17)
    for _ in range(150):
        p = rand_poly(r, ctx)
        q = rand_poly(r, ctx)
        m = next(iter(rand_poly(r, ctx, max_terms=1).by_key), ctx.one)
        for got in (
            p + q, p + (-p), p - q, p - p, p * q, (p + q) * (p - q), -p,
            p.scale(0), p.scale(Fraction(-2, 3)), p.scale(GaussRat(Fraction(0), Fraction(1))),
            p.mul_monomial(m), p.mul_monomial(m, 0), p.mul_monomial(m, -1),
            system.normal_form(p), system.normal_form(p * parse_poly("s^2 + c^2 - 1", ctx)),
        ):
            _valid(got)
        assert (p - p).terms == {} and p.scale(0).terms == {}


def test_monomial_products_and_quotients_are_canonical():
    m = key(x=2, y=1)
    n = key(y=3, z=1)
    prod = mono_mul(m, n)
    assert prod == key(x=2, y=4, z=1)
    assert hash(prod) == hash(XYZ.pack(Monomial({"z": 1, "y": 4, "x": 2})))
    assert Monomial({"x": 2, "y": 4, "z": 1}) == Monomial({"z": 1, "y": 4, "x": 2})
    assert hash(Monomial({"x": 2, "y": 4})) == hash(Monomial({"y": 4, "x": 2, "z": 0}))
    assert sum(XYZ.unpack(prod).exponents().values()) == degree(XYZ, prod) == 7
    q = mono_div(prod, key(x=2, z=1))
    assert XYZ.unpack(q).exponents() == {"y": 4} and degree(XYZ, q) == 4
    assert q == key(y=4) and hash(q) == hash(key(y=4))
    one = mono_div(m, m)
    assert XYZ.unpack(one).is_one() and one == XYZ.one and degree(XYZ, one) == 0
    with pytest.raises(ValueError):
        mono_div(m, n)


exponent_dicts = st.dictionaries(st.sampled_from("xyzw"), st.integers(0, 3), max_size=4)
XYZW = Context(["x", "y", "z", "w"])


def divides_by_exponents(m_exps, n_exps):
    return all(n_exps.get(v, 0) >= e for v, e in m_exps.items())


@given(exponent_dicts, exponent_dicts)
def test_monomial_product_unit_quotient_and_divides(me, ne):
    m, n = XYZW.pack(Monomial(me)), XYZW.pack(Monomial(ne))
    for prod in (mono_mul(m, XYZW.one), mono_mul(XYZW.one, m)):
        assert prod == m and hash(prod) == hash(m)
        assert degree(XYZW, prod) == degree(XYZW, m) == sum(XYZW.unpack(prod).exponents().values())
    mn = mono_mul(m, n)
    assert mono_div(mn, n) == m and hash(mono_div(mn, n)) == hash(m)
    assert mono_divides(m, n) == divides_by_exponents(me, ne)
    assert mono_divides(n, m) == divides_by_exponents(ne, me)
    assert mono_divides(m, mn) and mono_divides(n, mn)


def test_divides_on_equal_and_larger_degree():
    x2, xy = key(x=2), key(x=1, y=1)
    assert not mono_divides(x2, xy) and not mono_divides(xy, x2)
    assert mono_divides(x2, x2)
    # a monomial of higher degree never divides one of lower degree
    assert not mono_divides(key(x=1, y=2), key(x=5))
    assert not mono_divides(key(x=3), key(x=2))
    assert mono_divides(XYZ.one, xy) and not mono_divides(xy, XYZ.one)


# -- dense keys against exponent dicts -----------------------------------------------

NAMES = [f"v{k}" for k in range(8)]


@st.composite
def monomials_in_a_context(draw):
    """A context of 1 to 8 variables in a random rank order, and two
    exponent dicts over its variables."""
    n = draw(st.integers(1, 8))
    names = draw(st.permutations(NAMES))[:n]
    exps = st.dictionaries(st.sampled_from(names), st.integers(0, 4), max_size=n)
    return Context(names), draw(exps), draw(exps)


def reference_key(ctx, exps):
    """The graded-lex key as (degree, exponents from the top variable down)."""
    return (sum(exps.values()), tuple(exps.get(v, 0) for v in reversed(ctx.variables)))


def positive(exps):
    return {v: e for v, e in exps.items() if e}


@given(monomials_in_a_context())
def test_dense_keys_agree_with_exponent_dicts(case):
    ctx, me, ne = case
    m, n = ctx.pack(Monomial(me)), ctx.pack(Monomial(ne))
    assert ctx.unpack(m) == Monomial(me) and ctx.unpack(n) == Monomial(ne)
    names = ctx.variables
    prod = {v: me.get(v, 0) + ne.get(v, 0) for v in names}
    assert ctx.unpack(mono_mul(m, n)).exponents() == positive(prod)
    assert mono_div(mono_mul(m, n), n) == m
    assert mono_divides(m, n) == divides_by_exponents(me, ne)
    if mono_divides(n, m):
        quot = {v: me.get(v, 0) - ne.get(v, 0) for v in names}
        assert ctx.unpack(mono_div(m, n)).exponents() == positive(quot)
    else:
        with pytest.raises(ValueError):
            mono_div(m, n)
    lcm = {v: max(me.get(v, 0), ne.get(v, 0)) for v in names}
    gcd = {v: min(me.get(v, 0), ne.get(v, 0)) for v in names}
    assert mono_lcm(m, n) == ctx.pack(Monomial(lcm))
    assert mono_gcd(m, n) == ctx.pack(Monomial(gcd))
    # degree
    assert degree(ctx, m) == sum(ctx.unpack(m).exponents().values()) == sum(me.values())
    assert Poly(ctx, {Monomial(me): 1}).total_degree() == sum(me.values())
    # order: int order of the keys is the reference graded-lex order
    ref_m, ref_n = reference_key(ctx, me), reference_key(ctx, ne)
    assert (m < n) == (ref_m < ref_n) and (m == n) == (ref_m == ref_n)
    assert sorted([m, n], key=ctx.key) == sorted([m, n])
    p = Poly(ctx, {Monomial(me): 1, Monomial(ne): 2})
    lead = max([me, ne], key=lambda e: reference_key(ctx, e))
    assert ctx.unpack(p.leading_monomial()) == Monomial(lead)


# -- packed keys at the slot boundary ------------------------------------------------

MAX = poly.MAX_DEGREE
assert MAX == 2**31 - 1


@st.composite
def exponents_near_the_limit(draw, names, room=None):
    """Exponents of `names` with a degree of at most `room` (by default
    drawn up to MAX_DEGREE), drawn often at or next to the room that the
    degree leaves."""
    if room is None:
        room = draw(st.one_of(st.just(MAX), st.integers(MAX - 2, MAX), st.integers(0, MAX)))
    exps = {}
    for v in draw(st.permutations(names)):
        exps[v] = draw(st.one_of(
            st.just(room), st.integers(max(room - 2, 0), room),
            st.integers(0, min(room, 3)), st.integers(0, room),
        ))
        room -= exps[v]
    return exps


@st.composite
def keys_near_the_limit(draw):
    """A context of 1 to 4 variables in a random rank order, and two
    exponent dicts of degree at most MAX_DEGREE over its variables."""
    n = draw(st.integers(1, 4))
    names = draw(st.permutations(NAMES))[:n]
    return Context(names), draw(exponents_near_the_limit(names)), draw(exponents_near_the_limit(names))


@given(keys_near_the_limit())
def test_keys_agree_with_exponent_dicts_up_to_the_degree_limit(case):
    ctx, me, ne = case
    m, n = ctx.pack(Monomial(me)), ctx.pack(Monomial(ne))
    assert ctx.unpack(m) == Monomial(me) and ctx.unpack(n) == Monomial(ne)
    assert all(ctx.degree_in(m, v) == me.get(v, 0) for v in ctx.variables)
    assert degree(ctx, m) == sum(me.values())
    names = ctx.variables
    prod = {v: me.get(v, 0) + ne.get(v, 0) for v in names}
    if sum(prod.values()) <= MAX:
        assert mono_mul(m, n) == ctx.pack(Monomial(prod))
        assert mono_div(mono_mul(m, n), n) == m
    else:
        with pytest.raises(Unsupported):
            mono_mul(m, n)
    assert mono_divides(m, n) == divides_by_exponents(me, ne)
    assert mono_divides(n, m) == divides_by_exponents(ne, me)
    if divides_by_exponents(ne, me):
        quot = {v: me.get(v, 0) - ne.get(v, 0) for v in names}
        assert mono_div(m, n) == ctx.pack(Monomial(positive(quot)))
    else:
        with pytest.raises(ValueError):
            mono_div(m, n)
    lcm = {v: max(me.get(v, 0), ne.get(v, 0)) for v in names}
    gcd = {v: min(me.get(v, 0), ne.get(v, 0)) for v in names}
    assert mono_gcd(m, n) == ctx.pack(Monomial(gcd))
    if sum(lcm.values()) <= MAX:
        assert mono_lcm(m, n) == ctx.pack(Monomial(lcm))
    else:
        with pytest.raises(Unsupported):
            mono_lcm(m, n)
    ref_m, ref_n = reference_key(ctx, me), reference_key(ctx, ne)
    assert (m < n) == (ref_m < ref_n) and (m == n) == (ref_m == ref_n)


@given(keys_near_the_limit(), st.sampled_from([["a"], ["a", "b"]]))
def test_reader_agrees_with_pack_and_unpack(case, new):
    ctx, me, _ = case
    m = ctx.pack(Monomial(me))
    # variables adjoined below, above, or both
    wide = [ctx.extend_top(new), ctx.extend_bottom(new), ctx.extend_bottom(new).extend_top(["z"])]
    for target in wide:
        assert target.reader(ctx)(m) == target.pack(Monomial(me))
    # a reordered or a narrowed context
    names = list(ctx.variables)
    for target in (Context(names[::-1]), Context(names[1:]), Context(names[:-1] + new)):
        if all(v in target for v, e in me.items() if e):
            assert target.reader(ctx)(m) == target.pack(Monomial(me))
        else:
            with pytest.raises(ContextError):
                target.reader(ctx)(m)
    # and back from a wider context
    for target in wide:
        assert ctx.reader(target)(target.pack(Monomial(me))) == m


COEFFICIENTS = st.sampled_from(
    [GaussRat.of(1), GaussRat.of(-1), GaussRat.of(2), GaussRat.of(Fraction(1, 3)),
     GaussRat(Fraction(0), Fraction(1))]
)


@st.composite
def derivations_near_the_limit(draw):
    """Polynomials over a context of 1 to 4 variables, one-term ones among
    them, images of some of their variables and a factor monomial, with
    the degrees of dp/dv, of images[v] and of the factor adding up to
    values at, next to and far below MAX_DEGREE."""
    n = draw(st.integers(1, 4))
    names = draw(st.permutations(NAMES))[:n]
    ctx = Context(names)
    split = draw(st.one_of(st.integers(0, 4), st.integers(MAX - 4, MAX - 1), st.integers(0, MAX - 1)))
    room = draw(st.one_of(st.integers(0, 4), st.integers(0, MAX)))

    def poly_of(room, size=3):
        exps = st.builds(Monomial, exponents_near_the_limit(names, min(max(room, 0), MAX)))
        return Poly(ctx, draw(st.dictionaries(exps, COEFFICIENTS, min_size=1, max_size=size)))

    sizes = draw(st.lists(st.sampled_from([1, 3]), min_size=1, max_size=3))
    polys = [poly_of(split + 1, size) for size in sizes]
    images = {
        v: poly_of(MAX - split - room + draw(st.integers(-2, 2)))
        for v in draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    }
    factor = ctx.pack(Monomial(draw(exponents_near_the_limit(names, room))))
    return polys, images, factor


def derivation_by_partials(p, images):
    """sum_v partial(p, v) * images[v], the reference of `Poly.derivation`."""
    out = Poly.zero(p.context)
    for v, image in images.items():
        out = out + partial(p, v) * image
    return out


@given(derivations_near_the_limit())
def test_derivation_is_the_sum_of_partials_times_images(case):
    """Poly.derivation gives sum_v dp/dv * images[v], and Poly.derivations
    that times a factor monomial for each polynomial of a batch.  Each
    refuses exactly where a product dp/dv * images[v], or then the sum
    times the factor, passes MAX_DEGREE, with the message of `*` or of
    `mul_monomial`."""
    polys, images, factor = case
    p = polys[0]
    runs = [
        (lambda: [p.derivation(images)], [p], p.context.one),
        (lambda: Poly.derivations(images, polys, factor), polys, factor),
    ]
    for run, batch, f in runs:
        try:
            expected = [derivation_by_partials(q, images).mul_monomial(f) for q in batch]
        except Unsupported as e:
            with pytest.raises(Unsupported, match=f"past the limit of {MAX}") as got:
                run()
            assert str(got.value) == str(e)
        else:
            assert run() == expected


def test_derivation_of_a_variable_outside_the_context_is_refused(ctx):
    with pytest.raises(ContextError):
        parse_poly("t*c", ctx).derivation({"x": Poly.const(ctx, 1)})
    with pytest.raises(ContextError):
        parse_poly("t*c", ctx).derivation({"t": Poly.const(Context(["t"]), 1)})


def test_products_past_the_degree_limit_raise_unsupported():
    ctx = Context(["t", "x"])
    big = Poly.variable(ctx, "t", MAX - 1)
    assert (big * Poly.variable(ctx, "x")).total_degree() == MAX
    assert big.mul_monomial(ctx.pack(Monomial.var("x"))).total_degree() == MAX
    two = parse_poly("t + x", ctx)
    for product in (
        lambda: big * two * two,
        lambda: (big + Poly.const(ctx, 1)) * (two * two),
        lambda: big.mul_monomial(ctx.pack(Monomial({"t": 1, "x": 1}))),
        lambda: big**2,
        lambda: mono_mul(big.leading_monomial(), ctx.pack(Monomial({"x": 2}))),
        lambda: mono_lcm(ctx.pack(Monomial.var("t", MAX)), ctx.pack(Monomial.var("x", 1))),
        lambda: ctx.shifter("x")(big.leading_monomial(), 2),
        lambda: ctx.pack(Monomial({"t": MAX, "x": 1})),
        lambda: Poly.variable(ctx, "x", MAX + 1),
    ):
        with pytest.raises(Unsupported, match=f"past the limit of {MAX}"):
            product()


def test_contexts_up_to_the_variable_limit():
    names = [f"v{k}" for k in range(poly.MAX_VARIABLES)]
    ctx = Context(names)
    top, low = ctx.pack(Monomial.var(names[-1], MAX)), ctx.pack(Monomial.var(names[0]))
    assert ctx.unpack(top) == Monomial.var(names[-1], MAX) and top > low
    assert not mono_divides(low, top) and mono_gcd(top, low) == ctx.one
    with pytest.raises(Unsupported):
        mono_mul(top, low)
    with pytest.raises(Unsupported, match=f"at most {poly.MAX_VARIABLES} variables"):
        Context([*names, "w"])


def test_a_monomial_past_the_degree_limit_is_no_term(ctx):
    p = parse_poly(f"t^{MAX} + 1", ctx)
    assert p.coeff(Monomial.var("t", MAX)) == GaussRat.of(1)
    assert p.coeff(Monomial.var("t", MAX + 1)) == GaussRat.of(0)
    assert Monomial.var("t", MAX + 1) not in p.terms


@pytest.mark.parametrize(
    "text, column",
    [("t^2147483648", 2), ("-t^3000000000", 3), ("t^2000000000*t^2000000000", 13),
     ("1/t^2000000000 + 1/t^2000000000", 16), ("(t*c)^-1073741824", 6)],
)
def test_parse_refuses_a_degree_past_the_limit(ctx, text, column):
    with pytest.raises(ValueError, match=f"parse error at column {column}: .*past the limit of {MAX}"):
        parse_fraction(text, ctx)


def test_parse_reaches_the_degree_limit(ctx):
    num, den = parse_fraction(f"t^{MAX - 1}*c/s^{MAX}", ctx)
    assert (num.total_degree(), den.total_degree()) == (MAX, MAX)
    assert poly.power_overrun([parse_poly("t", ctx)], MAX) is None


def test_in_context_and_restrict_round_trip():
    base = DiffTower("t")
    circle = base.adjoin_abstract(["c", "s"], ["-s", "c"], ["s^2+c^2-1"])
    above = circle.adjoin_exponential("e", circle.var("s"))  # extend_top
    below = circle.with_params(["a", "b"])  # extend_bottom
    assert above.context == circle.context.extend_top(["e"])
    assert below.context == circle.context.extend_bottom(["a", "b"])
    r = rng(23)
    for _ in range(40):
        x = rand_element(r, circle)
        for wide in (above, below):
            for p in (x.num, x.den):
                q = p.in_context(wide.context)
                assert q.context == wide.context and str(q) == str(p)
                back = q.in_context(circle.context)
                assert back == p and str(back) == str(p)
            y = circle.restrict(wide.lift(x))
            assert y.num == x.num and y.den == x.den
            assert str(y.num) == str(x.num) and str(y.den) == str(x.den)
    # a variable the narrower context lacks is refused
    with pytest.raises(ContextError):
        above.var("e").num.in_context(circle.context)


def test_parse_fraction(ctx):
    num, den = parse_fraction("(s^2 - 1)/(c + 1)", ctx)
    assert str(num) == "s^2 - 1"
    assert str(den) == "c + 1"


@pytest.mark.parametrize("text", ["-1+", "2*", "(t -", "-", ""])
def test_parse_truncated_expression(ctx, text):
    with pytest.raises(ValueError, match="unexpected end of input"):
        parse_fraction(text, ctx)


def test_parse_stray_character_is_named(ctx):
    with pytest.raises(ValueError, match="unexpected character '\\)'"):
        parse_fraction("1 + )", ctx)


@pytest.mark.parametrize(
    "text, column",
    [("\u0663", 1), ("\uff13", 1), ("-\u0663", 2), ("\u00b2", 1), ("2 * \u00b2", 5)],
    ids=["arabic_indic_three", "fullwidth_three", "negated", "superscript_two", "factor"],
)
def test_parse_refuses_non_ascii_digits(ctx, text, column):
    """Digits other than ASCII ones are no integer literal, also where
    `str.isdigit` holds for them."""
    with pytest.raises(ValueError, match=f"^parse error at column {column}: unexpected character"):
        parse_fraction(text, ctx)


@pytest.mark.parametrize(
    "text, column",
    [("1\u2003+\u00a0t", 2), ("\u30001", 1), ("t +\u00a01", 4), ("t\u00a0", 2)],
    ids=["em_then_no_break", "ideographic", "no_break_before_operand", "trailing_no_break"],
)
def test_parse_refuses_non_ascii_whitespace(ctx, text, column):
    """Only ASCII whitespace separates tokens, also where `str.isspace`
    holds for a character: "1\u2003+\u00a0t" is no t + 1."""
    with pytest.raises(ValueError, match=f"^parse error at column {column}: "):
        parse_fraction(text, ctx)


def test_parse_skips_ascii_whitespace(ctx):
    num, den = parse_fraction(" 1 +\tt\r\n/\f( c\v)", ctx)
    assert (str(num), str(den)) == ("c + t", "c")


def test_parse_negative_power(ctx):
    num, den = parse_fraction("t^-2", ctx)
    assert str(num) == "1"
    assert str(den) == "t^2"


def test_parse_bounds_the_expansion_of_powers(ctx):
    # a power of a monomial is one term, whatever the exponent
    assert str(parse_poly("t^12", ctx)) == "t^12"
    assert str(parse_poly("(2*s*c)^40", ctx)) == f"{2**40}*s^40*c^40"
    # (t+1)^255 has 256 terms, one more is refused at the caret
    assert len(parse_poly("(t+1)^255", ctx).terms) == 256
    for text in ("(t+1)^256", "(s+c+t)^30", "1/(t+1)^-300"):
        with pytest.raises(ValueError, match="parse error at column .*: the power expands"):
            parse_fraction(text, ctx)
    with pytest.raises(ValueError, match="column 10: the power expands to more than 256 terms"):
        parse_fraction("s + (c-t)^300", ctx)


def test_parse_bounds_the_digits_of_integers(ctx):
    big = "9" * 1000
    assert parse_poly(big, ctx) == Poly.const(ctx, int(big))
    assert parse_poly(f"1/{big}", ctx) == Poly.const(ctx, Fraction(1, int(big)))
    with pytest.raises(ValueError, match="column 3: an integer literal has more than 1000"):
        parse_fraction(f"t+{big}9", ctx)
    # the power is refused from the height of its base, before it is
    # computed: c^n for c not 0 or a root of unity grows without bound
    for text in ("3^10000", "(3/5 + 4/5*i)^100000", "((1+i)/2)^20000", "(1/7*t)^-5000"):
        with pytest.raises(ValueError, match="the power has an integer of more than 1000"):
            parse_fraction(text, ctx)
    assert parse_poly("i^100000 * t^100000 * (3^1500 + s)", ctx).total_degree() == 100001
    # what each power allows, the product may still exceed
    for text in ("3^1500*3^1500", "(1/3)^-2000 * 3^100", f"{big}*{big}"):
        with pytest.raises(ValueError, match="the expression has an integer of more than 1000"):
            parse_fraction(text, ctx)


def test_parse_bounds_the_nesting_of_parentheses(ctx):
    # 300 levels once ended in a RecursionError; the limit parses, and one
    # more level is refused at the column of its opening parenthesis
    limit = poly.MAX_NESTING
    t = Poly.variable(ctx, "t")
    assert parse_poly("(" * limit + "t" + ")" * limit, ctx) == t
    for depth in (limit + 1, 300, 5000):
        with pytest.raises(ValueError, match=(
            f"column {limit + 1}: parentheses nest more than {limit} deep"
        )):
            parse_fraction("(" * depth + "t" + ")" * depth, ctx)
    # the depth counts the parentheses that are open, not all of them
    assert parse_poly("+".join(["((t))"] * 300), ctx) == t.scale(GaussRat.of(300))


def test_parse_error_echoes_a_window_of_a_long_input(ctx):
    # a 1001-digit literal and an error at column 6001 once echoed the whole
    # input; a long input is now echoed as 60 characters around the column
    for text, column in (("1" * 1001, 1), ("t+" * 3000, 6001), ("t+" * 40 + ")", 81)):
        with pytest.raises(ValueError) as exc:
            parse_fraction(text, ctx)
        message = str(exc.value)
        assert message.startswith(f"parse error at column {column}: ")
        assert len(message) < 200
        echo = message.split(" in ", 1)[1]
        assert len(echo.strip("'").strip(".")) <= 60
        assert echo.startswith("'...") == (column > 30)
    # a short input is echoed whole
    with pytest.raises(ValueError, match=r"column 4: unexpected end of input in '-1\+'$"):
        parse_fraction("-1+", ctx)


def test_parse_coefficients(ctx):
    p = parse_poly("3/4*s - 2*c + 1/2", ctx)
    assert p.coeff(Monomial({"s": 1})) == GaussRat.of(Fraction(3, 4))
    assert p.coeff(Monomial({"c": 1})) == GaussRat.of(-2)
    assert p.coeff(Monomial({})) == GaussRat.of(Fraction(1, 2))


def test_parse_i(ctx):
    p = parse_poly("i*s + 2", ctx)
    assert p.coeff(Monomial({"s": 1})) == GaussRat(Fraction(0), Fraction(1))


def test_str_roundtrip(ctx):
    r = rng(11)
    for _ in range(60):
        p = rand_poly(r, ctx)
        assert parse_poly(str(p), ctx) == p


def test_real_imag_split(ctx):
    p = parse_poly("(1 + 2*i)*s + i*c - 3", ctx)
    re, im = p.real_imag()
    assert str(re) == "s - 3"
    assert str(im) == "2*s + c"


def test_conj(ctx):
    p = parse_poly("i*s + 2", ctx)
    assert str(p.conj()) == "-i*s + 2"


def test_in_context_widening():
    small = Context(["t"])
    big = Context(["t", "x"])
    p = parse_poly("t^2 + 1", small)
    q = p.in_context(big)
    assert q.context is big or q.context == big
    with pytest.raises(ContextError):
        parse_poly("x", big).in_context(small)


def test_monic(ctx):
    p = parse_poly("2*s^2 + 4*c", ctx)
    assert str(p.monic()) == "s^2 + 2*c"


def test_distributivity_randomized(ctx):
    r = rng(7)
    for _ in range(150):
        p = rand_poly(r, ctx)
        q = rand_poly(r, ctx)
        w = rand_poly(r, ctx)
        assert (p + q) * w == p * w + q * w


def test_power_matches_repeated_multiplication(ctx):
    r = rng(13)
    for _ in range(40):
        p = rand_poly(r, ctx, max_terms=3, max_degree=2)
        acc = Poly.const(ctx, 1)
        for k in range(4):
            assert p**k == acc
            acc = acc * p


# -- substitution ------------------------------------------------------------------


def test_substitute_over_gaussian_rationals(ctx):
    p = parse_poly("2*s^2*c - t + 3", ctx)
    values = {
        "t": GaussRat.of(5),
        "c": GaussRat(Fraction(0), Fraction(1)),
        "s": GaussRat.of(Fraction(1, 2)),
    }
    # 2 * (1/4) * i - 5 + 3
    expect = GaussRat(Fraction(-2), Fraction(1, 2))
    assert p.substitute(values.__getitem__, GaussRat.of) == expect


def test_substitute_into_polynomials_is_a_ring_morphism(ctx):
    out = Context(["u", "v"])
    values = {
        "t": parse_poly("u + v", out),
        "c": parse_poly("u*v", out),
        "s": parse_poly("v - 1", out),
    }

    def sub(p):
        return p.substitute(values.__getitem__, lambda c: Poly.const(out, c))

    assert sub(parse_poly("s^2 - t", ctx)) == parse_poly("v^2 - 3*v + 1 - u", out)
    r = rng(21)
    for _ in range(40):
        p, q = rand_poly(r, ctx), rand_poly(r, ctx)
        assert sub(p * q) == sub(p) * sub(q)
        assert sub(p + q) == sub(p) + sub(q)


def test_substitute_homogenises_with_scale(ctx):
    p = parse_poly("s^2 + 3*t - 1", ctx)
    values = {"s": GaussRat.of(1), "t": GaussRat.of(3)}
    # 2^2 * p(values / 2) = 1 + 3*3*2 - 4
    assert p.substitute(values.__getitem__, GaussRat.of, GaussRat.of(2)) == GaussRat.of(15)
    out = Context(["u", "w"])
    u, w = Poly.variable(out, "u"), Poly.variable(out, "w")
    homog = p.substitute({"s": u, "t": u}.__getitem__, lambda c: Poly.const(out, c), w)
    assert homog == u * u + (u * w).scale(3) - w * w
    # the zero polynomial has degree 0 and stays zero
    zero = Poly.zero(ctx).substitute(values.__getitem__, GaussRat.of, GaussRat.of(2))
    assert zero == GaussRat.of(0)


def test_substitute_computes_each_power_once(ctx):
    asked = []

    def value(v):
        asked.append(v)
        return GaussRat.of(2)

    p = parse_poly("s^2*c + s^2*t + s*c + c", ctx)
    assert p.substitute(value, GaussRat.of) == GaussRat.of(8 + 8 + 4 + 2)
    # one call per (variable, exponent) pair: s^2, c, t and s
    assert sorted(asked) == ["c", "s", "s", "t"]
