"""Gaussian rational arithmetic: exact field operations."""

from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from realpv import Context, DiffTower, FieldElement, GaussRat, Poly
from realpv.gauss import I, ONE, ZERO, is_square, rational_sqrt

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gauss = st.builds(GaussRat, fractions, fractions)
nonzero_gauss = gauss.filter(bool)


def test_constants():
    assert ZERO == GaussRat.of(0)
    assert ONE == GaussRat.of(1)
    assert I * I == GaussRat.of(-1)


def test_coercion_and_str():
    assert str(GaussRat.of(Fraction(3, 4))) == "3/4"
    assert str(GaussRat.of(-3)) == "-3"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(GaussRat(Fraction(1), Fraction(2))) == "1+2*i"
    assert str(GaussRat(Fraction(1), Fraction(-1, 2))) == "1-1/2*i"
    assert str(GaussRat(Fraction(0), Fraction(3, 4))) == "3/4*i"


def test_division_exact():
    a = GaussRat(Fraction(1), Fraction(2))
    b = GaussRat(Fraction(3), Fraction(-1))
    assert (a / b) * b == a


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_pow():
    assert I**4 == ONE
    assert I**-1 == -I
    two = GaussRat.of(2)
    assert two**10 == GaussRat.of(1024)
    assert two**-2 == GaussRat.of(Fraction(1, 4))
    assert two**0 == ONE


def _power_bases():
    ctx = Context(["x", "y"])
    circle = DiffTower(base_var="t").adjoin_abstract(["c", "s"], ["-s", "c"], ["s^2+c^2-1"])
    return {
        GaussRat: GaussRat(Fraction(3, 2), Fraction(-1)),
        Poly: Poly.variable(ctx, "x") * Poly.variable(ctx, "y") - Poly.const(ctx, 2),
        FieldElement: circle.parse("(c+t)/(s+2)"),
    }


@pytest.mark.parametrize("cls", [GaussRat, Poly, FieldElement], ids=lambda c: c.__name__)
def test_power_spends_no_product_on_one(cls, monkeypatch):
    """x**n equals the product of n factors x and takes
    floor(log2 n) squares and one product per further set bit of n: none for
    n = 0 and 1, one for a square."""
    x = _power_bases()[cls]
    repeated = [x**0]
    for _ in range(9):
        repeated.append(repeated[-1] * x)
    calls = []
    mul = cls.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    for n in range(10):
        calls.clear()
        got = x**n
        assert len(calls) == (n.bit_length() + n.bit_count() - 2 if n else 0), n
        assert got == repeated[n], n


@given(gauss, gauss, gauss)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(nonzero_gauss)
def test_field_inverse(a):
    assert a * a.inverse() == ONE


@given(gauss, gauss)
def test_conjugation_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@given(gauss)
def test_conj_involution_and_norm(a):
    assert a.conj().conj() == a
    n = a * a.conj()
    assert n.im == 0
    assert n.re == a.re**2 + a.im**2
    assert n.re >= 0


@given(gauss, st.integers(min_value=1, max_value=40))
def test_height_bounds_the_integers_of_powers(a, n):
    # the parser refuses c^n from this bound before computing it
    unit = a in (ZERO, ONE, -ONE, I, -I)
    assert (a.height_bits() == 0) == unit
    assert 2 * (a**n).max_int().bit_length() >= n * a.height_bits() - 1


def test_square_detection():
    assert is_square(Fraction(9, 4))
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert not is_square(Fraction(2))
    assert not is_square(Fraction(-1))
    with pytest.raises(ValueError):
        rational_sqrt(Fraction(2))


# -- the real path against the general Q(i) formulas -------------------------------

mixed = st.one_of(
    st.builds(GaussRat, fractions),
    st.builds(GaussRat, fractions, fractions),
    st.just(ZERO),
)
operands = st.one_of(mixed, fractions, st.integers(-9, 9))


def general_mul(a, b):
    return GaussRat(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def general_add(a, b):
    return GaussRat(a.re + b.re, a.im + b.im)


def general_inverse(a):
    n = a.re * a.re + a.im * a.im
    return GaussRat(a.re / n, -a.im / n)


def assert_exact(got, expected):
    assert got == expected
    assert hash(got) == hash(expected)
    assert type(got.re) is Fraction and type(got.im) is Fraction


@given(mixed, operands)
def test_products_sums_and_differences_match_the_general_formulas(a, other):
    b = GaussRat.of(other)
    assert_exact(a * other, general_mul(a, b))
    assert_exact(other * a, general_mul(a, b))
    assert_exact(a + other, general_add(a, b))
    assert_exact(other + a, general_add(a, b))
    assert_exact(a - other, general_add(a, -b))
    assert_exact(other - a, general_add(b, -a))
    assert_exact(-a, GaussRat(-a.re, -a.im))


@given(nonzero_gauss)
def test_inverse_matches_the_general_formula(a):
    assert_exact(a.inverse(), general_inverse(a))
    real = GaussRat(a.re)
    if real:
        assert_exact(real.inverse(), general_inverse(real))


@given(fractions, fractions)
def test_real_results_equal_and_hash_as_real_numbers(x, y):
    a, b = GaussRat(x), GaussRat(y)
    for got, value in [(a * b, x * y), (a + b, x + y), (a - b, x - y), (-a, -x)]:
        assert_exact(got, GaussRat(value))
        assert got.im == 0
        assert got.re.numerator == value.numerator
    if x:
        assert_exact(a.inverse(), GaussRat(1 / x))


def test_real_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GaussRat(Fraction(0)).inverse()
    with pytest.raises(ZeroDivisionError):
        GaussRat.of(3) / GaussRat(Fraction(0), Fraction(0))


# -- the (a + b*i)/d representation against a model on pairs of Fractions ----------


class Pair(NamedTuple):
    """Reference model: a Gaussian rational as its two Fraction parts."""

    re: Fraction
    im: Fraction


def pair_neg(p):
    return Pair(-p.re, -p.im)


def pair_pow(p, e):
    out, base = Pair(Fraction(1), Fraction(0)), p if e >= 0 else general_inverse(p)
    for _ in range(abs(e)):
        out = general_mul(out, base)
    return GaussRat(out.re, out.im)


def pair_str(p):
    if p.im == 0:
        return str(p.re)
    im = {1: "i", -1: "-i"}.get(p.im, f"{p.im}*i")
    if p.re == 0:
        return im
    return f"{p.re}{'-' if p.im < 0 else '+'}{im.lstrip('-')}"


pairs = st.builds(Pair, fractions, fractions)
scalars = st.one_of(st.integers(-9, 9), fractions)


@given(pairs, pairs, scalars)
def test_every_operation_matches_the_pair_model(p, q, s):
    a, b = GaussRat(p.re, p.im), GaussRat(q.re, q.im)
    ps = Pair(Fraction(s), Fraction(0))
    checks = [
        (a + b, general_add(p, q)),
        (a - b, general_add(p, pair_neg(q))),
        (a * b, general_mul(p, q)),
        (a + s, general_add(p, ps)),
        (s + a, general_add(ps, p)),
        (a - s, general_add(p, pair_neg(ps))),
        (s - a, general_add(ps, pair_neg(p))),
        (a * s, general_mul(p, ps)),
        (s * a, general_mul(ps, p)),
        (-a, GaussRat(-p.re, -p.im)),
        (a.conj(), GaussRat(p.re, -p.im)),
    ]
    if q.re or q.im:
        checks += [
            (b.inverse(), general_inverse(q)),
            (a / b, general_mul(p, general_inverse(q))),
            (s / b, general_mul(ps, general_inverse(q))),
        ]
    if s:
        checks.append((a / s, general_mul(p, general_inverse(ps))))
    for e in range(-3, 4):
        if e >= 0 or a:
            checks.append((a**e, pair_pow(p, e)))
    for got, want in checks:
        assert_exact(got, want)
    product = a * b
    assert product.re == p.re * q.re - p.im * q.im
    assert product.im == p.re * q.im + p.im * q.re
    assert str(a) == pair_str(p)
    assert (a == b) == (p == q)
    if p == q:
        assert hash(a) == hash(b)


def test_one_value_has_one_canonical_form():
    half = GaussRat.of(Fraction(1, 2))
    forms = [
        GaussRat(Fraction(2, 4), Fraction(1, 2)),
        half + I * half,
        (ONE + I) / GaussRat.of(2),
    ]
    for x in forms:
        assert_exact(x, forms[0])
        assert x.re == x.im == Fraction(1, 2)
    assert len(set(forms)) == 1


def test_constructor_rejects_floats_and_other_types():
    for bad in (0.1, 1.5j, "1", None):
        with pytest.raises(TypeError, match="cannot coerce .* to GaussRat"):
            GaussRat(bad)
        with pytest.raises(TypeError, match="cannot coerce .* to GaussRat"):
            GaussRat(Fraction(1), bad)
        with pytest.raises(TypeError, match="cannot coerce .* to GaussRat"):
            GaussRat.of(bad)


def test_parts_of_integer_arguments_are_fractions():
    for x in (GaussRat(1), GaussRat(1, -2), GaussRat.of(3), GaussRat(Fraction(1, 3), 2)):
        assert type(x.re) is Fraction and type(x.im) is Fraction


def test_equals_no_other_type():
    assert GaussRat.of(1) != 1
    assert GaussRat.of(Fraction(1, 2)) != Fraction(1, 2)
    assert ZERO != 0 and ONE != 1.0
