"""Gaussian rational arithmetic: exact field operations."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from realpv import GaussRat
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
    assert n.re == a.norm()
    assert n.re >= 0


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
