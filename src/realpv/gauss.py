"""Gaussian rational numbers: the field Q(i) in exact arithmetic.

A value is stored as three integers a, b, d with value (a + b*i)/d, kept in
one canonical form: d > 0 and gcd(a, b, d) = 1 (so zero is 0/1).  Equal
values therefore have equal triples, and `==` and `hash` compare the
triple.  `re` and `im` read the parts back as `fractions.Fraction`.
Conjugation is the only extra structure the rest of the package needs: it
is the ring involution fixing Q and sending i to -i.

Almost every coefficient the package computes with is real, so sums,
differences, products and inverses of real operands (b = 0) take a real
path: `Fraction`'s cross-cancelling gcd steps, done inline on the integers.
The general Q(i) formulas handle everything else and renormalize with one
three-way gcd; both paths give the same canonical triple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Union

Coeffable = Union["GaussRat", Fraction, int]


def _coerce_error(value) -> TypeError:
    return TypeError(f"cannot coerce {value!r} to GaussRat")


class GaussRat:
    """(a + b*i)/d with d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise _coerce_error(part)
        rn, rd = int(re.numerator), int(re.denominator)
        im_n, im_d = int(im.numerator), int(im.denominator)
        # Over the common denominator lcm(rd, im_d) no prime divides all
        # three integers, because each part is already in lowest terms.
        d = rd * im_d // gcd(rd, im_d)
        self._a = rn * (d // rd)
        self._b = im_n * (d // im_d)
        self._d = d

    @staticmethod
    def of(value: Coeffable) -> "GaussRat":
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, int):
            return _new(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _new(value.numerator, 0, value.denominator)
        raise _coerce_error(value)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussRat:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"GaussRat(re={self.re!r}, im={self.im!r})"

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def is_zero(self) -> bool:
        return not self

    def conj(self) -> "GaussRat":
        return _new(self._a, -self._b, self._d)

    def height_bits(self) -> int:
        """floor(log2(H^2)) for the absolute height H of the value: zero
        exactly on 0 and the roots of unity 1, i, -1, -i.  H^2 is the
        larger of the outer coefficients of the primitive integer minimal
        polynomial, and H(c^n) = H(c)^n, so `max_int` of c^n has at least
        (n * height_bits - 1) / 2 bits."""
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        return (max(n, d * d) // gcd(n, 2 * a * d, d * d)).bit_length() - 1

    def max_int(self) -> int:
        """The largest of |a|, |b| and d."""
        return max(abs(self._a), abs(self._b), self._d)

    def __add__(self, other: Coeffable) -> "GaussRat":
        o = other if other.__class__ is GaussRat else GaussRat.of(other)
        return _sum(self._a, self._b, self._d, o._a, o._b, o._d)

    __radd__ = __add__

    def __neg__(self) -> "GaussRat":
        return _new(-self._a, -self._b, self._d)

    def __sub__(self, other: Coeffable) -> "GaussRat":
        o = other if other.__class__ is GaussRat else GaussRat.of(other)
        return _sum(self._a, self._b, self._d, -o._a, -o._b, o._d)

    def __rsub__(self, other: Coeffable) -> "GaussRat":
        o = GaussRat.of(other)
        return _sum(o._a, o._b, o._d, -self._a, -self._b, self._d)

    def __mul__(self, other: Coeffable) -> "GaussRat":
        o = other if other.__class__ is GaussRat else GaussRat.of(other)
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = o._a, o._b, o._d
        if not b1 and not b2:
            g = gcd(a1, d2)
            if g > 1:
                a1 //= g
                d2 //= g
            g = gcd(a2, d1)
            if g > 1:
                a2 //= g
                d1 //= g
            return _new(a1 * a2, 0, d1 * d2)
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        a, b, d = self._a, self._b, self._d
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero GaussRat")
            return _new(d, 0, a) if a > 0 else _new(-d, 0, -a)
        return _reduced(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other: Coeffable) -> "GaussRat":
        return self * GaussRat.of(other).inverse()

    def __rtruediv__(self, other: Coeffable) -> "GaussRat":
        return GaussRat.of(other) * self.inverse()

    def __pow__(self, e: int) -> "GaussRat":
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, lambda: ONE)

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if im == 1:
            ims = "i"
        elif im == -1:
            ims = "-i"
        else:
            ims = f"{im}*i"
        if re == 0:
            return ims
        sign = "-" if im < 0 else "+"
        mag = ims.lstrip("-")
        return f"{re}{sign}{mag}"


def power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply, for any type whose product
    is `*`: `one()` when n is 0, else no product by one and no square that
    nothing reads, and `one` is not called."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one() if out is None else out


_alloc = object.__new__


def _new(a: int, b: int, d: int) -> GaussRat:
    """GaussRat from a triple already in canonical form, unchecked."""
    g = _alloc(GaussRat)
    g._a = a
    g._b = b
    g._d = d
    return g


def _reduced(a: int, b: int, d: int) -> GaussRat:
    """GaussRat (a + b*i)/d for d > 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if g > 1:
        return _new(a // g, b // g, d // g)
    return _new(a, b, d)


def _sum(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> GaussRat:
    """(a1 + b1*i)/d1 + (a2 + b2*i)/d2 for two canonical triples."""
    if not b1 and not b2:
        g = gcd(d1, d2)
        if g == 1:
            return _new(a1 * d2 + a2 * d1, 0, d1 * d2)
        s = d1 // g
        t = a1 * (d2 // g) + a2 * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _new(t, 0, s * d2)
        return _new(t // g2, 0, s * (d2 // g2))
    return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


ZERO = _new(0, 0, 1)
ONE = _new(1, 0, 1)
I = _new(0, 1, 1)


def is_square(x: Fraction) -> bool:
    """Whether a nonnegative rational is the square of a rational."""
    if x < 0:
        return False
    pn, pd = x.numerator, x.denominator
    return isqrt(pn) ** 2 == pn and isqrt(pd) ** 2 == pd


def rational_sqrt(x: Fraction) -> Fraction:
    """Exact square root of a rational square; raises if there is none."""
    if not is_square(x):
        raise ValueError(f"{x} is not a rational square")
    return Fraction(isqrt(x.numerator), isqrt(x.denominator))
