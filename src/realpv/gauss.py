"""Gaussian rational numbers: the field Q(i) in exact arithmetic.

Real and imaginary parts are `fractions.Fraction`, so every invariant of
reduced fractions (gcd 1, positive denominator) comes from the standard
library. Conjugation is the only extra structure the rest of the package
needs: it is the ring involution fixing Q and sending i to -i.

Almost every coefficient the package computes with is real, so sums,
differences, products and inverses of real operands take a real path: one
`Fraction` operation on the real parts, with the imaginary part kept as
`Fraction(0)`.  The general Q(i) formulas handle everything else; both
paths give equal (and equally hashed) results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Coeffable = Union["GaussRat", Fraction, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class GaussRat:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value: Coeffable) -> "GaussRat":
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussRat(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} to GaussRat")

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def norm(self) -> Fraction:
        """Field norm re^2 + im^2; zero only for the zero element."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other: Coeffable) -> "GaussRat":
        o = other if other.__class__ is GaussRat else GaussRat.of(other)
        if not self.im and not o.im:
            return GaussRat(self.re + o.re, _ZERO)
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussRat":
        if not self.im:
            return GaussRat(-self.re, _ZERO)
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other: Coeffable) -> "GaussRat":
        return self + (-GaussRat.of(other))

    def __rsub__(self, other: Coeffable) -> "GaussRat":
        return GaussRat.of(other) + (-self)

    def __mul__(self, other: Coeffable) -> "GaussRat":
        o = other if other.__class__ is GaussRat else GaussRat.of(other)
        if not self.im and not o.im:
            return GaussRat(self.re * o.re, _ZERO)
        return GaussRat(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        if not self.im:
            if not self.re:
                raise ZeroDivisionError("inverse of zero GaussRat")
            return GaussRat(_ONE / self.re, _ZERO)
        n = self.norm()
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other: Coeffable) -> "GaussRat":
        return self * GaussRat.of(other).inverse()

    def __rtruediv__(self, other: Coeffable) -> "GaussRat":
        return GaussRat.of(other) * self.inverse()

    def __pow__(self, e: int) -> "GaussRat":
        if e < 0:
            return self.inverse() ** (-e)
        out = GaussRat(Fraction(1))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            im = "i"
        elif self.im == -1:
            im = "-i"
        else:
            im = f"{self.im}*i"
        if self.re == 0:
            return im
        sign = "-" if self.im < 0 else "+"
        mag = im.lstrip("-")
        return f"{self.re}{sign}{mag}"


ZERO = GaussRat()
ONE = GaussRat(Fraction(1))
I = GaussRat(Fraction(0), Fraction(1))


def is_square(x: Fraction) -> bool:
    """Whether a nonnegative rational is the square of a rational."""
    if x < 0:
        return False
    from math import isqrt

    pn, pd = x.numerator, x.denominator
    return isqrt(pn) ** 2 == pn and isqrt(pd) ** 2 == pd


def rational_sqrt(x: Fraction) -> Fraction:
    """Exact square root of a rational square; raises if there is none."""
    from math import isqrt

    if not is_square(x):
        raise ValueError(f"{x} is not a rational square")
    return Fraction(isqrt(x.numerator), isqrt(x.denominator))
