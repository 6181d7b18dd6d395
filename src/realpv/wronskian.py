"""Wronskian matrices and exact independence-over-constants tests.

The wronskian of elements y_1..y_n stacks the rows (y_1..y_n),
(y_1'..y_n'), ...: nonvanishing of its determinant is the classical
criterion for linear independence over the constants.

Each column is a `tower.Ladder`, the recurrence of which
`DiffTower.derive` is rung 1: y^(k) = N_k / (E^a_k * d^(k+1)) for y =
n/d, E the tower's common derivation denominator, so its entries are
known polynomials over known denominators, and the determinant builds
none of them as a tower element.  Pulling 1/E^a_k out of row k and d^n
out of each column leaves the polynomial matrix N_k * d^(n-1-k), whose
determinant `linsolve.det` takes with no division, reducing each minor
to normal form.  The Wronskian is that one numerator over
E^(a_0 + ... + a_(n-1)) times the product of the d^n: one
`FieldElement`.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from operator import mul

from .errors import EmptyInput
from .linsolve import det
from .poly import Poly
from .tower import DiffTower, FieldElement, Ladder

__all__ = [
    "WrMatrix",
    "wronskian_matrix",
    "wronskian_det",
    "independent_over_constants",
]


class _Row(Sequence):
    """Row k of a Wronskian, read from its ladders entry by entry."""

    __slots__ = ("ladders", "k")

    def __init__(self, ladders: Sequence[Ladder], k: int):
        self.ladders, self.k = ladders, k

    def __len__(self) -> int:
        return len(self.ladders)

    def __getitem__(self, j: int) -> FieldElement:
        return self.ladders[j][self.k]


class WrMatrix:
    """Square matrix of tower elements, rows of successive derivatives,
    kept as its columns: the ladders of y_1..y_n, of n entries or more.
    Its rows are views; an entry is built when it is read."""

    __slots__ = ("ladders",)

    def __init__(self, ladders: Sequence[Ladder]):
        self.ladders = list(ladders)
        n = len(self.ladders)
        if any(len(lad) < n for lad in self.ladders):
            raise ValueError("wronskian matrix must be square")

    @property
    def rows(self) -> list[_Row]:
        return [_Row(self.ladders, k) for k in range(len(self.ladders))]

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.rows) + "]"


def wronskian_matrix(tower: DiffTower, elements: Sequence[FieldElement]) -> WrMatrix:
    if not elements:
        raise EmptyInput("wronskian of an empty family")
    n = len(elements)
    return WrMatrix([Ladder(tower.lift(x), n - 1) for x in elements])


def _cleared_det(ladders: Sequence[Ladder]) -> Poly:
    """The determinant of the polynomial matrix N_k * d^(n-1-k), in normal
    form: the Wronskian times E^(a_0 + ... + a_(n-1)) * prod d^n."""
    n = len(ladders)
    columns = []
    for lad in ladders:
        d, col = lad.d, lad.nums[:n]
        if d is not None:
            # from the bottom row up, one more factor d per row
            power = d
            for k in range(n - 2, -1, -1):
                col[k] = col[k] * power
                if k:
                    power = power * d
        columns.append(col)
    return det(list(zip(*columns)), ladders[0].tower.rewrite.normal_form)


def wronskian_det(w: WrMatrix) -> FieldElement:
    """The determinant, as one numerator over one denominator (module
    docstring)."""
    ladders = w.ladders
    n = len(ladders)
    first = ladders[0]
    a = sum(first.powers[:n])
    factors = [lad.d**n for lad in ladders if lad.d is not None]
    if a:
        factors.append(first.tower.common_denominator**a)
    den = reduce(mul, factors) if factors else Poly.const(first.tower.context, 1)
    return FieldElement(_cleared_det(ladders), den, first.tower)


def independent_over_constants(
    tower: DiffTower, elements: Sequence[FieldElement]
) -> bool:
    """Exact test: the family is independent over constants iff its
    wronskian determinant is nonzero, that is iff the cleared numerator
    (`_cleared_det`) is; no denominator is built."""
    return not _cleared_det(wronskian_matrix(tower, elements).ladders).is_zero()
