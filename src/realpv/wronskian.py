"""Wronskian matrices and exact independence-over-constants tests.

The wronskian of elements y_1..y_n stacks the rows (y_1..y_n),
(y_1'..y_n'), ...: nonvanishing of its determinant is the classical
criterion for linear independence over the constants.  The determinant is
computed by the fraction-free Bareiss recurrence, reducing to normal form
after every elimination step, so entries stay canonical the whole way.
"""

from __future__ import annotations

from typing import Sequence

from .errors import EmptyInput
from .tower import DiffTower, FieldElement

__all__ = [
    "WrMatrix",
    "derivatives",
    "wronskian_matrix",
    "wronskian_det",
    "independent_over_constants",
]


class WrMatrix:
    """Square matrix of tower elements, rows of successive derivatives."""

    __slots__ = ("tower", "rows")

    def __init__(self, tower: DiffTower, rows: Sequence[Sequence[FieldElement]]):
        self.tower = tower
        self.rows = [list(r) for r in rows]
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("wronskian matrix must be square")

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.rows) + "]"


def derivatives(y: FieldElement, n: int) -> list[FieldElement]:
    """The ladder y, y', ..., y^(n)."""
    out = [y]
    for _ in range(n):
        out.append(out[-1].derive())
    return out


def wronskian_matrix(tower: DiffTower, elements: Sequence[FieldElement]) -> WrMatrix:
    if not elements:
        raise EmptyInput("wronskian of an empty family")
    n = len(elements)
    return WrMatrix(tower, zip(*(derivatives(tower.lift(x), n - 1) for x in elements)))


def _bareiss(tower: DiffTower, matrix: Sequence[Sequence[FieldElement]]) -> FieldElement:
    n = len(matrix)
    m = [list(r) for r in matrix]
    sign = 1
    prev = tower.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if swap is None:
                return tower.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = tower.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def wronskian_det(w: WrMatrix) -> FieldElement:
    return _bareiss(w.tower, w.rows)


def independent_over_constants(
    tower: DiffTower, elements: Sequence[FieldElement]
) -> bool:
    """Exact test: the family is independent over constants iff its
    wronskian determinant is nonzero."""
    return not wronskian_det(wronskian_matrix(tower, elements)).is_zero()
