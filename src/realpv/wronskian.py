"""Wronskian matrices and exact independence-over-constants tests.

The wronskian of elements y_1..y_n stacks the rows (y_1..y_n),
(y_1'..y_n'), ...: nonvanishing of its determinant is the classical
criterion for linear independence over the constants.  The determinant is
`linsolve.det`, the fraction-free Bareiss recurrence; every step builds a
tower element, reduced to normal form, so entries stay canonical the whole
way.
"""

from __future__ import annotations

from typing import Sequence

from .errors import EmptyInput
from .linsolve import det
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

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[FieldElement]]):
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
    return WrMatrix(zip(*(derivatives(tower.lift(x), n - 1) for x in elements)))


def wronskian_det(w: WrMatrix) -> FieldElement:
    return det(w.rows)


def independent_over_constants(
    tower: DiffTower, elements: Sequence[FieldElement]
) -> bool:
    """Exact test: the family is independent over constants iff its
    wronskian determinant is nonzero."""
    return not wronskian_det(wronskian_matrix(tower, elements)).is_zero()
