"""Exact linear algebra over the Gaussian rationals.

The solvers work on sparse equations (dicts mapping unknown index to
coefficient) because the matrices produced by constant scans and invariant
computations are large but very sparse.  Elimination keeps rows in reduced
row-echelon form, so kernel bases come out canonical: one vector per free
unknown, unit at the free position, fully reduced elsewhere.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul
from typing import Iterable, Sequence

from .errors import Unsupported
from .gauss import GaussRat

__all__ = [
    "kernel",
    "det",
    "inverse",
    "mat_mul",
    "mat_conj",
    "adjugate",
    "identity",
    "is_scalar_matrix",
]

_ZERO = GaussRat.of(0)
_ONE = GaussRat.of(1)


def _reduce(eq: dict[int, GaussRat], pivots: dict[int, dict[int, GaussRat]]) -> None:
    for col in sorted(eq):
        row = pivots.get(col)
        if row is None:
            continue
        factor = eq.pop(col, None)
        if factor is None or not factor:
            continue
        for c, v in row.items():
            if c == col:
                continue
            cur = eq.get(c, _ZERO) - factor * v
            if cur:
                eq[c] = cur
            else:
                eq.pop(c, None)


def _echelonize(equations: Iterable[dict[int, GaussRat]]) -> dict[int, dict[int, GaussRat]]:
    pivots: dict[int, dict[int, GaussRat]] = {}
    for raw in equations:
        eq = {c: GaussRat.of(v) for c, v in raw.items() if GaussRat.of(v)}
        _reduce(eq, pivots)
        if not eq:
            continue
        col = min(eq)
        inv = eq[col].inverse()
        row = {c: v * inv for c, v in eq.items()}
        for pcol, prow in pivots.items():
            f = prow.get(col)
            if f is None:
                continue
            for c, v in row.items():
                if c == col:
                    prow.pop(col, None)
                    continue
                cur = prow.get(c, _ZERO) - f * v
                if cur:
                    prow[c] = cur
                else:
                    prow.pop(c, None)
        pivots[col] = row
    return pivots


def kernel(n_cols: int, equations: Iterable[dict[int, GaussRat]]) -> list[list[GaussRat]]:
    """Canonical basis of the solution space of a homogeneous sparse system."""
    pivots = _echelonize(equations)
    basis: list[list[GaussRat]] = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = [_ZERO] * n_cols
        vec[free] = _ONE
        for pcol, row in pivots.items():
            coef = row.get(free)
            if coef:
                vec[pcol] = -coef
        basis.append(vec)
    return basis


def det(rows: Sequence[Sequence[GaussRat]]) -> GaussRat:
    n = len(rows)
    m = [[GaussRat.of(v) for v in row] for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    out = _ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return _ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        out = out * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if not f:
                continue
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return out


def identity(n: int) -> list[list[GaussRat]]:
    return [[_ONE if r == c else _ZERO for c in range(n)] for r in range(n)]


def is_scalar_matrix(rows: Sequence[Sequence], c) -> bool:
    """Whether the square matrix `rows` equals c times the identity."""
    c = GaussRat.of(c)
    return all(
        GaussRat.of(v) == (c if r == k else _ZERO)
        for r, row in enumerate(rows)
        for k, v in enumerate(row)
    )


def inverse(rows: Sequence[Sequence[GaussRat]]) -> list[list[GaussRat]] | None:
    n = len(rows)
    m = [[GaussRat.of(v) for v in row] + identity(n)[r] for r, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col].inverse()
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r == col:
                continue
            f = m[r][col]
            if not f:
                continue
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Matrix product over any commutative ring: scalar entries, or
    polynomials of one context."""
    return [[reduce(add, map(mul, row, col)) for col in zip(*b)] for row in a]


def mat_conj(a: Sequence[Sequence]) -> list[list]:
    return [[v.conj() for v in row] for row in a]


def adjugate(a: Sequence[Sequence]) -> tuple[list[list], object]:
    """The adjugate and the determinant of a matrix of size at most 2, over
    any commutative ring, so that a * adj = det * I."""
    if len(a) == 1:
        return [[a[0][0] ** 0]], a[0][0]
    if len(a) == 2:
        (p, q), (r, s) = a
        return [[s, -q], [-r, p]], p * s - q * r
    raise Unsupported(f"no adjugate formula for {len(a)}x{len(a)} matrices")
