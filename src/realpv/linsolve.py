"""Exact linear algebra: `kernel` over the Gaussian rationals, `det` over
any exact field, Q(i) or a tower's, the other helpers over any ring.

`kernel` works on sparse equations (dicts mapping unknown index to
coefficient) because the matrices produced by constant scans and invariant
computations are large but very sparse.  It eliminates forward only
and back-substitutes once per free unknown.  Its basis is canonical: one
vector per free unknown (a column that is no row's leftmost entry in
echelon form), unit at that position and zero at the other free ones.
Such a basis is unique, so it depends neither on the order of the
equations nor on how they were eliminated.
"""

from __future__ import annotations

from functools import reduce
from heapq import heapify, heappop, heappush
from operator import add, mul
from typing import Iterable, Sequence

from .errors import Unsupported
from .gauss import GaussRat

__all__ = [
    "kernel",
    "det",
    "mat_mul",
    "mat_conj",
    "adjugate",
    "identity",
]

_ZERO = GaussRat.of(0)
_ONE = GaussRat.of(1)


def kernel(n_cols: int, equations: Iterable[dict[int, GaussRat]]) -> list[list[GaussRat]]:
    """Canonical basis of the solution space of a homogeneous sparse system.

    Forward elimination: each equation is reduced against the pivot rows
    found so far and, if anything is left, becomes a new pivot row at its
    smallest column.  A pivot row is kept as it was left, with the inverse
    of its pivot entry; its other entries lie right of the pivot, and
    earlier rows are not reduced against later pivots.  Back-substitution
    then solves for the pivot unknowns once per free column, over the
    pivots in decreasing order.
    """
    pivots: dict[int, tuple[dict[int, GaussRat], GaussRat]] = {}
    for raw in equations:
        eq = {c: g for c, v in raw.items() if (g := GaussRat.of(v))}
        # Subtracting the row at `col` only adds columns right of `col`, so
        # the pivot columns to clear are visited from a heap in increasing
        # order.  A column that cancels and comes back has two entries; the
        # second finds it gone.
        todo = [c for c in eq if c in pivots]
        heapify(todo)
        while todo:
            col = heappop(todo)
            f = eq.pop(col, None)
            if f is None:
                continue
            row, inv = pivots[col]
            f = f * inv
            for c, v in row.items():
                if c == col:
                    continue
                cur = eq.get(c)
                if cur is None:
                    eq[c] = -(f * v)
                    if c in pivots:
                        heappush(todo, c)
                    continue
                val = cur - f * v
                if val:
                    eq[c] = val
                else:
                    del eq[c]
        if not eq:
            continue
        col = min(eq)
        pivots[col] = (eq, eq[col].inverse())
    # A pivot right of the free column solves to zero, as its row holds only
    # columns further right, whose unknowns are zero too.  Each pivot left
    # of it is solved after every pivot its row refers to.
    order = sorted(pivots, reverse=True)
    basis: list[list[GaussRat]] = []
    for free in range(n_cols):
        if free in pivots:
            continue
        x = {free: _ONE}
        for p in order:
            if p > free:
                continue
            row, inv = pivots[p]
            acc = _ZERO
            for c, v in row.items():
                xc = x.get(c)
                if xc is not None:
                    acc = acc - v * xc
            if acc:
                x[p] = acc * inv
        vec = [_ZERO] * n_cols
        for c, v in x.items():
            vec[c] = v
        basis.append(vec)
    return basis


def det(rows: Sequence[Sequence]):
    """The determinant by the fraction-free Bareiss recurrence, over any
    field whose elements have `is_zero`, `*`, `-` and `/`."""
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ValueError("determinant of an empty or non-square matrix")
    m = [list(row) for row in rows]
    sign = 1
    prev = rows[0][0] ** 0
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if swap is None:
                return m[k][k]
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        # Column k below the pivot is left as it is: no later step reads it.
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return -out if sign < 0 else out


def identity(n: int) -> list[list[GaussRat]]:
    return [[_ONE if r == c else _ZERO for c in range(n)] for r in range(n)]


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
