"""Exact linear algebra: `Echelon` and `kernel` over the Gaussian
rationals, `det` over any exact field, Q(i) or a tower's, the other helpers
over any ring.

`Echelon` and `kernel` work on sparse vectors (dicts mapping a column label
to a coefficient) because the matrices produced by constant scans,
invariant computations and membership tests are large but very sparse.
`Echelon.add` is the one forward elimination: it reduces a vector against
the rows kept so far and keeps what is left, which answers whether the
vector was independent of them.  `kernel` adds its equations to an
`Echelon` and then back-substitutes once per free unknown.  Its basis is
canonical: one vector per free unknown (a column that is no row's leftmost
entry in echelon form), unit at that position and zero at the other free
ones.  Such a basis is unique, so it depends neither on the order of the
equations nor on how they were eliminated.
"""

from __future__ import annotations

from functools import reduce
from heapq import heapify, heappop, heappush
from operator import add, mul
from typing import Hashable, Iterable, Sequence

from .errors import Unsupported
from .gauss import GaussRat

__all__ = [
    "Echelon",
    "kernel",
    "det",
    "mat_mul",
    "mat_conj",
    "adjugate",
    "identity",
]

_ZERO = GaussRat.of(0)
_ONE = GaussRat.of(1)


class Echelon:
    """Sparse rows in echelon form, under column labels of any one totally
    ordered type: ints for `kernel`, `Poly.by_key` keys for field
    membership.

    `pivots` maps each row's pivot column, its smallest, to the row and the
    inverse of its pivot entry.  A row's other entries lie right of its
    pivot, and earlier rows are not reduced against later pivots.  Rows
    are never changed once kept, so a copy shares them.
    """

    __slots__ = ("pivots",)

    def __init__(self) -> None:
        self.pivots: dict[Hashable, tuple[dict[Hashable, GaussRat], GaussRat]] = {}

    def copy(self) -> "Echelon":
        out = Echelon()
        out.pivots = dict(self.pivots)
        return out

    def add(self, eq: dict[Hashable, GaussRat]) -> bool:
        """Reduce eq, whose entries are nonzero, against the rows and keep
        what is left as a new row at its smallest column.  Returns whether
        anything was left: whether eq was independent of the rows.  The
        dict is taken over: it is reduced in place and may become the row.
        """
        pivots = self.pivots
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
            return False
        col = min(eq)
        pivots[col] = (eq, eq[col].inverse())
        return True


def kernel(n_cols: int, equations: Iterable[dict[int, GaussRat]]) -> list[list[GaussRat]]:
    """Canonical basis of the solution space of a homogeneous sparse system.

    Forward elimination adds each equation to an `Echelon`.
    Back-substitution then solves for the pivot unknowns once per free
    column, over the pivots in decreasing order.
    """
    echelon = Echelon()
    add, of = echelon.add, GaussRat.of
    for raw in equations:
        add({c: g for c, v in raw.items() if (g := of(v))})
    pivots = echelon.pivots
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
