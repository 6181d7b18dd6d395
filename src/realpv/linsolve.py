"""Exact linear algebra: `Echelon` and `relations` over the Gaussian
rationals, `det` and the other helpers over any commutative ring.

`Echelon` and `relations` work on sparse vectors (dicts mapping a label to
a coefficient): the constant scans, invariant computations and membership
tests make long but very sparse ones.  `Echelon.reduce` is the one
elimination.  It subtracts kept vectors from a vector only at its leading
label (its largest), until that label is new and the vector is kept
there, or nothing is left.  Vectors with pairwise distinct leading labels
are independent, so kept ones need no other elimination (Faugere's F4).
`relations` adds its vectors in order: v_k reduces to nothing exactly when
it lies in the span of the earlier ones, and then the reduction writes it
in the kept ones, which are independent.  That gives the canonical basis,
in the vectors' own sparse form {k: a_k}: one vector per such k, 1 at k
and no entry at any other such index.  It is unique, so it depends neither
on the labels' order nor on the elimination.  Adding to a vector multiples
of earlier ones changes no span of a prefix, and so no such k.  While no
two nonzero vectors share a leading label the relations are the unit
vectors {k: 1} of the zero ones, with no elimination.  The constant scan
reads them off the leading monomials of its vectors, each reduced against
earlier ones, when each zero reduced vector is a zero vector, and
otherwise passes every vector here (`DiffTower._scan_relations`).
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul
from typing import Callable, Hashable, Iterable, Sequence

from .errors import Unsupported
from .gauss import GaussRat

__all__ = [
    "Echelon",
    "relations",
    "kernel",
    "det",
    "mat_mul",
    "mat_conj",
    "adjugate",
    "identity",
]

_ZERO = GaussRat.of(0)
_ONE = GaussRat.of(1)

Vector = dict[Hashable, GaussRat]


class Echelon:
    """Sparse vectors with pairwise distinct leading labels, under labels
    of any one totally ordered type: ints for `kernel`, `Poly.by_key` keys
    for `relations` over polynomials and for field membership.

    `pivots` maps each kept vector's leading label to the vector, the
    inverse of its leading entry (None until a vector is first reduced by
    it) and, for a vector added with an index, the combination of the
    indexed vectors added so far that it equals (else None).  Kept vectors
    are never changed, and a vector is kept as given when its leading label
    is new, so a copy shares them and they may be live `Poly.by_key` dicts.
    """

    __slots__ = ("pivots",)

    def __init__(self) -> None:
        self.pivots: dict[Hashable, tuple[Vector, GaussRat | None, Vector | None]] = {}

    def copy(self) -> "Echelon":
        out = Echelon()
        out.pivots = dict(self.pivots)
        return out

    def reduce(self, vec: Vector, index: int | None = None) -> Vector | None:
        """Top-reduce vec, whose entries are nonzero, and keep what is left
        at its leading label.  Returns None when something was left, that
        is when vec was independent of the kept vectors.  Otherwise returns
        the combination {index: coefficient} of the vectors added with an
        index that vanishes: 1 at `index`, the others the kept vectors'
        indices ({} without an index).  vec itself is never changed.  One
        echelon takes either indexed vectors only or unindexed ones only.
        """
        pivots = self.pivots
        comb = None if index is None else {index: _ONE}
        eq = vec
        while eq:
            lead = max(eq)
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = (eq, None, comb)
                return None
            if eq is vec:
                eq = dict(vec)
            row, inv, used = hit
            if inv is None:
                inv = row[lead].inverse()
                pivots[lead] = (row, inv, used)
            f = eq.pop(lead) * inv
            for c, v in row.items():
                if c == lead:
                    continue
                cur = eq.get(c)
                if cur is None:
                    eq[c] = -(f * v)
                    continue
                val = cur - f * v
                if val:
                    eq[c] = val
                else:
                    del eq[c]
            if comb is not None:
                for i, a in used.items():
                    val = comb.get(i, _ZERO) - f * a
                    if val:
                        comb[i] = val
                    else:
                        del comb[i]
        return {} if comb is None else comb

    def add(self, vec: Vector) -> bool:
        """Whether vec was independent of the kept vectors; it is kept if so."""
        return self.reduce(vec) is None


def relations(vectors: Sequence[Vector]) -> list[dict[int, GaussRat]]:
    """Canonical basis, as {k: a_k} of nonzero entries, of the vectors a with
    sum a_k vectors[k] = 0: one per k whose vector lies in the span of the
    earlier ones, 1 at k and no entry at any other such index (module
    docstring).  The dicts, whose entries are nonzero, are not changed."""
    echelon = Echelon()
    basis: list[dict[int, GaussRat]] = []
    for k, vec in enumerate(vectors):
        comb = echelon.reduce(vec, k)
        if comb is not None:
            basis.append(comb)
    return basis


def kernel(n_cols: int, equations: Iterable[dict[int, object]]) -> list[dict[int, GaussRat]]:
    """`relations` of the columns of a system given by its rows, whose
    coefficients are anything `GaussRat.of` reads."""
    columns: list[Vector] = [{} for _ in range(n_cols)]
    of = GaussRat.of
    for r, row in enumerate(equations):
        for c, v in row.items():
            if g := of(v):
                columns[c][r] = g
    return relations(columns)


def det(rows: Sequence[Sequence], normal_form: Callable | None = None):
    """The determinant over any commutative ring whose elements have
    `is_zero`, `+`, `-` and `*`, with no division: GaussRat matrices for
    group membership, cleared polynomial numerators for Wronskians.

    Laplace expansion along the first row, memoized over column sets: the
    minor on the last k rows and a set S of k columns is computed once,
    from the row above it and the minors one size smaller.  That is at most
    n * 2^(n-1) products, and zero entries and zero minors are skipped.
    `normal_form`, when given, is applied once to each minor of size two
    and more, so that polynomial minors stay reduced modulo a tower's
    relations; the entries are read as they are.
    """
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ValueError("determinant of an empty or non-square matrix")
    # minors of the last rows by their column set, as a bit mask
    minors = {1 << c: v for c, v in enumerate(rows[-1]) if not v.is_zero()}
    for row in reversed(rows[:-1]):
        grown: dict[int, object] = {}
        for mask, minor in minors.items():
            for c, v in enumerate(row):
                if mask >> c & 1 or v.is_zero():
                    continue
                term = v * minor
                # c's place in the grown set is the number of its columns below c
                odd = (mask & ((1 << c) - 1)).bit_count() & 1
                key = mask | 1 << c
                acc = grown.get(key)
                if acc is None:
                    grown[key] = -term if odd else term
                else:
                    grown[key] = acc - term if odd else acc + term
        if normal_form is not None:
            grown = {m: normal_form(v) for m, v in grown.items()}
        minors = {m: v for m, v in grown.items() if not v.is_zero()}
    if not minors:
        z = rows[0][0]
        return z - z
    return minors[(1 << n) - 1]


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
