"""Exact sparse linear algebra, cross-checked against an independent oracle."""

from fractions import Fraction

import pytest
import sympy

from realpv import Context, GaussRat, Poly, Unsupported
from realpv.linsolve import adjugate, det, identity, inverse, kernel, mat_conj, mat_mul

from helpers import rand_gauss, rng


def _to_sympy(v: GaussRat):
    return sympy.Rational(v.re) + sympy.I * sympy.Rational(v.im)


def _rand_matrix(r, n, complex_ok=True):
    return [[rand_gauss(r, complex_ok=complex_ok) for _ in range(n)] for _ in range(n)]


def test_det_against_sympy():
    r = rng(21)
    for n in (1, 2, 3, 4):
        for _ in range(15):
            m = _rand_matrix(r, n)
            mine = det(m)
            oracle = sympy.Matrix(
                [[_to_sympy(v) for v in row] for row in m]
            ).det()
            assert sympy.simplify(_to_sympy(mine) - oracle) == 0


def test_inverse_property():
    r = rng(22)
    for n in (1, 2, 3):
        for _ in range(20):
            m = _rand_matrix(r, n)
            inv = inverse(m)
            if det(m):
                assert inv is not None
                assert mat_mul(m, inv) == identity(n)
                assert mat_mul(inv, m) == identity(n)
            else:
                assert inv is None


def test_kernel_vectors_annihilate():
    r = rng(23)
    for _ in range(30):
        n_cols = r.randint(1, 6)
        eqs = []
        for _ in range(r.randint(0, 4)):
            row = {}
            for j in range(n_cols):
                if r.random() < 0.5:
                    c = rand_gauss(r)
                    if c:
                        row[j] = c
            eqs.append(row)
        basis = kernel(n_cols, eqs)
        for vec in basis:
            for row in eqs:
                total = GaussRat.of(0)
                for j, c in row.items():
                    total = total + c * vec[j]
                assert not total
        # rank-nullity against sympy
        m = sympy.zeros(max(len(eqs), 1), n_cols)
        for i, row in enumerate(eqs):
            for j, c in row.items():
                m[i, j] = _to_sympy(c)
        assert len(basis) == n_cols - m.rank()


def test_mat_conj():
    i = GaussRat(Fraction(0), Fraction(1))
    assert mat_conj([[i]]) == [[-i]]


def test_adjugate_of_small_matrices():
    r = rng(23)
    for n in (1, 2):
        for _ in range(10):
            m = _rand_matrix(r, n)
            adj, d = adjugate(m)
            assert d == det(m)
            assert mat_mul(m, adj) == [[v * d for v in row] for row in identity(n)]
    with pytest.raises(Unsupported):
        adjugate(identity(3))


def test_matrix_helpers_take_polynomial_entries():
    ctx = Context(["x", "y"])
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    i = Poly.const(ctx, GaussRat(Fraction(0), Fraction(1)))
    m = [[x, i * y], [y, x]]
    adj, d = adjugate(m)
    assert d == x * x - i * y * y
    assert mat_mul(m, adj) == [[d, Poly.zero(ctx)], [Poly.zero(ctx), d]]
    assert mat_conj(m) == [[x, -i * y], [y, x]]
