"""Exact sparse linear algebra, cross-checked against an independent oracle."""

from fractions import Fraction

import pytest
import sympy

from realpv import Context, GaussRat, Poly, Unsupported
from realpv.linsolve import (
    Echelon, adjugate, det, identity, kernel, mat_conj, mat_mul, relations,
)

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
    # A zero top-left entry, where elimination would have to swap rows.
    for n in (2, 3, 4):
        for _ in range(5):
            m = _rand_matrix(r, n)
            m[0][0] = GaussRat.of(0)
            oracle = sympy.Matrix([[_to_sympy(v) for v in row] for row in m]).det()
            assert sympy.simplify(_to_sympy(det(m)) - oracle) == 0
    # Singular matrices that leave a column with no pivot: a zero first
    # column, and a second column that is a multiple of the first.
    for _ in range(5):
        flat = _rand_matrix(r, 2)
        for row in flat:
            row[0] = GaussRat.of(0)
        q = rand_gauss(r)
        dependent = _rand_matrix(r, 3)
        for row in dependent:
            row[1] = q * row[0]
        for m in (flat, dependent):
            assert det(m) == GaussRat.of(0)
            assert sympy.Matrix([[_to_sympy(v) for v in row] for row in m]).det() == 0
    for bad in ([], [[GaussRat.of(1), GaussRat.of(2)]]):
        with pytest.raises(ValueError):
            det(bad)


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


def _gauss_jordan_kernel(n_cols, equations):
    """The former kernel, kept as a reference: every new pivot row is
    back-substituted into all earlier ones, so the rows stay in reduced
    row-echelon form throughout."""
    zero, one = GaussRat.of(0), GaussRat.of(1)
    pivots = {}
    for raw in equations:
        eq = {c: GaussRat.of(v) for c, v in raw.items() if GaussRat.of(v)}
        for col in sorted(eq):
            row = pivots.get(col)
            factor = eq.get(col)
            if row is None or factor is None:
                continue
            del eq[col]
            for c, v in row.items():
                if c != col:
                    cur = eq.get(c, zero) - factor * v
                    if cur:
                        eq[c] = cur
                    else:
                        eq.pop(c, None)
        if not eq:
            continue
        col = min(eq)
        inv = eq[col].inverse()
        row = {c: v * inv for c, v in eq.items()}
        for prow in pivots.values():
            f = prow.pop(col, None)
            if f is None:
                continue
            for c, v in row.items():
                if c != col:
                    cur = prow.get(c, zero) - f * v
                    if cur:
                        prow[c] = cur
                    else:
                        prow.pop(c, None)
        pivots[col] = row
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = [zero] * n_cols
        vec[free] = one
        for pcol, row in pivots.items():
            if row.get(free):
                vec[pcol] = -row[free]
        basis.append(vec)
    return basis


def _from_sympy(x) -> GaussRat:
    re, im = sympy.expand_complex(x).as_real_imag()
    return GaussRat(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _sympy_kernel(n_cols, equations):
    """sympy's nullspace brought to the canonical basis: unit at each free
    column of the reduced row-echelon form, zero at the other free ones."""
    m = sympy.zeros(max(len(equations), 1), n_cols)
    for i, row in enumerate(equations):
        for j, c in row.items():
            m[i, j] = _to_sympy(c)
    _, pivots = m.rref()
    free = [c for c in range(n_cols) if c not in pivots]
    vectors = m.nullspace()
    if not vectors:
        return []
    b = sympy.Matrix.hstack(*vectors).T
    canon = b[:, free].inv() * b
    return [[_from_sympy(canon[i, j]) for j in range(n_cols)] for i in range(len(free))]


def _random_system(r):
    """A sparse system over Q(i) with some columns never used, and with
    empty rows, repeated rows and combinations of earlier rows mixed in."""
    n_cols = r.randint(1, 8)
    used = [j for j in range(n_cols) if r.random() < 0.85]
    eqs = []
    for _ in range(r.randint(0, n_cols + 2)):
        roll = r.random()
        if roll < 0.1:
            eqs.append({})
        elif roll < 0.2 and eqs:
            eqs.append(dict(r.choice(eqs)))
        elif roll < 0.35 and len(eqs) >= 2:
            a, b = r.sample(eqs, 2)
            ca, cb = rand_gauss(r), rand_gauss(r)
            row = {}
            for j in set(a) | set(b):
                v = ca * a.get(j, GaussRat.of(0)) + cb * b.get(j, GaussRat.of(0))
                if v:
                    row[j] = v
            eqs.append(row)
        else:
            row = {}
            for j in used:
                if r.random() < 0.5:
                    c = rand_gauss(r)
                    if c:
                        row[j] = c
            eqs.append(row)
    return n_cols, eqs


def test_kernel_is_the_canonical_basis():
    """kernel against the former Gauss-Jordan routine, and on every fifth
    system against sympy."""
    r = rng(24)
    seen = {"full rank": 0, "dimension >= 2": 0, "pivot left of free": 0,
            "zero column": 0, "empty row": 0, "repeated row": 0, "complex": 0}
    for k in range(200):
        n_cols, eqs = _random_system(r)
        basis = kernel(n_cols, eqs)
        assert basis == _gauss_jordan_kernel(n_cols, eqs)
        if k % 5 == 0:
            assert basis == _sympy_kernel(n_cols, eqs)
        seen["full rank"] += not basis
        seen["dimension >= 2"] += len(basis) >= 2
        # a vector's free column is its last nonzero entry, so one with two
        # nonzero entries has a nonzero pivot left of its free column, which
        # a back-substitution stopping at the free column would miss
        seen["pivot left of free"] += len(basis) >= 2 and any(
            sum(map(bool, vec)) >= 2 for vec in basis
        )
        seen["zero column"] += any(all(j not in row for row in eqs) for j in range(n_cols))
        seen["empty row"] += {} in eqs
        seen["repeated row"] += any(row and eqs.count(row) > 1 for row in eqs)
        seen["complex"] += any(c.im for row in eqs for c in row.values())
    assert all(seen.values()), seen


def _echelon_state(echelon):
    return {c: (dict(row), inv) for c, (row, inv, _) in echelon.pivots.items()}


@pytest.mark.parametrize("labels", ["int", "tuple"])
def test_echelon_add_tracks_the_rank(labels):
    """add answers whether sympy's rank grows, under int column labels and
    under monomial-key tuples in shuffled order; adding to a copy leaves the
    original's rows and answers as they were."""
    r = rng(26)
    seen = {"independent": 0, "dependent": 0, "complex": 0, "copy grew": 0}
    for _ in range(60):
        n_cols, eqs = _random_system(r)
        if labels == "tuple":
            keys = [(d, d - j, j) for d in range(4) for j in range(d + 1)][:n_cols]
            r.shuffle(keys)
            eqs = [{keys[j]: c for j, c in row.items()} for row in eqs]
        else:
            keys = list(range(n_cols))
        column = {k: j for j, k in enumerate(keys)}
        echelon = Echelon()
        m = sympy.zeros(0, n_cols)
        rank = 0
        for vec in eqs:
            line = sympy.zeros(1, n_cols)
            for k, c in vec.items():
                line[0, column[k]] = _to_sympy(c)
            m = m.col_join(line)
            grew = m.rank() > rank
            rank += grew
            snapshot = dict(vec)
            assert echelon.add(vec) is grew
            assert vec == snapshot
            seen["independent" if grew else "dependent"] += 1
            seen["complex"] += any(c.im for c in vec.values())
        before = _echelon_state(echelon)
        extra = [
            {k: c for k in keys if r.random() < 0.5 and (c := rand_gauss(r))}
            for _ in range(3)
        ]
        answers = [echelon.copy().add(dict(vec)) for vec in extra]
        other = echelon.copy()
        for vec in extra:
            other.add(dict(vec))
        assert _echelon_state(echelon) == before
        assert [echelon.copy().add(dict(vec)) for vec in extra] == answers
        seen["copy grew"] += len(other.pivots) > len(echelon.pivots)
    assert all(seen.values()), seen


def _random_family(r, labels):
    """Sparse vectors over Q(i) under the given labels, mixing zero vectors,
    repeated ones (the same dict again), combinations of earlier ones, and
    vectors that take an earlier one's leading label with other entries
    below it."""
    zero = GaussRat.of(0)
    vectors = []
    for _ in range(r.randint(1, 9)):
        roll = r.random()
        earlier = [v for v in vectors if v]
        if roll < 0.1:
            vectors.append({})
        elif roll < 0.2 and vectors:
            vectors.append(r.choice(vectors))
        elif roll < 0.35 and len(earlier) >= 2:
            a, b = r.sample(earlier, 2)
            ca, cb = rand_gauss(r), rand_gauss(r)
            vec = {}
            for j in set(a) | set(b):
                if v := ca * a.get(j, zero) + cb * b.get(j, zero):
                    vec[j] = v
            vectors.append(vec)
        elif roll < 0.6 and earlier:
            lead = max(r.choice(earlier))
            vec = {lead: rand_gauss(r) or GaussRat.of(1)}
            for j in labels:
                if j < lead and r.random() < 0.5 and (c := rand_gauss(r)):
                    vec[j] = c
            vectors.append(vec)
        else:
            vectors.append({j: c for j in labels if r.random() < 0.4 and (c := rand_gauss(r))})
    return vectors


@pytest.mark.parametrize("labels", ["int", "tuple"])
def test_relations_is_the_canonical_nullspace(labels):
    """relations against the Gauss-Jordan reference and, on every fourth
    family, against sympy's nullspace brought to reduced row-echelon form,
    on seeded families whose leading labels collide, with repeated and zero
    vectors and relation spaces of dimension 2 and more; the vectors come
    back unchanged."""
    r = rng(31)
    seen = {"collision": 0, "collision kept": 0, "repeated": 0, "zero": 0,
            "dimension >= 2": 0, "complex": 0, "full rank": 0}
    for i in range(120):
        n_labels = r.randint(1, 7)
        if labels == "tuple":
            keys = [(d, d - j, j) for d in range(4) for j in range(d + 1)][:n_labels]
            r.shuffle(keys)
        else:
            keys = list(range(n_labels))
        vectors = _random_family(r, keys)
        before = [dict(v) for v in vectors]
        basis = relations(vectors)
        assert [dict(v) for v in vectors] == before
        rows = [{k: v[key] for k, v in enumerate(vectors) if key in v} for key in keys]
        assert basis == _gauss_jordan_kernel(len(vectors), rows)
        if i % 4 == 0:
            assert basis == _sympy_kernel(len(vectors), rows)
        dependent = {max(k for k, c in enumerate(vec) if c) for vec in basis}
        leads = [max(v) if v else None for v in vectors]
        for k, lead in enumerate(leads):
            if lead is not None and lead in leads[:k]:
                seen["collision"] += 1
                seen["collision kept"] += k not in dependent
        seen["repeated"] += any(v is w for i, v in enumerate(vectors) for w in vectors[:i])
        seen["zero"] += {} in vectors
        seen["dimension >= 2"] += len(basis) >= 2
        seen["complex"] += any(c.im for v in vectors for c in v.values())
        seen["full rank"] += not basis
    assert all(seen.values()), seen


def test_kernel_transposes_its_rows_for_relations():
    """kernel reads a system by rows, with int and Fraction coefficients,
    as relations reads its columns."""
    eqs = [{0: 1, 2: Fraction(1, 2)}, {1: 3, 2: 0}, {}]
    columns = [{0: GaussRat.of(1)}, {1: GaussRat.of(3)}, {0: GaussRat.of(Fraction(1, 2))}]
    assert kernel(3, eqs) == relations(columns)
    assert kernel(3, eqs) == [[GaussRat.of(Fraction(-1, 2)), GaussRat.of(0), GaussRat.of(1)]]


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
