"""Wronskian determinants: exact values, oracles, and the alternating law."""

from __future__ import annotations

import itertools

import pytest

from realpv import (
    DiffTower,
    EmptyInput,
    GaussRat,
    independent_over_constants,
    wronskian_det,
    wronskian_matrix,
)
from realpv.wronskian import WrMatrix

from helpers import rand_element, rng


def _permanent_style_det(tower, rows):
    """Leibniz expansion over all permutations, the slow reference."""
    n = len(rows)
    total = tower.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for idx in range(n):
            for jdx in range(idx + 1, n):
                if seen[idx] > seen[jdx]:
                    sign = -sign
        term = tower.one()
        for idx in range(n):
            term = term * rows[idx][perm[idx]]
        total = total + (term if sign > 0 else -term)
    return total


def test_sine_cosine_pair_has_wronskian_minus_one(circle):
    s, c = circle.var("s"), circle.var("c")
    w = wronskian_matrix(circle, [s, c])
    assert str(wronskian_det(w)) == "-1"
    assert independent_over_constants(circle, [s, c])


def test_exponential_with_t_is_independent(exp_tower):
    e = exp_tower.var("e")
    t = exp_tower.var("t")
    assert independent_over_constants(exp_tower, [e, t])
    # Wr(e, t) = e - t*e
    w = wronskian_det(wronskian_matrix(exp_tower, [e, t]))
    assert w == exp_tower.parse("e - t*e")


def test_empty_family_rejected(circle):
    with pytest.raises(EmptyInput):
        wronskian_matrix(circle, [])


def test_bareiss_matches_permutation_expansion(circle):
    r = rng(20)
    for n in (2, 3):
        for _ in range(8):
            rows = [[rand_element(r, circle, max_terms=2) for _ in range(n)] for _ in range(n)]
            fast = wronskian_det(WrMatrix(rows))
            slow = _permanent_style_det(circle, rows)
            assert fast == slow


def test_constant_multiple_collapses(exp_tower):
    r = rng(21)
    e = exp_tower.var("e")
    for _ in range(20):
        q = GaussRat.of(r.randint(-6, 6)) / GaussRat.of(r.randint(1, 6))
        fam = [e, e.scale(q)]
        w = wronskian_det(wronskian_matrix(exp_tower, fam))
        assert w.is_zero()
        assert not independent_over_constants(exp_tower, fam)


def test_constant_linear_combination_collapses(circle):
    r = rng(22)
    s, c = circle.var("s"), circle.var("c")
    for _ in range(20):
        q1 = GaussRat.of(r.randint(-5, 5)) / GaussRat.of(r.randint(1, 4))
        q2 = GaussRat.of(r.randint(-5, 5)) / GaussRat.of(r.randint(1, 4))
        y3 = s.scale(q1) + c.scale(q2)
        w = wronskian_det(wronskian_matrix(circle, [s, c, y3]))
        assert w.is_zero()


def test_nonconstant_coefficient_does_not_collapse(circle):
    # t*s is not a constant multiple of s, the pair stays independent
    s = circle.var("s")
    t = circle.var("t")
    assert independent_over_constants(circle, [s, t * s])


def test_swap_flips_sign(circle):
    r = rng(23)
    for _ in range(30):
        fam = [rand_element(r, circle, max_terms=2) for _ in range(3)]
        i, j = r.sample(range(3), 2)
        swapped = list(fam)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        a = wronskian_det(wronskian_matrix(circle, fam))
        b = wronskian_det(wronskian_matrix(circle, swapped))
        assert a == -b


def test_repeated_entry_vanishes(circle):
    r = rng(24)
    for _ in range(10):
        x = rand_element(r, circle, max_terms=2)
        y = rand_element(r, circle, max_terms=2)
        w = wronskian_det(wronskian_matrix(circle, [x, y, x]))
        assert w.is_zero()


def test_matrix_shape_guard(circle):
    s = circle.var("s")
    with pytest.raises(ValueError):
        WrMatrix([[s, s], [s]])
