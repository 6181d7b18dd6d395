"""Shared generators for randomized tests, all explicitly seeded."""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from realpv import Context, DiffTower, GaussRat, Monomial, Poly
from realpv.poly import mono_divides


def bench_algebra():
    """The benchmark's `algebra` workload module, bench/algebra.py: its
    four towers (`towers()`) and its element generator (`rand_element`)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "algebra.py"
    spec = importlib.util.spec_from_file_location("bench_algebra", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


def rand_fraction(r: random.Random, span: int = 5) -> Fraction:
    num = r.randint(-span, span)
    den = r.randint(1, span)
    return Fraction(num, den)


def rand_gauss(r: random.Random, span: int = 5, complex_ok: bool = True) -> GaussRat:
    re = rand_fraction(r, span)
    im = rand_fraction(r, span) if complex_ok and r.random() < 0.5 else Fraction(0)
    return GaussRat(re, im)


def rand_monomial(r: random.Random, ctx: Context, max_degree: int = 3) -> Monomial:
    exps = {}
    budget = r.randint(0, max_degree)
    names = list(ctx.variables)
    while budget > 0 and names:
        v = r.choice(names)
        e = r.randint(1, budget)
        exps[v] = exps.get(v, 0) + e
        budget -= e
    return Monomial(exps)


def rand_poly(
    r: random.Random,
    ctx: Context,
    max_terms: int = 4,
    max_degree: int = 3,
    complex_ok: bool = True,
) -> Poly:
    terms = {}
    for _ in range(r.randint(0, max_terms)):
        m = rand_monomial(r, ctx, max_degree)
        c = rand_gauss(r, complex_ok=complex_ok)
        if c:
            terms[m] = terms.get(m, GaussRat.of(0)) + c
    return Poly(ctx, {m: c for m, c in terms.items() if c})


def rand_element(r: random.Random, tower: DiffTower, max_terms: int = 3):
    """Random nonzero-denominator field element of a tower."""
    num = rand_poly(r, tower.context, max_terms=max_terms, complex_ok=False)
    den = Poly.zero(tower.context)
    while den.is_zero():
        den = rand_poly(r, tower.context, max_terms=2, max_degree=2, complex_ok=False)
    return tower.elem(num, den)


def leibniz_derive(tower: DiffTower, x):
    """The former `DiffTower.derive`, kept as a reference: each variable's
    derivative as a field element (t' = 1, parameters 0), the derivative
    of a polynomial by linearity and the Leibniz rule, one element per
    variable, and the quotient rule in field element arithmetic."""
    x = tower.lift(x)
    ctx = tower.context
    derivs = {}
    if tower.base_var:
        derivs[tower.base_var] = tower.one()
    for s in tower.specs:
        derivs[s.name] = tower.elem(s.deriv_num, s.deriv_den)

    def derive_poly(p):
        out = tower.zero()
        for v in sorted(p.variables(), key=ctx.rank):
            dv = derivs.get(v)
            if dv is not None and not dv.is_zero():
                out = out + tower.elem(p.partial(v)) * dv
        return out

    n, d = tower.elem(x.num), tower.elem(x.den)
    return (derive_poly(x.num) * d - n * derive_poly(x.den)) / (d * d)


def eager_scan_columns(tower: DiffTower, window, coeff_degree_bound: int):
    """The scan's columns, kept as a reference for
    `DiffTower._scan_relations`, which builds them only where their leading
    monomials meet: every column written as a dict, the normal form of
    D(b) * E * t^K for the window element b = m * t^j, with
    K = coeff_degree_bound + 1, from T_m = nf(t * M_m) and ME_m = nf(m * E)
    per monomial (M_m alone without a base variable)."""
    ctx = tower.context
    nf = tower.rewrite.normal_form
    t = tower.base_var
    one = GaussRat.of(1)
    if t:
        t_unit = ctx.pack(Monomial.var(t))
        shift = ctx.shifter(t)
        reducible = any(ctx.unpack(r.lhs).degree_in(t) for r in tower.rewrite.rules)
    parts = {}
    columns = []
    for m, j in window:
        if m not in parts:
            mm = tower._cleared_derivative(Poly._build(ctx, {m: one}))
            me = tower.common_denominator.mul_monomial(m)
            if t:
                parts[m] = nf(mm.mul_monomial(t_unit)).by_key, nf(me).by_key
            else:
                parts[m] = nf(mm).by_key, {}
        tn, me = parts[m]
        if not t:
            columns.append(dict(tn))
            continue
        s, g = j + coeff_degree_bound, GaussRat.of(j)
        col = {}
        for key in set(tn) | set(me):
            c = tn.get(key, GaussRat.of(0)) + me.get(key, GaussRat.of(0)) * g
            if c:
                col[shift(key, s)] = c
        if reducible:
            col = nf(Poly._build(ctx, col)).by_key
        columns.append(col)
    return columns


def reduced_scan_columns(window, columns):
    """The scan's columns as `DiffTower._scan_relations` reads their leads,
    written from the eager ones: in window order, each monomial's columns
    are top-reduced by the leading monomial of its j = 0 column against
    the j = 0 columns kept from earlier monomials, and each kept
    monomial's column at every j is subtracted with the same factor."""
    zero = GaussRat.of(0)

    def minus_times(a, b, f):
        out = {key: a.get(key, zero) - f * b.get(key, zero) for key in set(a) | set(b)}
        return {key: c for key, c in out.items() if c}

    by_monomial = {}
    for (m, j), col in zip(window, columns):
        by_monomial.setdefault(m, {})[j] = col
    kept, reduced = {}, {}
    for m, cols in by_monomial.items():
        while cols[0]:
            lead = max(cols[0])
            hit = kept.get(lead)
            if hit is None:
                kept[lead] = cols
                break
            f = cols[0][lead] / hit[0][lead]
            cols = {j: minus_times(col, hit[j], f) for j, col in cols.items()}
        reduced[m] = cols
    return [reduced[m][j] for m, j in window]


def enumerated_monomials(tower: DiffTower, max_degree: int):
    """The former `DiffTower.irreducible_monomials`, kept as a reference:
    every exponent vector of the generators with total degree at most
    max_degree, packed from a `Monomial`, with the keys that a rule's
    leading monomial divides dropped, sorted."""
    gens = tower.generator_names()
    lhss = [r.lhs for r in tower.rewrite.rules]
    out = []

    def rec(idx, budget, acc):
        if idx == len(gens):
            m = tower.context.pack(Monomial(acc))
            if not any(mono_divides(l, m) for l in lhss):
                out.append(m)
            return
        for e in range(budget + 1):
            nxt = dict(acc)
            if e:
                nxt[gens[idx]] = e
            rec(idx + 1, budget - e, nxt)

    rec(0, max_degree, {})
    return sorted(out)
