"""Shared generators for randomized tests, all explicitly seeded."""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from realpv import Context, DiffTower, GaussRat, Monomial, Poly


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
