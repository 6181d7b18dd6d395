"""The `algebra` workload: field arithmetic on four towers, with no constant
scan and no correspondence.

Towers (generator, derivation, relation):

- circle: c' = -s, s' = c, s^2 + c^2 = 1       (c = cos t, s = sin t)
- radical: g' = g/(3t), g^3 = t                 (g = t^(1/3))
- exponential: e' = t*e                         (e = exp(t^2/2))
- seidenberg: a' = b, b' = -4a, 4a^2 + b^2 + 1 = 0
                                 (a = i/2 cos 2t, b = -i sin 2t)

Every tower gets the same catalogue of ops on random elements drawn from
a fixed catalogue seed, so that every pass and every run does the same
work: chained `+ * /`, `derive`, `==`, 2x2 and 3x3 `wronskian_det`, and
`independent_over_constants`.  Wronskians stop at order 3; a 4x4 one on
such elements did not finish in ten minutes at the seed commit.

The analytic models above drive an independent check: sympy
differentiates the model functions and mpmath evaluates both sides at
two points with 60 digits.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Callable

import realpv.wronskian as wr
from realpv.errors import DivisionByZero
from realpv.gauss import GaussRat
from realpv.poly import Monomial, Poly
from realpv.seidenberg import build_seidenberg
from realpv.tower import DiffTower, FieldElement

CATALOGUE_SEED = 1207
PER_KIND = {"chain": 3, "derive": 3, "eq": 3, "wr2": 3, "wr3": 3, "indep": 2}
ORACLE_SAMPLE = 8
ORACLE_POINTS = ("0.7391", "1.3177")
DIGITS = 60


def towers() -> dict[str, DiffTower]:
    base = DiffTower(base_var="t")
    t = base.var("t")
    return {
        "circle": base.adjoin_abstract(["c", "s"], ["-s", "c"], ["s^2+c^2-1"]),
        "radical": base.adjoin_algebraic("g", "g^3-t", "g/(3*t)"),
        "exponential": base.adjoin_exponential("e", t),
        "seidenberg": build_seidenberg(),
    }


def _rand_poly(r: random.Random, tw: DiffTower, n_terms: int, max_deg: int) -> Poly:
    names = list(tw.context.variables)
    terms: dict[Monomial, GaussRat] = {}
    while len(terms) < n_terms:
        exps: dict[str, int] = {}
        budget = r.randint(0, max_deg)
        while budget > 0:
            v = r.choice(names)
            e = r.randint(1, budget)
            exps[v] = exps.get(v, 0) + e
            budget -= e
        c = Fraction(r.choice((-3, -2, -1, 1, 2, 3)), r.randint(1, 3))
        terms[Monomial(exps)] = GaussRat(c)
    return Poly(tw.context, terms)


def rand_element(r: random.Random, tw: DiffTower, n_num: int, n_den: int) -> FieldElement:
    """A nonzero element with n_num numerator and n_den denominator terms
    of degree at most 2 (n_den = 0 gives a polynomial)."""
    while True:
        num = _rand_poly(r, tw, n_num, 2)
        den = _rand_poly(r, tw, n_den, 2) if n_den else None
        try:
            x = tw.elem(num, den)
        except DivisionByZero:
            continue
        if not x.is_zero():
            return x


def chain(xs: list[FieldElement]) -> FieldElement:
    acc = xs[0]
    for k, x in enumerate(xs[1:]):
        step = k % 3
        acc = acc + x if step == 0 else (acc * x if step == 1 else acc / x)
    return acc


def _ops_for(tw: DiffTower, kind: str, xs: list[FieldElement]) -> Callable[[], Any]:
    if kind == "chain":
        return lambda: chain(xs)
    if kind == "derive":
        return lambda: xs[0].derive()
    if kind == "eq":
        x, y, z = xs
        return lambda: (x + y) * z == x * z + y * z
    if kind in ("wr2", "wr3"):
        return lambda: wr.wronskian_det(wr.wronskian_matrix(tw, xs))
    return lambda: wr.independent_over_constants(tw, xs)


# (number of elements, numerator terms, denominator terms) per op kind
_SHAPES = {
    "chain": (8, 2, 1),
    "derive": (1, 3, 2),
    "eq": (3, 2, 1),
    "wr2": (2, 2, 1),
    "wr3": (3, 2, 1),
    "indep": (3, 2, 1),
}


class Catalogue:
    def __init__(self):
        self.towers = towers()
        r = random.Random(CATALOGUE_SEED)
        self.inputs: dict[str, tuple[str, str, list[FieldElement]]] = {}
        for tname, tw in self.towers.items():
            for kind, count in PER_KIND.items():
                n, n_num, n_den = _SHAPES[kind]
                for i in range(count):
                    xs = [rand_element(r, tw, n_num, n_den) for _ in range(n)]
                    self.inputs[f"{tname}.{kind}.{i}"] = (tname, kind, xs)

    def ops(self) -> list[tuple[str, Callable[[], Any]]]:
        return [
            (key, _ops_for(self.towers[tname], kind, xs))
            for key, (tname, kind, xs) in self.inputs.items()
        ]

    def matches(self, key: str, result: Any, want: str) -> bool:
        """Whether a result equals its golden text."""
        if str(result) == want:
            return True
        # a later canonical form may print the same value differently
        tw = self.towers[self.inputs[key][0]]
        return isinstance(result, FieldElement) and result == tw.parse(want)

    def oracle_check(self, results: dict[str, Any], seed: int) -> list[str]:
        """Re-check a seeded sample of results against sympy; returns the
        keys that disagree.  Skipped (empty) when sympy is not installed."""
        try:
            import sympy
        except ImportError:
            return []
        sample = random.Random(seed).sample(sorted(results), min(ORACLE_SAMPLE, len(results)))
        return [k for k in sorted(sample) if not self._agrees(sympy, k, results[k])]

    def _agrees(self, sympy, key: str, result: Any) -> bool:
        import mpmath

        tname, kind, xs = self.inputs[key]
        t = sympy.Symbol("t")
        model = _models(sympy, t)[tname]
        sx = [_to_sympy(sympy, x, model) for x in xs]
        with mpmath.workdps(DIGITS):
            tol = mpmath.mpf(10) ** (30 - DIGITS)
            for point in ORACLE_POINTS:
                subs = {t: sympy.Rational(point)}

                def at(expr):
                    v = sympy.sympify(expr).evalf(DIGITS, subs=subs)
                    re, im = v.as_real_imag()
                    return mpmath.mpc(mpmath.mpf(str(re)), mpmath.mpf(str(im)))

                if kind == "chain":
                    want = at(chain(sx))
                elif kind == "derive":
                    want = at(sympy.diff(sx[0], t))
                elif kind == "eq":
                    x, y, z = sx
                    want = abs(at((x + y) * z - (x * z + y * z))) < tol
                else:
                    rows = [[at(sympy.diff(f, t, k)) for f in sx] for k in range(len(sx))]
                    det = mpmath.det(mpmath.matrix(rows))
                    want = det if kind != "indep" else abs(det) >= tol
                if isinstance(result, FieldElement):
                    got = _evaluate(result, {v: at(f) for v, f in model.items()})
                    if abs(got - want) > tol * max(1, abs(want)):
                        return False
                elif result != want:
                    return False
        return True


def _models(sympy, t) -> dict[str, dict[str, Any]]:
    """The analytic functions each tower's generators stand for."""
    return {
        "circle": {"t": t, "c": sympy.cos(t), "s": sympy.sin(t)},
        "radical": {"t": t, "g": t ** sympy.Rational(1, 3)},
        "exponential": {"t": t, "e": sympy.exp(t**2 / 2)},
        "seidenberg": {
            "a": sympy.I / 2 * sympy.cos(2 * t),
            "b": -sympy.I * sympy.sin(2 * t),
        },
    }


def _to_sympy(sympy, x: FieldElement, model: dict):
    def poly(p: Poly):
        out = sympy.Integer(0)
        for m, c in p.terms.items():
            term = sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)
            for v, e in m.exponents().items():
                term *= model[v] ** e
            out += term
        return out

    return poly(x.num) / poly(x.den)


def _evaluate(x: FieldElement, env: dict):
    import mpmath

    def poly(p: Poly):
        out = mpmath.mpc(0)
        for m, c in p.terms.items():
            term = mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator,
                              mpmath.mpf(c.im.numerator) / c.im.denominator)
            for v, e in m.exponents().items():
                term *= env[v] ** e
            out += term
        return out

    return poly(x.num) / poly(x.den)
