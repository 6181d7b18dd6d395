"""Picard-Vessiot extensions for a closed list of equation classes.

A PV extension of the base field is presented as a tower carrying a full
system of solutions of a monic linear ODE, certified by four checks, three
exact and one bounded:

  * every listed solution satisfies the equation (normal form zero),
  * the wronskian of the solution system is invertible,
  * a constant scan of the tower up to the scan bounds finds no new
    constants (bounded: constants beyond the bounds are not seen),
  * the solution derivatives match the recorded first-order companion
    matrix (normal form zero).

The supported construction classes:

  EXP         Y' = f Y            one exponential generator
  RADICAL     Y' = (p/q)(f'/f) Y  one algebraic generator, g^q = f^p
  CIRCLE      Y'' + w^2 Y = 0     sine/cosine pair, s^2 + c^2 = 1
  CONSTCOEFF2 Y'' + aY' + bY = 0  rational constants; split by root type

Each class builder returns a presentation: the tower, the solutions and
the first-order companion matrix of the solutions over the base, from
which the Galois-group module reads the relations of the solutions.
`build_pv` makes the one `PVExtension` of it and certifies it.  Each
builder reads the real presentation directly over the base field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import NotPV, UnsupportedEquation
from .gauss import GaussRat, is_square, rational_sqrt
from .poly import MAX_INT_DIGITS, Poly, power_overrun, too_many_digits
from .report import Report
from .tower import DiffTower, FieldElement
from .wronskian import Ladder, WrMatrix, wronskian_det

__all__ = [
    "LinearODE",
    "PVExtension",
    "build_pv",
    "companion_residue",
    "EQUATION_CLASSES",
]

EQUATION_CLASSES = ("EXP", "RADICAL", "CIRCLE", "CONSTCOEFF2")

DEFAULT_SCAN_BOUNDS = (4, 3)
# The largest scan bounds the command line takes.  The window has one
# element per generator monomial and Laurent power of t, so it grows with
# both; a cold `build` of bench/scenarios/constcoeff_complex.json at
# (20, 20) takes under a second.
MAX_SCAN_BOUNDS = (20, 20)


@dataclass(frozen=True)
class LinearODE:
    """Monic linear ODE  y^(n) + a_{n-1} y^(n-1) + ... + a_0 y = 0
    with coefficients in a base tower, listed from a_0 upward."""

    base: DiffTower
    coeffs: tuple[FieldElement, ...]

    @staticmethod
    def from_texts(base: DiffTower, texts: Sequence[str]) -> "LinearODE":
        return LinearODE(base, tuple(base.parse(s) for s in texts))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def apply(self, y: FieldElement) -> FieldElement:
        """Evaluate the differential operator at y (in y's tower)."""
        return self.evaluate(Ladder(y, self.order))

    def evaluate(self, ladder: Sequence[FieldElement]) -> FieldElement:
        """The operator at y, from the ladder y, y', ..., y^(n) of y (in
        y's tower); entries past y^(n) are ignored."""
        tower = ladder[0].tower
        acc = ladder[self.order]
        for k, a in enumerate(self.coeffs):
            acc = acc + tower.lift(a) * ladder[k]
        return acc

    def describe(self) -> str:
        n = self.order
        parts = [f"Y^({n})" if n > 2 else ("Y''" if n == 2 else "Y'")]
        for k in range(n - 1, -1, -1):
            a = self.coeffs[k]
            if a.is_zero():
                continue
            dk = "Y" + ("'" * k if k <= 2 else f"^({k})")
            parts.append(f"({a})*{dk}")
        return " + ".join(parts) + " = 0"


@dataclass
class PVExtension:
    base: DiffTower
    extension: DiffTower
    ode: LinearODE
    eq_class: str
    solutions: tuple[FieldElement, ...]
    companion: tuple[tuple[FieldElement, ...], ...]
    scan_bounds: tuple[int, int]
    certificates: Report = field(default_factory=Report)

    @property
    def order(self) -> int:
        return self.ode.order


# -- construction -------------------------------------------------------------


def _rational_const(x: FieldElement) -> Fraction | None:
    v = x.as_scalar()
    if v is None or v.im != 0:
        return None
    return v.re


def companion_residue(
    tower: DiffTower,
    ys: Sequence[FieldElement],
    dy: FieldElement,
    column: Sequence[FieldElement],
) -> FieldElement:
    """dy - sum_i column[i] * ys[i] in `tower`, for ys in the tower, the
    derivative dy of one of them and a coefficient column over the base:
    zero exactly when that solution satisfies its row of the first-order
    system."""
    out = dy
    for a, y in zip(column, ys):
        if not a.is_zero():
            out = out - tower.lift(a) * y
    return out


def _certify(pv: PVExtension) -> Report:
    rep = Report("certificates")
    tower = pv.extension
    sols = [tower.lift(s) for s in pv.solutions]
    # each solution is derived once, up to the order the equation and the
    # wronskian need; all three derivative checks read these ladders
    depth = max(pv.order, len(sols) - 1)
    ladders = [Ladder(y, depth) for y in sols]
    bad = [
        (i, r) for i, l in enumerate(ladders) if not (r := pv.ode.evaluate(l)).is_zero()
    ]
    rep.add(
        "solutions_satisfy_equation",
        not bad,
        "all normal forms zero"
        if not bad
        else f"solution {bad[0][0] + 1} leaves residue {bad[0][1]}",
    )
    det = wronskian_det(WrMatrix(ladders))
    rep.add(
        "wronskian_invertible",
        not det.is_zero(),
        f"wronskian determinant = {det}",
    )
    news = tower.constant_scan(*pv.scan_bounds)
    rep.add(
        "no_new_constants_in_window",
        not news,
        f"scan bounds {pv.scan_bounds}: "
        + ("no new constants" if not news else "found " + ", ".join(str(x) for x in news)),
    )
    rep.add(
        "companion_matrix_consistent",
        all(
            companion_residue(
                tower, sols, ladders[j][1], [row[j] for row in pv.companion]
            ).is_zero()
            for j in range(len(sols))
        ),
        "solution derivatives match the recorded first-order system",
    )
    return rep


def _finish(pv: PVExtension) -> PVExtension:
    rep = _certify(pv)
    pv.certificates = rep
    if not rep.ok:
        names = ", ".join(c.name for c in rep.failures())
        raise NotPV(f"certificate failed: {names}", rep)
    return pv


def _build_exp(base: DiffTower, ode: LinearODE):
    if ode.order != 1:
        raise UnsupportedEquation("EXP expects a first-order equation")
    rate = -ode.coeffs[0]
    ext = base.adjoin_exponential("e", rate)
    return ext, (ext.var("e"),), ((rate,),)


def _build_radical(base: DiffTower, ode: LinearODE, radical_base: FieldElement | None):
    if ode.order != 1:
        raise UnsupportedEquation("RADICAL expects a first-order equation")
    f = radical_base if radical_base is not None else (
        base.var(base.base_var) if base.base_var else None
    )
    if f is None:
        raise UnsupportedEquation("RADICAL needs a base element f with a0 = -(p/q) f'/f")
    df = f.derive()
    if df.is_zero():
        raise UnsupportedEquation("radical base element is constant")
    ratio = -ode.coeffs[0] * f / df
    r = _rational_const(ratio)
    if r is None:
        raise UnsupportedEquation(
            f"a0 is not a rational multiple of f'/f for f = {f}"
        )
    p, q = r.numerator, r.denominator
    if p <= 0:
        raise UnsupportedEquation(
            f"radical exponent {r} not supported (need p/q with p >= 1)"
        )
    why = power_overrun((f.num, f.den), p)
    if not why:
        num, den = f.num**p, f.den**p
        if too_many_digits((num, den)):
            why = f"the power has an integer of more than {MAX_INT_DIGITS} digits"
    if why:
        raise UnsupportedEquation(f"radical power f^{p} not supported: {why}")
    ctx = base.extended_context(["g"])
    gq = Poly.variable(ctx, "g", q)
    relation = den.in_context(ctx) * gq - num.in_context(ctx)
    rate = -ode.coeffs[0]
    deriv = (rate.num.in_context(ctx) * Poly.variable(ctx, "g"), rate.den.in_context(ctx))
    ext = base.adjoin_algebraic("g", relation, deriv)
    return ext, (ext.var("g"),), ((rate,),)


def _build_circle(base: DiffTower, ode: LinearODE):
    if ode.order != 2 or not ode.coeffs[1].is_zero():
        raise UnsupportedEquation("CIRCLE expects Y'' + w^2 Y = 0")
    a0 = _rational_const(ode.coeffs[0])
    if a0 is None or a0 <= 0 or not is_square(a0):
        raise UnsupportedEquation("CIRCLE needs a0 = w^2 with w rational nonzero")
    # the conjugate pair +/- wi of CONSTCOEFF2, with the solutions listed as
    # (s, c): the companion matrix is conjugated by the swap
    tower, (c, s), ((a, b), (d, e)) = _build_constcoeff2(base, ode)
    return tower, (s, c), ((e, d), (b, a))


def _build_constcoeff2(base: DiffTower, ode: LinearODE):
    if ode.order != 2:
        raise UnsupportedEquation("CONSTCOEFF2 expects a second-order equation")
    b = _rational_const(ode.coeffs[0])
    a = _rational_const(ode.coeffs[1])
    if a is None or b is None:
        raise UnsupportedEquation("CONSTCOEFF2 needs rational constant coefficients")
    disc = a * a - 4 * b
    zero = base.zero()
    if disc > 0 and is_square(disc):
        root = rational_sqrt(disc)
        l1, l2 = (-a + root) / 2, (-a - root) / 2
        if l2 == 0:
            l1, l2 = l2, l1  # put the zero root first for a stable layout
        if l1 == 0:
            ext = base.adjoin_exponential("e", base.const(GaussRat(l2)))
            companion = ((zero, zero), (zero, base.const(GaussRat(l2))))
            return ext, (ext.one(), ext.var("e")), companion
        ext = base.adjoin_exponential("e1", base.const(GaussRat(l1)))
        ext = ext.adjoin_exponential("e2", ext.const(GaussRat(l2)))
        companion = (
            (base.const(GaussRat(l1)), zero),
            (zero, base.const(GaussRat(l2))),
        )
        return ext, (ext.var("e1"), ext.var("e2")), companion
    if disc == 0:
        lam = Fraction(-a, 2)
        if lam == 0:
            if not base.base_var:
                raise UnsupportedEquation("Y''=0 needs the base variable t")
            companion = ((zero, base.one()), (zero, zero))
            return base, (base.one(), base.var(base.base_var)), companion
        ext = base.adjoin_exponential("e", base.const(GaussRat(lam)))
        ls = str(GaussRat(lam))
        ext = ext.adjoin_abstract(["u"], [f"({ls})*u + e"], [])
        companion = (
            (base.const(GaussRat(lam)), base.one()),
            (zero, base.const(GaussRat(lam))),
        )
        return ext, (ext.var("e"), ext.var("u")), companion
    if disc < 0 and is_square(-disc):
        lam, mu = Fraction(-a, 2), rational_sqrt(-disc) / 2
        ms = str(GaussRat(mu))
        tower = base
        if lam != 0:
            tower = tower.adjoin_exponential("e", base.const(GaussRat(lam)))
        tower = tower.adjoin_abstract(
            ["c", "s"], [f"-({ms})*s", f"({ms})*c"], ["s^2+c^2-1"]
        )
        e = tower.one() if lam == 0 else tower.var("e")
        companion = (
            (base.const(GaussRat(lam)), base.const(GaussRat(mu))),
            (base.const(GaussRat(-mu)), base.const(GaussRat(lam))),
        )
        return tower, (e * tower.var("c"), e * tower.var("s")), companion
    raise UnsupportedEquation(
        f"characteristic roots are irrational (discriminant {disc})"
    )


def build_pv(
    base: DiffTower,
    ode: LinearODE,
    eq_class: str,
    scan_bounds: tuple[int, int] = DEFAULT_SCAN_BOUNDS,
    radical_base: FieldElement | None = None,
) -> PVExtension:
    """Construct and certify a PV extension for the given equation class.

    Raises UnsupportedEquation when the equation does not match the class
    and NotPV (with the certificate report attached) when a certificate
    fails.
    """
    if eq_class not in EQUATION_CLASSES:
        raise UnsupportedEquation(f"unknown equation class {eq_class!r}")
    if ode.base != base:
        raise UnsupportedEquation("equation coefficients live over a different base")
    if eq_class == "EXP":
        tower, sols, companion = _build_exp(base, ode)
    elif eq_class == "RADICAL":
        tower, sols, companion = _build_radical(base, ode, radical_base)
    elif eq_class == "CIRCLE":
        tower, sols, companion = _build_circle(base, ode)
    else:
        tower, sols, companion = _build_constcoeff2(base, ode)
    return _finish(PVExtension(base, tower, ode, eq_class, sols, companion, scan_bounds))

