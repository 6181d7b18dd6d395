"""Real forms of PV extensions and their classification by cocycles.

A cocycle is a group matrix A with A * conj(A) = I.  Twisting a certified
extension by A produces another real differential field with the same
complexification; cohomologous cocycles give isomorphic twists.  For the
groups arising here the classes are computed exactly:

  * GL1: every cocycle is a coboundary (solve B / conj(B) = A with B = i
    when A = -1), so there is one real form.
  * roots of unity of order 2: conjugation acts trivially, no nontrivial
    coboundaries exist, so {1} and {-1} are distinct classes.  The twist
    of the square root of f by -1 is the square root of -f.
  * rotations: cocycles correspond to nonzero real numbers under the
    eigenvalue parameterization, coboundaries to the positive ones, so I
    and -I represent the two classes.  The twist by -I replaces the unit
    circle by the curve u^2 + v^2 = -1.

Non-cohomology of the nontrivial classes is certified exactly: for the
rotations, the eigenvalue of a generic coboundary on (1, -i) reduces to a
sum of real squares, which is never -1.  Non-isomorphism of the twisted
fields is certified by explicit obstructions (a sum of squares equal to
-1, or a constant gamma with gamma^2 = -1 that an isomorphism would
force).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import Unsupported, WitnessNotFound
from .galois import MatrixGroup
from .gauss import GaussRat
from .linsolve import adjugate, inverse, is_scalar_matrix, mat_conj, mat_mul
from .linsolve import identity as mat_identity
from .poly import Context, Poly
from .pv import PVExtension
from .report import Report
from .rewrite import buchberger
from .tower import DiffTower, FieldElement

__all__ = [
    "Cocycle",
    "cocycle_check",
    "TwistResult",
    "twist",
    "non_reality_witness",
    "H1Report",
    "h1_enumerate",
    "radical_pair_report",
    "RadicalPairReport",
]


@dataclass(frozen=True)
class Cocycle:
    matrix: tuple[tuple[GaussRat, ...], ...]
    label: str

    def render(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.matrix]


def _as_matrix(rows) -> tuple[tuple[GaussRat, ...], ...]:
    return tuple(tuple(GaussRat.of(v) for v in row) for row in rows)


def cocycle_check(group: MatrixGroup, rows) -> bool:
    """A * conj(A) = I inside the group's zero set."""
    a = _as_matrix(rows)
    n = group.size
    if len(a) != n or any(len(r) != n for r in a):
        return False
    if not group.is_member(a):
        return False
    prod = mat_mul(a, mat_conj(a))
    return prod == mat_identity(n)


# -- twisting --------------------------------------------------------------------------


@dataclass
class TwistResult:
    pv: PVExtension
    cocycle: Cocycle
    tower: DiffTower
    solutions: tuple[FieldElement, ...]
    note: str
    isomorphic_to_original: bool | None
    report: Report = field(default_factory=Report)


def twist(pv: PVExtension, group: MatrixGroup, rows) -> TwistResult:
    """Twist a certified extension by a cocycle, from the per-class table.

    The result carries the twisted tower, solutions of the same equation
    inside it, and exact checks.  Unsupported combinations raise rather
    than guess.
    """
    a = _as_matrix(rows)
    if not cocycle_check(group, a):
        raise Unsupported("matrix is not a cocycle of this group")
    base = pv.base
    ode = pv.ode

    if is_scalar_matrix(a, 1):
        co = Cocycle(a, "identity")
        res = TwistResult(
            pv, co, pv.extension, pv.solutions, "trivial cocycle, extension unchanged",
            True,
        )
        res.report.add(
            "twisted solutions solve the equation",
            all(ode.apply(y).is_zero() for y in pv.solutions),
            "unchanged",
        )
        return res

    if pv.eq_class == "EXP" and is_scalar_matrix(a, -1):
        # B = i satisfies B / conj(B) = -1, so the twist is isomorphic.
        co = Cocycle(a, "-1 (coboundary in GL1)")
        res = TwistResult(
            pv,
            co,
            pv.extension,
            pv.solutions,
            "cocycle -1 splits in GL1 (B = i), twisted form isomorphic to the original",
            True,
        )
        res.report.add(
            "B * conj(B)^-1 reproduces the cocycle", _i_coboundary_check(), "B = i"
        )
        return res

    if pv.eq_class == "RADICAL" and is_scalar_matrix(a, -1):
        info = pv.meta.get("radical", {})
        if info.get("q") != 2:
            raise Unsupported("the -1 twist table covers square roots only")
        f = base.parse(info["f"])
        ctx = base.extended_context(["h"])
        relation = (
            f.den.in_context(ctx) * Poly.variable(ctx, "h", 2)
            + f.num.in_context(ctx) ** info["p"]
            if info.get("p", 1) == 1
            else None
        )
        if relation is None:
            raise Unsupported("the -1 twist table covers h^2 = -f only")
        rate = -ode.coeffs[0]
        deriv = (
            rate.num.in_context(ctx) * Poly.variable(ctx, "h"),
            rate.den.in_context(ctx),
        )
        tower = base.adjoin_algebraic("h", relation, deriv)
        h = tower.var("h")
        co = Cocycle(a, "-1")
        res = TwistResult(
            pv,
            co,
            tower,
            (h,),
            f"square root of -({f}) in place of the square root of {f}",
            False,
        )
        res.report.add(
            "twisted solution solves the same equation",
            ode.apply(h).is_zero(),
            f"h' = ({rate})*h with h^2 = -({f})",
        )
        res.report.add(
            "twisted relation has the opposite sign",
            h * h == tower.lift(-f),
            "h^2 reduces to -f",
        )
        return res

    if pv.eq_class == "CIRCLE" and is_scalar_matrix(a, -1):
        ws = pv.meta["omega"]
        tower = base.adjoin_abstract(
            ["v", "u"], [f"-({ws})*u", f"({ws})*v"], ["u^2+v^2+1"]
        )
        u, v = tower.var("u"), tower.var("v")
        co = Cocycle(a, "-I")
        res = TwistResult(
            pv,
            co,
            tower,
            (u, v),
            "unit circle replaced by the curve u^2 + v^2 = -1",
            False,
        )
        ok_u = ode.apply(u).is_zero()
        ok_v = ode.apply(v).is_zero()
        res.report.add(
            "twisted pair solves the same equation",
            ok_u and ok_v,
            f"u'' + {ws}^2 u = 0 and likewise for v",
        )
        sq = u * u + v * v
        res.report.add(
            "sum of squares of the twisted pair is -1", sq == tower.const(-1), str(sq)
        )
        return res

    raise Unsupported(
        f"no twist recipe for class {pv.eq_class} and cocycle {Cocycle(a, '?').render()}"
    )


def _i_coboundary_check() -> bool:
    i = GaussRat(Fraction(0), Fraction(1))
    inv = inverse(mat_conj([[i]]))
    assert inv is not None
    return mat_mul([[i]], inv) == [[GaussRat.of(-1)]]


# -- non-reality witnesses ----------------------------------------------------------------


_WITNESS_COEFFS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
)


def non_reality_witness(
    tower: DiffTower, degree_bound: int = 2
) -> tuple[FieldElement, ...]:
    """Elements whose squares sum to -1, certifying the field is not real.

    Bounded deterministic search over single generator monomials and pairs
    with small rational coefficients.  Each monomial x is squared once: c*x
    is a witness exactly when x^2 is the scalar -1/c^2, and a pair c1*x1,
    c2*x2 exactly when (c1^2, c2^2, 1) is a relation of (x1^2, x2^2, 1),
    that is, lies in the span of their canonical kernel.  Raises
    WitnessNotFound when the window holds no witness (which is not a proof
    of reality).
    """
    minus_one, unit = GaussRat.of(-1), GaussRat.of(1)
    window, one = tower.scan_basis(degree_bound, 0)
    elems = [x for k, x in enumerate(window) if k != one]
    squares = [x * x for x in elems]
    coeffs = [(GaussRat(c), GaussRat(c * c)) for c in _WITNESS_COEFFS]
    for x, sq in zip(elems, squares):
        v = sq.as_scalar()
        if v is not None:
            for c, c2 in coeffs:
                if c2 * v == minus_one:
                    return (x.scale(c),)
    one_elem = tower.one()
    for (x1, sq1), (x2, sq2) in combinations_with_replacement(zip(elems, squares), 2):
        relations = tower.linear_relations([sq1, sq2, one_elem])
        for c1, q1 in coeffs:
            for c2, q2 in coeffs:
                if _in_span([q1, q2, unit], relations):
                    return (x1.scale(c1), x2.scale(c2))
    raise WitnessNotFound(
        f"no sum of at most two squares equals -1 in the search window "
        f"(degree bound {degree_bound})"
    )


def _in_span(v: list[GaussRat], basis: list[list[GaussRat]]) -> bool:
    """Whether v is a combination of a canonical kernel basis.  Each basis
    vector ends in a unit at its own free column, where the others are
    zero, so v[f] is its coefficient there."""
    rest = list(v)
    for b in basis:
        f = max(j for j, c in enumerate(b) if c)
        if v[f]:
            rest = [r - v[f] * c for r, c in zip(rest, b)]
    return not any(rest)


# -- cohomology classes ---------------------------------------------------------------------


@dataclass
class H1Report:
    classes: tuple[Cocycle, ...]
    report: Report


def _so2_coboundaries_avoid_minus_identity() -> bool:
    """Every coboundary B * conj(B)^-1 of the rotation group has a sum of
    real squares as its eigenvalue on (1, -i), where -I has -1.

    B = [[p, -q], [q, p]] over the complexified constants, with p = a + ib
    and q = c + id for real a, b, c, d, modulo the real and imaginary parts
    of p^2 + q^2 - 1.  There det(conj B) reduces to 1, so conj(B)^-1 is
    adj(conj B), and the eigenvalue of B * adj(conj B) on (1, -i) must
    reduce to (a - d)^2 + (b + c)^2."""
    ctx = Context(["d", "c", "b", "a"])
    a, b, c, d = (Poly.variable(ctx, v) for v in "abcd")
    one = Poly.const(ctx, 1)
    i = Poly.const(ctx, GaussRat(Fraction(0), Fraction(1)))
    p, q = a + i * b, c + i * d
    system = buchberger((p * p + q * q - one).real_imag(), ctx)
    rot = [[p, -q], [q, p]]
    adj, det = adjugate(mat_conj(rot))
    vec = [[one], [-i]]
    image = mat_mul(mat_mul(rot, adj), vec)
    lam = (a - d) ** 2 + (b + c) ** 2
    return system.is_zero_mod(det - one) and all(
        system.is_zero_mod(u - lam * w) for [u], [w] in zip(image, vec)
    )


def h1_enumerate(group: MatrixGroup, kind: str) -> H1Report:
    """Representatives of the real-form classes for the named group kind,
    each validated as a cocycle, with an exact argument that the listed
    nontrivial classes are not coboundaries.
    """
    one, zero = GaussRat.of(1), GaussRat.of(0)
    report = Report(f"first cohomology of {kind}")
    if kind == "GL1":
        classes = (Cocycle(((one,),), "1"),)
        report.add(
            "-1 is a coboundary (B = i), single class",
            _i_coboundary_check(),
            "B * conj(B)^-1 = -1 at B = i",
        )
    elif kind == "MU_2":
        classes = (
            Cocycle(((one,),), "1"),
            Cocycle(((GaussRat.of(-1),),), "-1"),
        )
        never = all(
            mat_mul([[b]], inverse(mat_conj([[b]]))) == [[one]] for b in (one, -one)
        )
        report.add(
            "coboundaries over the order-2 group are trivial",
            never,
            "conjugation fixes both elements, so B * conj(B)^-1 = 1",
        )
    elif kind == "SO2":
        eye = ((one, zero), (zero, one))
        neg = ((-one, zero), (zero, -one))
        classes = (Cocycle(eye, "I"), Cocycle(neg, "-I"))
        report.add(
            "coboundaries have a sum of real squares as eigenvalue on (1, -i), "
            "-I has -1",
            _so2_coboundaries_avoid_minus_identity(),
            "B * conj(B)^-1 has eigenvalue (a - d)^2 + (b + c)^2 for "
            "B = [[p, -q], [q, p]], p = a + ib, q = c + id, p^2 + q^2 = 1",
        )
    else:
        raise Unsupported(f"no class list for {kind!r}")

    for c in classes:
        report.add(f"{c.label} is a cocycle", cocycle_check(group, c.matrix))
    return H1Report(classes, report)


# -- the two square-root fields are not isomorphic -------------------------------------------


@dataclass
class RadicalPairReport:
    report: Report


def radical_pair_report(pv: PVExtension, tw: TwistResult) -> RadicalPairReport:
    """Why the square roots of f and -f generate non-isomorphic fields.

    Any differential isomorphism over the base matches solution spaces of
    Y' = a Y, which are one-dimensional over the constants; comparing the
    squares of matched generators forces a rational constant gamma with
    gamma^2 = -1, which does not exist.
    """
    twisted = tw.tower
    g = pv.extension.lift(pv.solutions[0])
    h = twisted.lift(tw.solutions[0])
    rate_g = g.derive() / g
    rate_h = h.derive() / h
    report = Report("square roots of f and -f")
    report.add(
        "both generators solve the same first-order equation",
        pv.ode.apply(g).is_zero()
        and pv.ode.apply(h).is_zero()
        and not pv.ode.coeffs[0].is_zero(),
        f"rates {rate_g} and {rate_h}",
    )

    span = _solution_span(twisted, rate_h)
    only_h = len(span) == 1 and (span[0] / h).as_scalar() is not None
    report.add(
        "solution space in the twisted field is the line through h",
        only_h,
        f"window solutions: {[str(x) for x in span]}",
    )

    # g^2 and h^2 both lie in the base; gamma^2 * h^2 = g^2 would need
    # gamma^2 = g^2 / h^2, which is -1
    ratio = (pv.base.restrict(g * g) / pv.base.restrict(h * h)).as_scalar()
    report.add(
        "matching generators forces gamma^2 = -1 over the rational constants",
        ratio == GaussRat.of(-1),
        f"g^2 / h^2 re-read over the base is {ratio}",
    )
    report.add(
        "gamma^2 = -1 has no solution in the constants of a real field",
        ratio is not None and ratio.im == 0 and ratio.re < 0,
        "squares of rationals are nonnegative",
    )
    return RadicalPairReport(report)


def _solution_span(tower: DiffTower, rate: FieldElement) -> list[FieldElement]:
    """Window elements solving Y' = rate * Y, up to scaling, via one exact
    kernel computation."""
    window, _ = tower.scan_basis(2, 2)
    derivs = [x.derive() - rate * x for x in window]
    sols = []
    for vec in tower.linear_relations(derivs):
        x = tower.combine(vec, window)
        if not x.is_zero():
            sols.append(x)
    return sols

