"""Real forms of PV extensions and their classification by cocycles.

A cocycle is a group matrix A with A * conj(A) = I.  The twist of a
certified extension by A is the field fixed by the semilinear involution
A o conj (Galois descent; Serre, Galois Cohomology, ch. III, sec. 1).  It has
the same complexification, and cohomologous cocycles give isomorphic
twists.  `twist` writes A = B * conj(B)^-1 with B diagonal over Q(i) and
presents the twist on the generators x / b, re-read from the extension's
own presentation.  For the groups arising here the classes are exact:

  * GL1: -1 = i / conj(i), so there is one real form.
  * roots of unity of order 2: conjugation fixes both elements, so {1} and
    {-1} are distinct classes.  The twist of the square root of f by -1
    is the square root of -f.
  * rotations: the eigenvalue of a generic coboundary on (1, -i) reduces
    to a sum of real squares, never -1, so I and -I are distinct classes.
    The twist by -I replaces the unit circle by the curve u^2 + v^2 = -1.

Non-isomorphism of the twisted fields is certified by explicit
obstructions (a sum of squares equal to -1, or a constant gamma with
gamma^2 = -1 that an isomorphism would force).  `twist` returns the
twisted tower and solutions with a report that holds all of it;
`twist_report` puts the cocycle check in front, for the `twist` command
and both real-form demos.  Cocycles are plain matrices: `h1_enumerate`
lists each class as a label and a representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import Unsupported, WitnessNotFound
from .galois import MatrixGroup, defining_equations, matrix_from_texts
from .gauss import I, ONE, ZERO, GaussRat, is_square, rational_sqrt
from .linsolve import adjugate, identity, mat_conj, mat_mul
from .poly import Context, Monomial, Poly
from .pv import LinearODE, PVExtension, build_pv
from .report import Report
from .rewrite import buchberger
from .tower import DiffTower, FieldElement, GeneratorSpec

__all__ = [
    "cocycle_check",
    "TwistResult",
    "twist",
    "non_reality_witness",
    "h1_enumerate",
    "radical_pair_report",
    "twist_report",
    "so2_forms_demo",
    "radical_forms_demo",
]


def _as_matrix(rows) -> tuple[tuple[GaussRat, ...], ...]:
    return tuple(tuple(GaussRat.of(v) for v in row) for row in rows)


def _render(a) -> str:
    return str([[str(v) for v in row] for row in a])


def cocycle_check(group: MatrixGroup, rows) -> bool:
    """A * conj(A) = I inside the group's zero set."""
    a = _as_matrix(rows)
    return group.is_member(a) and mat_mul(a, mat_conj(a)) == identity(group.size)


# -- twisting --------------------------------------------------------------------------


@dataclass
class TwistResult:
    tower: DiffTower
    solutions: tuple[FieldElement, ...]
    report: Report


# one name for each twisted generator x~ = x / i, whatever the tower
_TWISTED_NAME = {"g": "h", "c": "v", "s": "u"}


def twist(pv: PVExtension, group: MatrixGroup, rows) -> TwistResult:
    """Twist a certified extension by a real cocycle A, by Galois descent.

    In every group of the fragment a real cocycle has A^2 = I, so A is
    diag(a_j) with signs a_j, and B = diag(b_j), b_j = i where a_j = -1 and
    1 elsewhere, has B * conj(B)^-1 = A.  The twist is the field fixed by
    A o conj, generated by x~ = x / b_j for the generator x in solution
    slot j and presented by the derivatives and relations re-read at
    x = b_j * x~.

    If no relation changes, the twist is the original extension (the
    result's tower is `pv.extension`), and the report checks that B lies
    in the group.  A changed relation means a nontrivial class within the
    fragment: only RADICAL and CIRCLE carry relations; in mu_q,
    -1 = b / conj(b) for some b in mu_q(C) exactly when 4 divides q, and
    then b = i leaves g^q unchanged; for SO2, `h1_enumerate` certifies the
    -I class.  Then the relations are negated, so g^2 = f becomes
    h^2 = -f, and the generators renamed by `_TWISTED_NAME`; the report
    goes on with a sum of squares equal to -1 in the twisted field when a
    relation gives one, and `radical_pair_report` on RADICAL.  The
    report's data holds the twisted solutions.  Non-cocycles, complex and
    non-diagonal cocycles, a sign on a generator outside the solution
    slots and data that re-read as not real raise Unsupported.
    """
    a = _as_matrix(rows)
    if not cocycle_check(group, a):
        raise Unsupported("matrix is not a cocycle of this group")
    signs = [a[j][j] for j in range(len(a))]
    if a != _diagonal(signs) or any(v not in (ONE, -ONE) for v in signs):
        raise Unsupported(f"descent needs a real cocycle diag(+-1), not {_render(a)}")
    b = [I if v == -ONE else ONE for v in signs]
    if I in b and None in group.slots.values():
        raise Unsupported("descent needs each generator in a solution slot")
    negated = [x for x, j in group.slots.items() if j is not None and b[j] == I]
    ext, ode = pv.extension, pv.ode
    relations = [s.relation for s in ext.specs if s.relation is not None]
    report = Report("twist")
    report.info("cocycle", _render(a))
    if all(_reread(negated, ext.context, {}, r) == r for r in relations):
        split = f"B = diag({', '.join(map(str, b))})"
        report.info(
            "twist", f"{split} splits the cocycle, twisted form isomorphic to the original"
        )
        report.add(
            "twisted solutions solve the equation",
            all(ode.apply(y).is_zero() for y in pv.solutions),
            "unchanged",
        )
        report.add(
            "B lies in the group and B * conj(B)^-1 = A", _splits(group, b, a), split
        )
        report.info("real form", "isomorphic to the original extension")
        report.data["twisted_solutions"] = [str(x) for x in pv.solutions]
        return TwistResult(ext, pv.solutions, report)

    rename = {x: _TWISTED_NAME.get(x, x) for x in ext.generator_names()}
    ctx = Context([rename.get(v, v) for v in ext.context.variables])
    reread = partial(_reread, negated, ctx, rename)
    specs = [
        GeneratorSpec(
            rename[s.name],
            s.kind,
            reread(s.deriv_num, -I if s.name in negated else ONE),
            reread(s.deriv_den),
            None if s.relation is None else reread(s.relation, -ONE),
        )
        for s in ext.specs
    ]
    tower = DiffTower(ext.base_var, specs, ext.params)
    sols = tuple(
        tower.elem(reread(y.num, b[j].inverse()), reread(y.den))
        for j, y in enumerate(map(ext.lift, pv.solutions))
    )
    generated = ", ".join(f"{rename[x]} = {x}/i" for x in negated)
    report.info("twist", f"fixed field of A o conj, generated by {generated}")
    report.add(
        "twisted solutions solve the equation",
        all(ode.apply(y).is_zero() for y in sols),
        f"{ode.describe()} at " + ", ".join(str(y) for y in sols),
    )
    # the descent map x -> b * y~, for the twisted solution y~ in x's slot,
    # must respect the original relations
    at = {x: sols[j].scale(b[j]) for x, j in group.slots.items()}
    subst = ", ".join(f"{x} = i*{rename[x]}" for x in negated)
    report.add(
        "original relations at b*x~ are the twisted relations with the opposite sign",
        all(tower.eval_poly(r, at).is_zero() for r in relations),
        "; ".join(f"{r} at {subst} is {reread(r)}" for r in relations),
    )
    report.info("real form", "a genuinely different real form")
    try:
        wit = non_reality_witness(tower)
    except WitnessNotFound as e:
        report.info("non-reality witness", f"none found: {e}")
    else:
        squares = sum((x * x for x in wit), tower.zero())
        report.add(
            "twisted field is not formally real",
            squares == tower.const(-1),
            " , ".join(str(x) for x in wit) + f"  squares sum to {squares}",
        )
    if pv.eq_class == "RADICAL":
        (x,) = negated
        report.extend(radical_pair_report(pv, tower.var(rename[x])))
    report.data["twisted_solutions"] = [str(x) for x in sols]
    return TwistResult(tower, sols, report)


def _reread(negated, ctx: Context, rename, p: Poly, factor=ONE) -> Poly:
    """factor * p at x = i * x~ for each variable x in `negated`, read in
    ctx, where x~ is named rename[x] and every other variable keeps its
    name.  A result that is not real raises Unsupported."""

    def value(v: str) -> Poly:
        x = Poly.variable(ctx, rename.get(v, v))
        return x.scale(I) if v in negated else x

    out = p.substitute(value, lambda c: Poly.const(ctx, c)).scale(factor)
    if not out.real_imag()[1].is_zero():
        raise Unsupported(f"the twist re-reads {p} as {out}, not real")
    return out


def _diagonal(entries) -> tuple[tuple[GaussRat, ...], ...]:
    n = len(entries)
    return tuple(
        tuple(v if i == j else ZERO for j in range(n)) for i, v in enumerate(entries)
    )


def _splits(group: MatrixGroup, b, a) -> bool:
    """Whether B = diag(b) lies in the group and B * conj(B)^-1, which is
    diag(b_j / conj(b_j)), equals A."""
    quotient = _diagonal([x / x.conj() for x in b])
    return group.is_member(_diagonal(b)) and quotient == _as_matrix(a)


# -- non-reality witnesses ----------------------------------------------------------------


def non_reality_witness(tower: DiffTower) -> tuple[FieldElement, ...]:
    """Elements whose squares sum to -1, certifying the field is not real.

    Read from a relation c0 + sum_k c_k * m_k^2 = 0 of the tower in which
    every monomial other than 1 has only even exponents (the base variable
    counts too) and every ratio c_k / c0 is the square r_k^2 of a positive
    rational: the r_k * sqrt(m_k) then have squares summing to -1.  The
    twisted circle u^2 + v^2 + 1 gives (v, u) and Seidenberg's
    4a^2 + b^2 + 1 gives (2a, b); entries follow the tower's variable
    order.  Raises WitnessNotFound when no relation has this shape (which
    is not a proof of reality).
    """
    ctx = tower.context
    for rel in (s.relation for s in tower.specs if s.relation is not None):
        roots = _square_roots_of_minus_one(rel)
        if roots:
            order = sorted(roots, key=lambda m: [-m.degree_in(v) for v in ctx.variables])
            return tuple(tower.elem(Poly(ctx, {m: roots[m]})) for m in order)
    raise WitnessNotFound("no relation of the tower writes -1 as a sum of squares")


def _square_roots_of_minus_one(rel: Poly) -> dict[Monomial, Fraction] | None:
    """{sqrt(m_k): r_k} when rel = c0 * (1 + sum_k r_k^2 * m_k) with each m_k
    a square monomial and each r_k a positive rational, else None.
    Relations are real (`DiffTower._validate`)."""
    c0 = rel.coeff(Monomial()).re
    if not c0:
        return None
    roots = {}
    for m, c in rel.terms.items():
        if m.is_one():
            continue
        exps, ratio = m.exponents(), c.re / c0
        if any(e % 2 for e in exps.values()) or not is_square(ratio):
            return None
        roots[Monomial({v: e // 2 for v, e in exps.items()})] = rational_sqrt(ratio)
    return roots


# -- cohomology classes ---------------------------------------------------------------------


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
    i = Poly.const(ctx, I)
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


def h1_enumerate(group: MatrixGroup, kind: str) -> Report:
    """Representatives of the real-form classes for the named group kind,
    each validated as a cocycle, with an exact argument that the listed
    nontrivial classes are not coboundaries.  The report opens with the
    class labels, which its data holds under "classes".
    """
    if kind == "GL1":
        classes = (("1", [[ONE]]),)
        coboundaries = (
            "-1 is a coboundary (B = i), single class",
            _splits(group, [I], [[-ONE]]),
            "B * conj(B)^-1 = -1 at B = i",
        )
    elif kind == "MU_2":
        classes = (("1", [[ONE]]), ("-1", [[-ONE]]))
        coboundaries = (
            "coboundaries over the order-2 group are trivial",
            all(_splits(group, [b], [[ONE]]) for b in (ONE, -ONE)),
            "conjugation fixes both elements, so B * conj(B)^-1 = 1",
        )
    elif kind == "SO2":
        classes = (("I", _diagonal([ONE, ONE])), ("-I", _diagonal([-ONE, -ONE])))
        coboundaries = (
            "coboundaries have a sum of real squares as eigenvalue on (1, -i), "
            "-I has -1",
            _so2_coboundaries_avoid_minus_identity(),
            "B * conj(B)^-1 has eigenvalue (a - d)^2 + (b + c)^2 for "
            "B = [[p, -q], [q, p]], p = a + ib, q = c + id, p^2 + q^2 = 1",
        )
    else:
        raise Unsupported(f"no class list for {kind!r}")

    labels = [label for label, _ in classes]
    report = Report(f"first cohomology of {kind}", data={"classes": labels})
    report.info("classes", ", ".join(labels))
    report.add(*coboundaries)
    for label, matrix in classes:
        report.add(f"{label} is a cocycle", cocycle_check(group, matrix))
    return report


# -- the two square-root fields are not isomorphic -------------------------------------------


def radical_pair_report(pv: PVExtension, h: FieldElement) -> Report:
    """Why the q-th roots of f and -f generate non-isomorphic fields: the
    generator g of the extension and the generator h of the twisted tower
    `h.tower`.

    Any differential isomorphism over the base matches solution spaces of
    Y' = a Y, which are one-dimensional over the constants: (y/h)' = 0 for
    each solution y, and the twisted field's constant scan finds no new
    constant.  Comparing the q-th powers of matched generators, which lie
    in the base, forces a rational constant gamma with gamma^q = -1.  A
    twist changes the relation only for q = 2 mod 4, so q is even and no
    such gamma exists.
    """
    twisted = h.tower
    (name,) = pv.extension.generator_names()
    g = pv.extension.var(name)
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

    news = twisted.constant_scan(2, 2)
    report.add(
        "solution space in the twisted field is the line through h",
        not news,
        "(y/h)' = 0 for every solution y; scan bounds (2, 2): "
        + ("no new constants" if not news else "found " + ", ".join(str(x) for x in news)),
    )

    # g^q and h^q both lie in the base; gamma^q * h^q = g^q would need
    # gamma^q = g^q / h^q, which is -1
    q, gq = _power_in_base(pv.base, g)
    _, hq = _power_in_base(pv.base, h)
    ratio = (gq / hq).as_scalar()
    report.add(
        f"matching generators forces gamma^{q} = -1 over the rational constants",
        ratio == GaussRat.of(-1),
        f"g^{q} / h^{q} re-read over the base is {ratio}",
    )
    report.add(
        f"gamma^{q} = -1 has no solution in the constants of a real field",
        ratio is not None and ratio.im == 0 and ratio.re < 0 and q % 2 == 0,
        "squares of rationals are nonnegative",
    )
    return report


def _power_in_base(base: DiffTower, x: FieldElement) -> tuple[int, FieldElement]:
    """(q, x^q) for a generator x with relation A * x^q - B, A and B over the
    base: x^q = B / A, built in the base.  The rewrite order cannot be asked
    instead: g^2 = t^3 writes t^3 as g^2."""
    (name,) = x.variables()
    (rel,) = (s.relation for s in x.tower.specs if s.name == name)
    q = rel.degree_in(name)
    top = {
        Monomial({**m.exponents(), name: 0}): c
        for m, c in rel.terms.items()
        if m.degree_in(name)
    }
    rest = {m: -c for m, c in rel.terms.items() if not m.degree_in(name)}
    return q, base.elem(Poly(base.context, rest)) / base.elem(Poly(base.context, top))


# -- reports ---------------------------------------------------------------------------------


def twist_report(pv: PVExtension, group: MatrixGroup, rows) -> Report:
    """The twist of a certified extension by the matrix `rows`: the cocycle
    check, then for a cocycle the report of `twist`, data included."""
    rep = Report("twist")
    rep.add("matrix is a cocycle", cocycle_check(group, rows))
    if rep.ok:
        twisted = twist(pv, group, rows).report
        rep.extend(twisted)
        rep.data.update(twisted.data)
    return rep


def _forms_demo(
    title: str, coeffs: list[str], eq_class: str, kind: str, cocycle: list[list[str]]
) -> tuple[Report, PVExtension]:
    """The certified extension of the equation over Q(t), and a report of
    the real-form classes of its group followed by the twist by `cocycle`."""
    base = DiffTower(base_var="t")
    pv = build_pv(base, LinearODE.from_texts(base, coeffs), eq_class)
    group = defining_equations(pv)
    rep = h1_enumerate(group, kind)
    rep.title = title
    rep.extend(twist_report(pv, group, matrix_from_texts(cocycle)))
    return rep, pv


def so2_forms_demo() -> Report:
    """The circle extension and its twist by -I, whose field is not formally
    real although the original field has no such witness."""
    rep, pv = _forms_demo(
        "demo: the two real forms of the circle extension",
        ["1", "0"], "CIRCLE", "SO2", [["-1", "0"], ["0", "-1"]],
    )
    try:
        non_reality_witness(pv.extension)
        found = True
    except WitnessNotFound:
        found = False
    rep.add(
        "original field has no such witness",
        not found,
        "witness found" if found else "no relation writes -1 as a sum of squares",
    )
    return rep


def radical_forms_demo() -> Report:
    """The square root of t and its twist by -1, the square root of -t."""
    return _forms_demo(
        "demo: square roots of t and of -t are different real forms",
        ["-1/2 * 1/t"], "RADICAL", "MU_2", [["-1"]],
    )[0]
