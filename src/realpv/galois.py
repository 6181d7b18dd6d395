"""Differential Galois groups as polynomially-defined matrix groups.

The group of a certified PV extension acts on the solution system by
constant matrices.  `defining_equations` computes its defining polynomial
set in one pass over the extension, from two kinds of relations of the
solutions over the base:

  * derivation relations  Z_j' = sum_i d_ij Z_i, read from the companion
    matrix (the first-order system of the solutions over the base), and
  * algebraic relations: each tower relation whose generators are all
    solutions, rewritten in the Z variables, plus Z_j = b for solutions
    that already lie in the base.

Substituting Z_j -> sum_i X_ij eta_i with constant indeterminates X_ij,
taking normal forms, and collecting coefficients of the resulting
expansion over the tower's monomial-by-t-power basis yields polynomials in
the X_ij alone; real and imaginary parts are collected separately, so the
defining set always has real coefficients.  At X = I the coefficients
must vanish, which checks each relation on the solutions as it is used.
The group keeps the rendered relations (`MatrixGroup.relations`) for the
report.  Two groups in one coordinate ring are compared by their reduced
Groebner bases (`MatrixGroup.basis`).  A member acts on the tower through
`apply`; the generic member, whose matrix entries are symbols, acts through
one table of monomial images (`_action`), which `invariance_conditions` and
`fixed_combinations` read.

Completeness of the relation list is documented per class: for EXP,
RADICAL and CIRCLE the listed relations generate all algebraic relations
of the solutions over the base (the solutions are transcendental apart
from the listed algebraic generator relations).  For CONSTCOEFF2 with a
conjugate root pair the circle relation of the auxiliary generators cannot
be written in the Z variables over the base; the group object records
`relations_complete = False` in that case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import BadIdeal, NotInGroup, Unsupported
from .gauss import ONE, GaussRat
from .linsolve import det as mat_det
from .linsolve import adjugate, mat_mul, relations
from .poly import Context, Key, Monomial, Poly, mono_div, mono_divides, parse_fraction
from .pv import PVExtension, companion_residue
from .rewrite import RewriteSystem, Rule, buchberger
from .tower import DiffTower, FieldElement

__all__ = [
    "MatrixGroup",
    "GroupElement",
    "defining_equations",
    "apply",
    "generic_pair",
    "conjugation_stable",
    "invariance_conditions",
    "fixed_combinations",
    "reduces_to_zero",
    "parse_scalar",
    "matrix_from_texts",
]


# -- matrix groups ---------------------------------------------------------------


def _renamed(p: Poly, rename: dict[str, str], ctx: Context) -> Poly:
    """p with the variables in `rename` renamed, read in ctx."""
    return p.substitute(
        lambda v: Poly.variable(ctx, rename.get(v, v)), lambda c: Poly.const(ctx, c)
    )


def _solution_slot_of_generators(pv: PVExtension) -> dict[str, int | None]:
    """Map tower generator name -> solution index, when the generator is a
    solution itself (the supported situation for substitution actions)."""
    out: dict[str, int | None] = {}
    ext = pv.extension
    for name in ext.generator_names():
        g = ext.var(name)
        slot = next((j for j, s in enumerate(pv.solutions) if ext.lift(s) == g), None)
        out[name] = slot
    return out


def _x_names(n: int, letter: str = "X") -> list[list[str]]:
    return [[f"{letter}{i + 1}{j + 1}" for j in range(n)] for i in range(n)]


@dataclass
class MatrixGroup:
    """Zero set of `polys` inside GL_n, acting on the solution tuple.

    `param_tower` is the extension with the matrix entries X_ij adjoined as
    constant parameters, `sym_images` holds the symbolic images
    sum_i X_ij eta_i of the solutions in it, and `slots` maps each tower
    generator to its solution index (None when it is not a solution).
    `relations` holds the relations of the solutions the defining set was
    computed from, rendered in the Z variables.  `subgroups` holds the
    subgroups cut out by descriptors, each built once (see
    correspondence.subgroup_of).  `images` is the generic member's table of
    monomial images (see `_action`), filled on first use and shared with
    the subgroups, whose generic members act alike."""

    pv: PVExtension
    size: int
    xnames: tuple[tuple[str, ...], ...]
    context: Context
    polys: tuple[Poly, ...]
    relations: tuple[str, ...]
    relations_complete: bool
    param_tower: DiffTower = field(repr=False)
    sym_images: tuple[FieldElement, ...] = field(repr=False)
    slots: dict[str, int | None] = field(repr=False)
    subgroups: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    images: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def basis(self) -> RewriteSystem:
        """The reduced Groebner basis of the defining ideal, completed once.
        Reduced bases are unique, so two groups in one coordinate ring have
        the same ideal exactly when their bases are equal."""
        return buchberger(self.polys, self.context)

    def serialized(self) -> list[str]:
        return [str(p) for p in self.polys]

    def flat_xnames(self) -> list[str]:
        return [x for row in self.xnames for x in row]

    def evaluate(self, p: Poly, matrix: Sequence[Sequence], scale=None):
        """p at X = matrix, whose entries are scalars or polynomials of one
        context.  With `scale`, the homogenisation of p at (matrix, scale):
        scale^deg(p) * p(matrix / scale)."""
        entry = matrix[0][0]
        if isinstance(entry, Poly):
            const = lambda c: Poly.const(entry.context, c)
        else:
            const = GaussRat.of
            matrix = [[GaussRat.of(v) for v in row] for row in matrix]
        values = {
            x: v for xs, row in zip(self.xnames, matrix) for x, v in zip(xs, row)
        }
        return p.substitute(values.__getitem__, const, scale)

    def is_member(self, matrix: Sequence[Sequence[GaussRat]]) -> bool:
        rows = [[GaussRat.of(v) for v in row] for row in matrix]
        if len(rows) != self.size or any(len(r) != self.size for r in rows):
            return False
        if not mat_det(rows):
            return False
        return all(not self.evaluate(p, rows) for p in self.polys)

    def element(self, matrix: Sequence[Sequence[GaussRat]]) -> "GroupElement":
        rows = tuple(tuple(GaussRat.of(v) for v in row) for row in matrix)
        if not self.is_member(rows):
            raise NotInGroup(f"matrix {rows} is not in the group's zero set")
        return GroupElement(self, rows)

    def extended(self, extra: Iterable[Poly]) -> "MatrixGroup":
        polys = _normalize_polys(list(self.polys) + list(extra), self.context)
        sub = replace(self, polys=polys)
        sub.images = self.images
        return sub


@dataclass(frozen=True)
class GroupElement:
    group: MatrixGroup
    matrix: tuple[tuple[GaussRat, ...], ...]


def _normalize_polys(polys: Iterable[Poly], ctx: Context) -> tuple[Poly, ...]:
    seen: list[Poly] = []
    for p in polys:
        if p.is_zero():
            continue
        p = p.in_context(ctx).monic()
        if not any(p == q for q in seen):
            seen.append(p)
    seen.sort(key=lambda p: (p.total_degree(), str(p)))
    return tuple(seen)


def _collect_coefficients(num: Poly, x_ctx: Context) -> list[Poly]:
    """Split a polynomial in (X, tower) variables into its X-coefficient
    polynomials along the tower-monomial basis, real and imaginary parts
    collected separately.  Each key splits as its X part, read in x_ctx,
    times the rest (`Context.splitter`); the split is injective, so every
    term lands on its own term of one coefficient polynomial."""
    split = num.context.splitter(x_ctx.variables)
    read = x_ctx.reader(num.context)
    groups: dict[Key, dict[Key, GaussRat]] = {}
    for key, c in num.by_key.items():
        xpart, rest = split(key)
        groups.setdefault(rest, {})[read(xpart)] = c
    out: list[Poly] = []
    for rest in sorted(groups):
        re, im = Poly._build(x_ctx, groups[rest]).real_imag()
        if not re.is_zero():
            out.append(re)
        if not im.is_zero():
            out.append(im)
    return out


def defining_equations(pv: PVExtension) -> MatrixGroup:
    """Compute the defining polynomial set of the Galois group of pv.

    The relations are read from the extension: the companion column of each
    solution, the tower relations whose generators are all solutions, and
    Z_j = b for each solution b in the base.  Each is evaluated at the
    symbolic images.  At X = I those are the solutions, and a residue's
    numerator is sum_k P_k(X) m_k over distinct irreducible tower monomials
    m_k, so a relation vanishes on the solutions exactly when every P_k(I)
    is zero (BadIdeal otherwise)."""
    n = pv.order
    xnames = _x_names(n)
    flat = [x for row in xnames for x in row]
    x_ctx = Context(flat)
    ext = pv.extension
    tw = ext.with_params(flat)
    sols = [tw.lift(s) for s in pv.solutions]
    imgs = []
    for j in range(n):
        acc = tw.zero()
        for i in range(n):
            acc = acc + tw.var(xnames[i][j]) * sols[i]
        imgs.append(acc)

    # The Z context only renders the relations; Z_j stands for solution j.
    z_names = [f"Z{j + 1}" for j in range(n)]
    z_ctx = pv.base.context.extend_top(z_names)
    z_map = dict(zip(z_names, imgs))
    residues = []
    for j in range(n):
        col = [row[j] for row in pv.companion]
        rhs = [f"({a})*Z{i + 1}" for i, a in enumerate(col) if not a.is_zero()]
        line = f"Z{j + 1}' = " + (" + ".join(rhs) if rhs else "0")
        residues.append(
            ("derivation", line, companion_residue(tw, imgs, imgs[j].derive(), col))
        )
    algebraic = []
    slots = _solution_slot_of_generators(pv)
    complete = True
    for spec in ext.specs:
        if spec.relation is None:
            continue
        vars_used = spec.relation.variables() & set(ext.generator_names())
        if any(slots.get(v) is None for v in vars_used):
            complete = False
            continue
        rename = {v: z_names[slots[v]] for v in vars_used}  # type: ignore[index]
        algebraic.append(_renamed(spec.relation, rename, z_ctx))
    for j, s in enumerate(pv.solutions):
        if pv.base.writes(s):
            x = pv.base.restrict(s)
            rel = Poly.variable(z_ctx, z_names[j]) * x.den.in_context(z_ctx)
            algebraic.append(rel - x.num.in_context(z_ctx))
    residues += [("algebraic", str(a), tw.eval_poly(a, z_map)) for a in algebraic]

    identity = {
        x: GaussRat.of(int(i == j)) for i, row in enumerate(xnames) for j, x in enumerate(row)
    }
    collected: list[Poly] = []
    for kind, text, residue in residues:
        polys = _collect_coefficients(residue.num, x_ctx)
        if any(p.substitute(identity.__getitem__, GaussRat.of) for p in polys):
            raise BadIdeal(f"{kind} relation fails at solutions: {text}")
        collected += polys

    return MatrixGroup(
        pv,
        n,
        tuple(tuple(row) for row in xnames),
        x_ctx,
        _normalize_polys(collected, x_ctx),
        tuple(t if k == "derivation" else t + " = 0" for k, t, _ in residues),
        complete,
        tw,
        tuple(imgs),
        slots,
    )


# -- group actions ----------------------------------------------------------------


def _generator_map(
    group: MatrixGroup, images: Sequence[FieldElement]
) -> dict[str, FieldElement]:
    """Send each tower generator to the image of its solution slot."""
    mapping: dict[str, FieldElement] = {}
    for name, slot in group.slots.items():
        if slot is None:
            raise Unsupported(
                f"generator {name!r} is not one of the listed solutions; "
                "substitution action unavailable for this presentation"
            )
        mapping[name] = images[slot]
    return mapping


def apply(sigma: GroupElement, x: FieldElement) -> FieldElement:
    """Apply the differential morphism induced by sigma to a tower element."""
    pv = sigma.group.pv
    ext = pv.extension
    sols = [ext.lift(s) for s in pv.solutions]
    images = [
        ext.combine([row[j] for row in sigma.matrix], sols)
        for j in range(sigma.group.size)
    ]
    mapping = _generator_map(sigma.group, images)
    x = ext.lift(x)
    num = ext.eval_poly(x.num, mapping)
    den = ext.eval_poly(x.den, mapping)
    if den.is_zero():
        raise NotInGroup("substitution sends a denominator to zero")
    return num / den


def _action(group: MatrixGroup) -> Callable[[Poly], Poly]:
    """The generic member sigma (matrix entries X_ij as symbols) on the
    polynomials of `param_tower`, read through one table of monomial images.

    The table, `group.images`, maps the key of each generator monomial m to
    sigma(m), a normal form modulo the tower's rules.  It starts from 1 and
    the generators' images, and each further entry is added as
    nf(sigma(m / g) * sigma(g)) for a generator g dividing m: one product
    and one normal form.  Missing divisors are filled in a loop, so a cold
    table reaches e^1000 without recursion.  A term c * m * r, with r a
    monomial in t and the parameters, which sigma fixes, goes to
    c * r * sigma(m).  So the table holds polynomials only, and a generator
    whose image has a non-constant denominator is refused."""
    tw = group.param_tower
    ctx = tw.context
    mapping = _generator_map(group, group.sym_images)
    for name, img in mapping.items():
        if not img.den.is_constant():
            raise Unsupported(
                f"the action on {name} is not polynomial: its image {img} "
                "has a non-constant denominator"
            )
    units = [(ctx.pack(Monomial.var(name)), img.num) for name, img in mapping.items()]
    table = group.images
    if not table:
        table[ctx.one] = Poly.const(ctx, 1)
        table.update(units)
    nf = tw.rewrite.normal_form
    split = ctx.splitter(mapping)

    def image(m: Key) -> Poly:
        chain = []
        while m not in table:
            unit, g = next(u for u in units if mono_divides(u[0], m))
            chain.append((m, g))
            m = mono_div(m, unit)
        out = table[m]
        for m, g in reversed(chain):
            out = table[m] = nf(out * g)
        return out

    def act(p: Poly) -> Poly:
        out = Poly.zero(ctx)
        for key, c in p.by_key.items():
            m, rest = split(key)
            out = out + image(m).mul_monomial(rest, c)
        return out

    return act


def invariance_conditions(group: MatrixGroup, x: FieldElement) -> list[Poly]:
    """Polynomials in the X variables expressing sigma(x) = x for the
    generic member sigma: the coefficients of sigma(num)*den - num*sigma(den)
    for x = num/den, modulo the tower's rules (`_action`)."""
    tw = group.param_tower
    act = _action(group)
    x = tw.lift(x)
    if x.den.is_constant():  # a constant denominator is 1, fixed by sigma
        moved = act(x.num) - x.num
    else:
        moved = act(x.num) * x.den - x.num * act(x.den)
    return _collect_coefficients(tw.rewrite.normal_form(moved), group.context)


def fixed_combinations(
    group: MatrixGroup, monomials: Sequence[Key]
) -> list[dict[int, GaussRat]]:
    """Canonical basis {k: a_k} of the vectors a such that sum a_k
    (sigma(m_k) - m_k) vanishes modulo the group's ideal, for the generic
    member sigma and the keys m_k of irreducible generator monomials of the
    extension's context (`DiffTower.irreducible_monomials`).

    Each key is re-read in `param_tower`, where it stays irreducible, and
    sigma(m_k) - m_k, read from the table of monomial images (`_action`),
    is reduced modulo the union of the tower's rules and the group's basis,
    which share no variable, so their union is a Groebner basis.  A
    generator whose image has a non-constant denominator is refused."""
    tw = group.param_tower
    ctx = tw.context
    rules = tw.rewrite.rules + group.basis.rules_for(ctx)
    nf = RewriteSystem(ctx, rules).normal_form
    act = _action(group)
    read = ctx.reader(group.pv.extension.context)
    window = [Poly._build(ctx, {read(m): ONE}) for m in monomials]
    return relations([nf(act(w) - w).by_key for w in window])


def generic_pair(
    group: MatrixGroup, sub: MatrixGroup
) -> tuple[RewriteSystem, list[list[Poly]], list[list[Poly]]]:
    """Generic members X of `group` and Y of `sub`, a subgroup in the same
    coordinate ring, as matrices of variables, with the rewrite system of
    both ideals: `group.basis` on the X_ij and `sub.basis` renamed to the
    Y_ij.  The two bases share no variable, so their union is a Groebner
    basis."""
    ynames = _x_names(group.size, "Y")
    rename = {
        x: y for xs, ys in zip(group.xnames, ynames) for x, y in zip(xs, ys)
    }
    ctx = Context([y for row in ynames for y in row] + group.flat_xnames())
    rules = list(group.basis.rules_for(ctx))
    rules += [Rule.orient(_renamed(r.as_poly(), rename, ctx)) for r in sub.basis.rules]
    x = [[Poly.variable(ctx, v) for v in row] for row in group.xnames]
    y = [[Poly.variable(ctx, v) for v in row] for row in ynames]
    return RewriteSystem(ctx, rules), x, y


def conjugation_stable(group: MatrixGroup, sub: MatrixGroup) -> bool:
    """Whether X*Y*X^-1 lies in `sub` for the generic members X of `group`
    and Y of `sub`: for each p of sub's basis, det(X)^deg(p) times
    p(X*Y*adj(X)/det(X)) must reduce to zero modulo both ideals."""
    system, x, y = generic_pair(group, sub)
    adj, det = adjugate(x)
    conj = mat_mul(mat_mul(x, y), adj)
    return all(
        system.is_zero_mod(sub.evaluate(r.as_poly(), conj, det))
        for r in sub.basis.rules
    )


# -- ideal comparison ---------------------------------------------------------------


def reduces_to_zero(polys: Sequence[Poly], others: Sequence[Poly], ctx: Context) -> bool:
    """Whether every polynomial in `polys` reduces to zero modulo the ideal
    generated by `others` (sufficient condition for zero-set inclusion)."""
    system = buchberger(others, ctx)
    return all(system.is_zero_mod(p.in_context(ctx)) for p in polys)


# -- small parsing helpers ----------------------------------------------------------


_EMPTY = Context([])


def parse_scalar(text: str) -> GaussRat:
    num, den = parse_fraction(text, _EMPTY)
    return num.constant_value() / den.constant_value()


def matrix_from_texts(rows: Sequence[Sequence[str]]) -> list[list[GaussRat]]:
    return [[parse_scalar(v) for v in row] for row in rows]
