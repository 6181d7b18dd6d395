"""The group-field correspondence for certified PV extensions.

Downward: a subgroup descriptor turns into the subfield of window
combinations it fixes, the kernel of m -> sigma(m) - m over the keys of
the window's generator monomials, for the generic member sigma taken
modulo the subgroup's ideal.  Upward: an intermediate field turns
into the subgroup cut out by symbolic invariance conditions on its
generators.  Both directions are exact and work with the subgroup as an
algebraic group, not with its real points.  So does the normality report:
conjugation stability and the circle's double-angle quotient map are
decided for the generic members of the group and of the subgroup, modulo
their ideals.  `normality_check` and `weak_normality_demo` return their
`Report` whole, quotient equation, member counts and data included.

Subgroups are described by small named shapes rather than arbitrary
ideals: the full group, the trivial group, roots of unity inside GL1,
diagonal matrices, the rotation group, or an explicit finite set of
matrices.  That covers every group arising from the supported equation
classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import BadField, Unsupported
from .galois import (
    MatrixGroup,
    apply,
    conjugation_stable,
    defining_equations,
    fixed_combinations,
    generic_pair,
    invariance_conditions,
    parse_scalar,
)
from .gauss import GaussRat
from .linsolve import Echelon, identity, mat_mul
from .poly import Context, Poly, parse_poly
from .rewrite import RewriteSystem, buchberger
from .pv import LinearODE, PVExtension, build_pv
from .report import Report
from .tower import DiffTower, FieldElement, cleared_numerators

__all__ = [
    "SubgroupDescriptor",
    "FULL",
    "TRIVIAL",
    "DIAGONAL",
    "SO2",
    "mu_n",
    "finite_list",
    "SUBGROUP_KINDS",
    "IntermediateField",
    "descriptor_polys",
    "subgroup_of",
    "descriptor_of",
    "window_products",
    "member_of_field",
    "fixed_field",
    "group_over",
    "check_correspondence",
    "check_inclusion_reversal",
    "normality_check",
    "weak_normality_demo",
    "DEFAULT_FIELD_BOUNDS",
]

DEFAULT_FIELD_BOUNDS = (4, 2)
# Generator degree of a fixed-field window (no powers of t), q for MU_N(q) > 4.
_WINDOW_DEGREE = 4
# The largest order q of MU_N(q), whose fixed field has a window of degree
# q.  One cold `correspond` on EXP (2-core x86-64) takes 0.24 s at q = 200
# and 0.29 s at q = 1000 (medians of 3, run together).
MAX_ROOT_ORDER = 1000


# -- descriptors -----------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupDescriptor:
    kind: str
    order: int | None = None
    elements: frozenset[tuple[tuple[GaussRat, ...], ...]] | None = None

    def label(self) -> str:
        if self.kind == "MU_N":
            return f"MU_N({self.order})"
        if self.kind == "FINITE_LIST":
            return f"FINITE_LIST[{len(self.elements or ())} elements]"
        return self.kind


FULL = SubgroupDescriptor("FULL")
TRIVIAL = SubgroupDescriptor("TRIVIAL")
DIAGONAL = SubgroupDescriptor("DIAGONAL")
SO2 = SubgroupDescriptor("SO2")


def mu_n(q: int) -> SubgroupDescriptor:
    if not 1 <= q <= MAX_ROOT_ORDER:
        raise ValueError(f"root-of-unity order must be between 1 and {MAX_ROOT_ORDER}")
    return SubgroupDescriptor("MU_N", order=q)


def finite_list(matrices: Sequence[Sequence[Sequence]]) -> SubgroupDescriptor:
    def coerce(v):
        return parse_scalar(v) if isinstance(v, str) else GaussRat.of(v)

    rows = frozenset(
        tuple(tuple(coerce(v) for v in row) for row in m) for m in matrices
    )
    return SubgroupDescriptor("FINITE_LIST", elements=rows)


# Scenario subgroup entries by kind; each entry builds its descriptor from
# the validated scenario object (with "order" for MU_N and "matrices" of
# parsed scalars for FINITE_LIST).
SUBGROUP_KINDS = {
    "FULL": lambda sub: FULL,
    "TRIVIAL": lambda sub: TRIVIAL,
    "MU_N": lambda sub: mu_n(sub["order"]),
    "DIAGONAL": lambda sub: DIAGONAL,
    "SO2": lambda sub: SO2,
    "FINITE_LIST": lambda sub: finite_list(sub["matrices"]),
}


# Matrix size of the descriptors that only fit one group size.
_KIND_SIZES = {"MU_N": 1, "DIAGONAL": 2, "SO2": 2}


def _check_size(group: MatrixGroup, desc: SubgroupDescriptor) -> None:
    """Refuse a descriptor whose matrices do not have the group's size."""
    n = group.size
    if desc.kind == "FINITE_LIST":
        sizes = sorted({(len(m), len(row)) for m in desc.elements or () for row in m})
    else:
        k = _KIND_SIZES.get(desc.kind, n)
        sizes = [(k, k)]
    for rows, cols in sizes:
        if (rows, cols) != (n, n):
            raise Unsupported(
                f"{desc.label()} has {rows}x{cols} matrices, "
                f"but the group's matrices are {n}x{n}"
            )


def _pm_identity(n: int) -> SubgroupDescriptor:
    eye = identity(n)
    return finite_list([eye, [[-v for v in row] for row in eye]])


def descriptor_polys(group: MatrixGroup, desc: SubgroupDescriptor) -> list[Poly]:
    """Defining polynomials of the descriptor inside the ambient group's
    coordinate ring (ambient equations included)."""
    _check_size(group, desc)
    ctx = group.context
    n = group.size
    base = list(group.polys)
    p = lambda s: parse_poly(s, ctx)
    if desc.kind == "FULL":
        return base
    if desc.kind == "TRIVIAL":
        extra = []
        for i in range(n):
            for j in range(n):
                name = group.xnames[i][j]
                extra.append(p(f"{name} - 1") if i == j else p(name))
        return base + extra
    if desc.kind == "MU_N":
        return base + [p(f"X11^{desc.order} - 1")]
    if desc.kind == "DIAGONAL":
        return base + [p("X12"), p("X21")]
    if desc.kind == "SO2":
        return base + [p("X11 - X22"), p("X12 + X21"), p("X11^2 + X21^2 - 1")]
    if desc.kind == "FINITE_LIST":
        eye = tuple(map(tuple, identity(n)))
        if desc.elements == {eye, tuple(tuple(-v for v in row) for row in eye)}:
            extra = [p(f"{group.xnames[0][0]}^2 - 1")]
            for i in range(n):
                for j in range(n):
                    if i == j and i > 0:
                        extra.append(p(f"{group.xnames[i][j]} - {group.xnames[0][0]}"))
                    elif i != j:
                        extra.append(p(group.xnames[i][j]))
            return base + extra
        if desc.elements == {eye}:
            return descriptor_polys(group, TRIVIAL)
        raise Unsupported(
            "only {I}, {I, -I} finite lists have a polynomial description here"
        )
    raise Unsupported(f"unknown descriptor kind {desc.kind!r}")


def subgroup_of(group: MatrixGroup, desc: SubgroupDescriptor) -> MatrixGroup:
    """The subgroup the descriptor cuts out of the group, built once per
    group and descriptor."""
    sub = group.subgroups.get(desc)
    if sub is None:
        sub = group.subgroups[desc] = group.extended(descriptor_polys(group, desc))
    return sub


def _candidate_descriptors(
    group: MatrixGroup, subgroup: MatrixGroup
) -> list[SubgroupDescriptor]:
    """The named shapes that may describe `subgroup`.  In a 1x1 group the
    shape is read off the subgroup's reduced basis: an empty basis is FULL,
    and {X11^q - 1} is MU_N(q), or TRIVIAL when q = 1.  An order q above
    MAX_ROOT_ORDER raises Unsupported."""
    if group.size != 1:
        return [TRIVIAL, _pm_identity(group.size), SO2, DIAGONAL, FULL]
    rules = subgroup.basis.rules
    if not rules:
        return [FULL]
    if len(rules) == 1 and rules[0].rhs == Poly.const(group.context, 1):
        q = rules[0].as_poly().total_degree()
        if q > MAX_ROOT_ORDER:
            raise Unsupported(
                f"root-of-unity order {q} of the subgroup is above the limit "
                f"of {MAX_ROOT_ORDER}"
            )
        return [TRIVIAL if q == 1 else mu_n(q)]
    return []


def descriptor_of(
    group: MatrixGroup, subgroup: MatrixGroup
) -> SubgroupDescriptor | None:
    """Recognize a computed subgroup against the named shapes, by equal
    ideals (equal reduced bases) inside the ambient coordinate ring."""
    for desc in _candidate_descriptors(group, subgroup):
        try:
            candidate = subgroup_of(group, desc)
        except Unsupported:
            continue
        if candidate.basis == subgroup.basis:
            return desc
    return None


# -- bounded field membership -------------------------------------------------------


def window_products(
    tower: DiffTower,
    gens: Sequence[FieldElement],
    degree_bound: int,
    t_power_bound: int,
) -> list[FieldElement]:
    """Products g1^a1 * ... * gk^ak with every exponent ai in 0..degree_bound,
    so (degree_bound + 1)^k products, each times t^j for |j| <= t_power_bound:
    the search window for field membership.

    The products are returned as built, repeats included.  Membership
    depends only on the span of the window, and `member_of_field` keeps a
    basis of it, which a repeated entry does not join."""
    combos: list[FieldElement] = [tower.one()]
    for g in gens:
        g = tower.lift(g)
        grown: list[FieldElement] = []
        for c in combos:
            grown.append(c)
            acc = c
            for _ in range(degree_bound):
                acc = acc * g
                grown.append(acc)
        combos = grown
    if tower.base_var and t_power_bound:
        t = tower.var(tower.base_var)
        spread = []
        for c in combos:
            for k in range(-t_power_bound, t_power_bound + 1):
                spread.append(c * t**k)
        combos = spread
    return combos


def _generator_degrees(tower: DiffTower, poly: Poly) -> set[int]:
    """Total generator degree of each term of poly."""
    names = set(tower.generator_names())
    return {
        sum(e for v, e in m.exponents().items() if v in names) for m in poly.terms
    }


def member_of_field(
    tower: DiffTower,
    x: FieldElement,
    gens: Sequence[FieldElement],
    windows: dict[tuple[int, int], tuple[list[Poly], Echelon]] | None = None,
) -> bool:
    """Whether x = N/D for window polynomials N, D over the generators.

    The window elements w_k are cleared of their denominators once, as
    W_k = nf(w_k * L) for a common multiple L of the denominators, and
    added in window order to an echelon form; those it reports independent
    form a basis B of span(W), kept with their echelon.  For x = a/b the
    test starts from the span of the nf(b * B_k), the echelon of B itself
    (copied) when b is a constant, and adds nf(a * B_k) for k = 1, 2, ...
    in turn.  x is a member exactly when one of these additions is not
    independent.  The window degree grows with the queried element so that
    plain monomial relations always fit.  A False answer means no
    representation within the window bounds, so callers treat False as
    'not found', not as a proof of non-membership, except where the window
    provably spans the subfield's relevant piece.

    Why: x = N/D with N, D in span(W) and D nonzero means a * D = b * N,
    so that nf(a * D) lies in span(nf(b * B)), and back, as multiplying by
    b is injective in the field.  Write D = sum c_i B_i with c_j its last
    nonzero coefficient.  Then nf(a * B_j) lies in span(nf(b * B)) +
    span(nf(a * B_i) : i < j), so addition j is not independent.
    Conversely, a dependent addition j writes nf(a * B_j) in that span,
    with coefficients f_i on the nf(a * B_i), and D = B_j - sum f_i B_i is
    nonzero because B is independent.  This step uses only the linearity
    of nf, not that the coordinate ring is a domain.

    `windows` holds the bases and echelons of these generators' windows
    already built, keyed by (degree, t-power) bound; a caller that asks
    about several elements over the same generators passes one dict to
    share them.  Queries add to copies, never to a stored echelon.
    """
    x = tower.lift(x)
    deg, tpow = DEFAULT_FIELD_BOUNDS
    deg = max(deg, *_generator_degrees(tower, x.num), *_generator_degrees(tower, x.den))
    if tower.base_var and all(tower.base_var not in y.variables() for y in [x, *gens]):
        # t-free data: comparing t-homogeneous components of x*D = N shows a
        # t-free representation exists whenever any does
        tpow = 0
    if windows is None:
        windows = {}
    window = windows.get((deg, tpow))
    if window is None:
        span = Echelon()
        cleared = cleared_numerators(tower.rewrite, window_products(tower, gens, deg, tpow))
        basis = [w for w in cleared if span.add(w.by_key)]
        window = windows[deg, tpow] = (basis, span)
    basis, span = window
    nf = tower.rewrite.normal_form
    if x.den.is_constant():
        echelon = span.copy()
    else:
        echelon = Echelon()
        for w in basis:
            echelon.add(nf(x.den * w).by_key)
    return any(not echelon.add(nf(x.num * w).by_key) for w in basis)


# -- fixed fields ---------------------------------------------------------------------


@dataclass
class IntermediateField:
    pv: PVExtension
    generators: tuple[FieldElement, ...]
    # membership windows of the generators, each a basis of its cleared
    # elements with their echelon form, built on first use
    windows: dict[tuple[int, int], tuple[list[Poly], Echelon]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def describe(self) -> str:
        if not self.generators:
            return "K"
        inner = ", ".join(str(g) for g in self.generators)
        return f"K({inner})"

    def contains(self, x: FieldElement) -> bool:
        return member_of_field(self.pv.extension, x, self.generators, self.windows)

    def subfield_of(self, other: "IntermediateField") -> bool:
        return all(other.contains(g) for g in self.generators)


def fixed_field(group: MatrixGroup, desc: SubgroupDescriptor) -> IntermediateField:
    """The subfield of the extension fixed by the descriptor's subgroup.

    The combinations of the window's keys, the irreducible generator
    monomials, that the subgroup fixes are computed exactly, modulo its
    ideal (see galois.fixed_combinations), so every descriptor is treated
    as the algebraic group it cuts out, not as its set of real points.
    Each is built as one field element; no window element is built.
    """
    sub = subgroup_of(group, desc)
    pv = group.pv
    ext = pv.extension
    monomials = ext.irreducible_monomials(max(_WINDOW_DEGREE, desc.order or 0))
    fixed = [ext.elem(Poly._build(ext.context, {monomials[k]: c for k, c in vec.items()}))
             for vec in fixed_combinations(sub, monomials)]

    candidates = [
        x.scale(x.num.leading_coefficient().inverse())
        for x in fixed
        if not pv.base.writes(x)
    ]
    candidates.sort(key=lambda x: (x.num.total_degree(), str(x)))

    # each field shares its membership windows between the queries over it
    F = IntermediateField(pv, ())
    for cand in candidates:
        if F.generators and F.contains(cand):
            continue
        F = IntermediateField(pv, (*F.generators, cand))

    # exact re-checks: each generator is fixed modulo the subgroup's ideal,
    # and the field is closed under the derivation: g' = (g'/g) * g lies in
    # F when g'/g lies in K, and the membership window decides otherwise
    for g in F.generators:
        if not all(sub.basis.is_zero_mod(p) for p in invariance_conditions(sub, g)):
            raise BadField(f"{g} is not fixed by {desc.label()} (symbolic check)")
        dg = g.derive()
        if not (pv.base.writes(dg / g) or F.contains(dg)):
            raise BadField(f"derivative of {g} escapes the candidate field")
    return F


def group_over(
    group: MatrixGroup, F: IntermediateField
) -> tuple[MatrixGroup, SubgroupDescriptor | None]:
    """The subgroup fixing F pointwise, with its recognized shape."""
    extra: list[Poly] = []
    for g in F.generators:
        extra += invariance_conditions(group, g)
    sub = group.extended(extra)
    return sub, descriptor_of(group, sub)


def check_correspondence(
    group: MatrixGroup, desc: SubgroupDescriptor
) -> tuple[Report, IntermediateField, MatrixGroup]:
    """Both round trips for one descriptor: H -> fix(H) -> stab(fix(H)) = H,
    and the fixed field reproduces itself through its stabilizer."""
    report = Report("correspondence round trips")
    F = fixed_field(group, desc)
    sub, recognized = group_over(group, F)
    back = sub.basis == subgroup_of(group, desc).basis
    report.add(
        "group round trip",
        back,
        f"{desc.label()} -> {F.describe()} -> {recognized.label() if recognized else 'unrecognized'}",
    )
    # fixed_field is a function of the group and the descriptor, so a
    # recognized input descriptor gives back F itself: nothing to check
    if recognized == desc:
        report.info("field round trip", f"{F.describe()} vs {F.describe()}")
        return report, F, sub
    F2 = fixed_field(group, recognized) if recognized else None
    report.add(
        "field round trip",
        F2 is not None and F.subfield_of(F2) and F2.subfield_of(F),
        f"{F.describe()} vs {F2.describe() if F2 else '?'}",
    )
    return report, F, sub


def check_inclusion_reversal(
    group: MatrixGroup, chain: Sequence[SubgroupDescriptor]
) -> Report:
    """Fixed fields of an ascending subgroup chain must descend."""
    report = Report("inclusion reversal")
    fields = [fixed_field(group, d) for d in chain]
    for i in range(len(chain) - 1):
        small, big = chain[i], chain[i + 1]
        inner = subgroup_of(group, small).basis
        ok_groups = all(inner.is_zero_mod(p) for p in subgroup_of(group, big).polys)
        ok_fields = fields[i + 1].subfield_of(fields[i])
        report.add(
            f"{small.label()} <= {big.label()}",
            ok_groups and ok_fields,
            f"fields {fields[i + 1].describe()} <= {fields[i].describe()}",
        )
    return report


# -- normality -------------------------------------------------------------------------


def normality_check(group: MatrixGroup, desc: SubgroupDescriptor) -> Report:
    """Exact conjugation stability plus, for the named normal cases, an
    exhibited quotient: the fixed field is itself PV with explicit new
    solutions, and on the circle the quotient map is checked for the
    generic members of the group and of the subgroup.  The report ends with
    the quotient equation and its solutions when there is one."""
    report = Report("normality")
    sub = subgroup_of(group, desc)
    report.add(
        "conjugation stability",
        conjugation_stable(group, sub),
        "X*Y*X^-1 for generic X in the group and Y in the subgroup, "
        "modulo both ideals",
    )

    pv = group.pv
    quotient = None

    # subgroup_of refuses MU_N on groups that are not 1x1, so pv is first order
    if desc.kind == "MU_N":
        q = desc.order or 1
        ext = pv.extension
        power = ext.lift(pv.solutions[0]) ** q
        # (g^q)'/g^q = q * g'/g, and g'/g is the companion entry in K
        rate = pv.base.const(q) * pv.companion[0][0]
        ode = LinearODE(pv.base, (-rate,))
        residue = ode.apply(power)
        report.add(
            "fixed field generator solves a first-order equation over K",
            residue.is_zero(),
            f"Y' = ({rate})*Y at {power}",
        )
        quotient = ode, (power,)
        report.info("quotient map lambda -> lambda^q lands in GL1", f"q = {q}")

    if (
        desc.kind == "FINITE_LIST"
        and group.size == 2
        and pv.eq_class == "CIRCLE"
        and desc.elements is not None
        and len(desc.elements) == 2
    ):
        ext = pv.extension
        s = ext.lift(pv.solutions[0])
        c = ext.lift(pv.solutions[1])
        two = ext.const(2)
        y1 = two * s * c
        y2 = c * c - s * s
        omega = pv.companion[1][0]
        coeff = pv.base.const(4) * omega * omega
        ode = LinearODE(pv.base, (coeff, pv.base.zero()))
        ok1 = ode.apply(y1).is_zero()
        ok2 = ode.apply(y2).is_zero()
        report.add(
            "double-angle pair solves Y'' + 4*omega^2*Y = 0 over K",
            ok1 and ok2,
            f"solutions {y1} and {y2}",
        )
        quotient = ode, (y1, y2)
        report.add(
            "double-angle map is a homomorphism of the group, trivial on {I, -I}",
            _double_angle_is_quotient_map(group, sub),
            "phi(X*Y) = phi(X)*phi(Y), phi(X) in the group, phi(Y) = I on the "
            "subgroup, for generic X and Y",
        )

    if quotient is not None:
        ode, solutions = quotient
        report.info("quotient equation", ode.describe())
        report.info("quotient solutions", ", ".join(str(x) for x in solutions))
    return report


def _double_angle(m):
    a, b = m[0][0], m[1][0]
    two_ab = a * b + a * b
    return [[a * a - b * b, -two_ab], [two_ab, a * a - b * b]]


def _congruent(system: RewriteSystem, a, b) -> bool:
    """Whether the polynomial matrices a and b agree modulo the system."""
    return all(
        system.is_zero_mod(u - v) for ra, rb in zip(a, b) for u, v in zip(ra, rb)
    )


def _double_angle_is_quotient_map(group: MatrixGroup, sub: MatrixGroup) -> bool:
    """phi = _double_angle is multiplicative on the group, maps it into
    itself, and sends the subgroup to I, each decided for generic members."""
    system, x, y = generic_pair(group, group)
    phi_x = _double_angle(x)
    product = mat_mul(phi_x, _double_angle(y))
    if not _congruent(system, _double_angle(mat_mul(x, y)), product):
        return False
    if not all(
        system.is_zero_mod(group.evaluate(r.as_poly(), phi_x))
        for r in group.basis.rules
    ):
        return False
    system, _, y = generic_pair(group, sub)
    eye = [[Poly.const(system.context, int(i == j)) for j in range(2)] for i in range(2)]
    return _congruent(system, _double_angle(y), eye)


# -- weak normality ----------------------------------------------------------------------


def weak_normality_demo() -> Report:
    """The classical failure K(exp) over K with intermediate K(exp^q), for
    q = 3 and, as a control, q = 2.

    The intermediate field is PV over the base (it satisfies Y' = qY), and
    the subgroup fixing it consists of the q-th roots of unity.  Over the
    reals only the rational ones survive, so for odd q > 1 no real group
    element moves the generator even though it lies outside the
    intermediate field: the downward correspondence cannot see the field.
    """
    base = DiffTower(base_var="t")
    pv = build_pv(base, LinearODE.from_texts(base, ["-1"]), "EXP")
    group = defining_equations(pv)
    odd, real_count, complex_count = _weak_normality(group, 3)
    control, _, _ = _weak_normality(group, 2)
    rep = Report("demo: weak normality fails for K(e^3) inside K(e)")
    rep.info(
        "subgroup sizes",
        f"{real_count} real member(s) vs {complex_count} over the complexified constants",
    )
    rep.extend(odd)
    rep.info("control case", "q = 2, where a real member does move e")
    rep.extend(control)
    rep.data["q3_real_members"] = real_count
    rep.data["q3_complex_members"] = complex_count
    return rep


def _weak_normality(group: MatrixGroup, q: int) -> tuple[Report, int, int | None]:
    """The checks for one q >= 2, with the counts of real members and of
    members over the complexified constants, both read from the ideal of
    MU_N(q) in the group (None when that ideal is not one polynomial)."""
    pv = group.pv
    ext = pv.extension
    e = ext.lift(pv.solutions[0])
    sub = subgroup_of(group, mu_n(q))

    real_members = [lam for lam in (1, -1) if sub.is_member([[GaussRat.of(lam)]])]
    rules = sub.basis.rules
    complex_count = None
    roots_detail = "the ideal of the subgroup is not cut out by one polynomial"
    if len(rules) == 1:
        # distinct roots of f: deg f - deg gcd(f, f'), the gcd being the
        # reduced basis of the ideal (f, f'), with f read in X
        ctx = Context(["X"])
        x = Poly.variable(ctx, "X")
        f = rules[0].as_poly().substitute(lambda v: x, lambda c: Poly.const(ctx, c))
        [gcd] = buchberger([f, f.derivation({"X": Poly.const(ctx, 1)})], ctx).rules
        complex_count = f.total_degree() - gcd.as_poly().total_degree()
        roots_detail = f"{f} has {complex_count} roots over the complexified constants"

    # K(e^q) lies in K(e), whose certificates give it no new constants, so
    # it is PV over K once e^q solves Y' = qY
    power = e**q
    power_solves = LinearODE.from_texts(pv.base, [f"-{q}"]).apply(power).is_zero()
    in_F = member_of_field(ext, e, [power])
    moved = any(apply(sub.element([[GaussRat.of(lam)]]), e) != e for lam in real_members)

    report = Report(f"weak normality, q = {q}")
    report.add(
        f"intermediate field K(e^{q}) is PV over K",
        pv.certificates.ok and power_solves,
        f"Y' = {q}*Y with solution e^{q}",
    )
    report.add(
        "generator e lies outside the intermediate field",
        not in_F,
        "bounded membership search is empty, and exponents of window "
        f"products are multiples of {q}",
    )
    report.add(
        f"real members of MU_N({q})",
        len(real_members) == (1 if q % 2 else 2),
        f"{real_members}",
    )
    report.add("complexified member count equals q", complex_count == q, roots_detail)
    report.add(
        "no real subgroup member moves e" if q % 2 else "a real member moves e",
        (not moved) if q % 2 else moved,
        "the fixed field of the real points is all of L, strictly "
        "larger than the intermediate field"
        if q % 2
        else "",
    )
    return report, len(real_members), complex_count
