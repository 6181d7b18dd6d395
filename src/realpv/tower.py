"""Differential field towers presented by generators, derivatives, relations.

A tower starts from either Q (no base variable) or Q(t) with t' = 1 and
grows by adjoining generators, each carrying a declared derivative (a
rational function of the tower so far, possibly involving the generator
itself or others adjoined in the same batch) and optionally a polynomial
relation.  The relations are completed into a confluent rewrite system, so
every element has a canonical (numerator, denominator) normal form and
equality and derivation are decidable exactly.

Variable ranks: generators adjoined later sit above earlier ones, the base
variable sits below all generators, and parameter variables (used for group
matrix entries, derivative zero) sit at the very bottom.

A tower presents a real field: its declared derivatives and relations
must have real coefficients.  Its elements may carry Q(i) coefficients, so
the same presentation also reads the complexification K(i), where
conjugation acts on the coefficients only (`Poly.conj`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadField,
    ContextError,
    DivisionByZero,
    IncompatibleDerivation,
    Unsupported,
)
from .gauss import ONE, GaussRat, power
from .linsolve import kernel
from .poly import (
    Context, Monomial, Poly, mono_div, mono_divides, mono_gcd, mono_lcm, parse_fraction,
)
from .rewrite import RewriteSystem, buchberger

__all__ = [
    "Kind",
    "GeneratorSpec",
    "DiffTower",
    "FieldElement",
    "cleared_numerators",
    "kernel_by_monomial",
]


class Kind(Enum):
    EXPONENTIAL = "exponential"
    ALGEBRAIC = "algebraic"
    ABSTRACT = "abstract"


@dataclass(frozen=True)
class GeneratorSpec:
    """One adjoined generator.  Polynomials live in the full tower context."""

    name: str
    kind: Kind
    deriv_num: Poly
    deriv_den: Poly
    relation: Poly | None = None


def _specs_in(specs: Iterable[GeneratorSpec], ctx: Context) -> list[GeneratorSpec]:
    """The specs with their polynomials re-read in a larger context."""
    return [
        GeneratorSpec(
            s.name,
            s.kind,
            s.deriv_num.in_context(ctx),
            s.deriv_den.in_context(ctx),
            None if s.relation is None else s.relation.in_context(ctx),
        )
        for s in specs
    ]


def cleared_numerators(
    system: RewriteSystem, elems: Sequence["FieldElement"]
) -> list[Poly]:
    """The normal forms of num * L/den for the elements num/den, with one
    common multiple L of their denominators (`_clearing_factors`)."""
    _, cofactor = _clearing_factors(system.context, [e.den for e in elems])
    nf = system.normal_form
    return [nf(_times(e.num, cofactor[e.den])) for e in elems]


def kernel_by_monomial(ctx: Context, polys: Sequence[Poly]) -> list[list[GaussRat]]:
    """Kernel of (a_k) -> sum a_k polys[k], one equation per monomial."""
    by_monomial: dict[tuple, dict[int, GaussRat]] = {}
    for k, p in enumerate(polys):
        for mm, c in p.by_key.items():
            by_monomial.setdefault(mm, {})[k] = c
    rows = [by_monomial[mm] for mm in sorted(by_monomial, key=ctx.key)]
    return kernel(len(polys), rows)


def _clearing_factors(
    ctx: Context, dens: Iterable[Poly]
) -> tuple[Poly, dict[Poly, tuple[tuple, Poly | None]]]:
    """A common multiple L of `dens` and the cofactor L/den of each, as a
    monomial times the product of the other rests (None when there is
    none); `_times` applies it.

    Each denominator is split as a monomial times the rest (the gcd of its
    terms' monomials, and the quotient).  L is the least common multiple of
    the monomial parts times every distinct rest other than 1.
    """
    split = {d: _monomial_part(d) for d in dens}
    one = Poly.const(ctx, 1)
    rests = [r for r in dict.fromkeys(rest for _, rest in split.values()) if r != one]
    mono = ctx.one
    for m, _ in split.values():
        mono = mono_lcm(mono, m)
    cofactor: dict[Poly, tuple[tuple, Poly | None]] = {}
    for d, (m, rest) in split.items():
        others = None
        for r in rests:
            if r != rest:
                others = r if others is None else others * r
        cofactor[d] = (mono_div(mono, m), others)
    common = Poly._build(ctx, {mono: ONE})
    for r in rests:
        common = common * r
    return common, cofactor


def _times(p: Poly, cofactor: tuple[tuple, Poly | None]) -> Poly:
    m, others = cofactor
    p = p.mul_monomial(m)
    return p if others is None else p * others


def _monomial_part(p: Poly) -> tuple[tuple, Poly]:
    """p as m * rest with m the gcd of p's monomials."""
    mons = iter(p.by_key)
    m = next(mons)
    for mm in mons:
        m = mono_gcd(m, mm)
    if m == p.context.one:
        return m, p
    return m, Poly._build(p.context, {mono_div(mm, m): c for mm, c in p.by_key.items()})


def _index_of_one(window: Sequence[tuple[tuple, int]], ctx: Context) -> int:
    """Position of the element 1 = (1, 0) in a scan window, or -1."""
    one = (ctx.one, 0)
    return window.index(one) if one in window else -1


class FieldElement:
    """Element of a tower's fraction field in canonical form.

    Canonical means: numerator and denominator are normal forms and the
    denominator's leading coefficient is 1.  Equality is decided by
    cross-multiplication, since pairs are not reduced to lowest terms.
    """

    __slots__ = ("num", "den", "tower")

    def __init__(self, num: Poly, den: Poly, tower: "DiffTower"):
        nf = tower.rewrite.normal_form
        num = nf(num)
        den = nf(den)
        if den.is_zero():
            raise DivisionByZero("denominator is zero in the tower")
        if num.is_zero():
            den = Poly.const(tower.context, 1)
        else:
            lc = den.leading_coefficient()
            if lc != ONE:
                inv = lc.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den
        self.tower = tower

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def variables(self) -> set[str]:
        """The variables the element is written in."""
        return self.num.variables() | self.den.variables()

    def as_scalar(self) -> GaussRat | None:
        """The element's value if it is a scalar (num = v * den), else None."""
        if self.num.is_zero():
            return GaussRat.of(0)
        v = self.num.leading_coefficient() / self.den.leading_coefficient()
        if self.num == self.den.scale(v):
            return v
        return None

    # -- arithmetic ----------------------------------------------------------

    def _join(self, other: "FieldElement") -> "DiffTower":
        return self.tower.merge_with(other.tower)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        tw = self._join(other)
        return FieldElement(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
            tw,
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.num, self.den, self.tower)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        tw = self._join(other)
        return FieldElement(self.num * other.num, self.den * other.den, tw)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return FieldElement(self.den, self.num, self.tower)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        # Squares are normal-formed; num^n / den^n would swell under relations.
        return power(self, n, self.tower.one())

    def scale(self, c) -> "FieldElement":
        return FieldElement(self.num.scale(c), self.den, self.tower)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        tw = self._join(other)
        cross = self.num * other.den - other.num * self.den
        return tw.rewrite.normal_form(cross).is_zero()

    __hash__ = None  # equality is by cross-multiplication; no canonical hash

    # -- calculus ------------------------------------------------------------

    def derive(self) -> "FieldElement":
        return self.tower.derive(self)

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == GaussRat.of(1):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"FieldElement({self})"


class DiffTower:
    """Tower of differential field extensions in a fixed presentation."""

    def __init__(
        self,
        base_var: str | None = "t",
        specs: Sequence[GeneratorSpec] = (),
        params: Sequence[str] = (),
    ):
        names = list(params) + ([base_var] if base_var else []) + [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"variable name clash in tower: {names}")
        self.base_var = base_var
        self.params = tuple(params)
        self.specs = tuple(specs)
        self.context = Context(names)
        relations = [s.relation for s in specs if s.relation is not None]
        self.rewrite = buchberger(relations, self.context)
        self._common, self._cleared = self._cleared_derivation()
        # P_E, zero exactly when E' = 0 (`ladder`)
        self._common_derivative = self.rewrite.normal_form(
            self._cleared_derivative(self._common)
        )
        self._validate()

    # -- construction internals ----------------------------------------------

    def _cleared_derivation(self) -> tuple[Poly, dict[str, Poly]]:
        """The derivation over one denominator: the common multiple E of the
        denominators of the derivatives v' = N_v/E_v (`_clearing_factors`,
        t' = 1 included) and the normal form of C_v = N_v * E/E_v for each
        v with v' != 0, so that v' = C_v/E.  Parameters have no entry."""
        derivs = {self.base_var: self.one()} if self.base_var else {}
        derivs.update((s.name, self.elem(s.deriv_num, s.deriv_den)) for s in self.specs)
        common, cofactor = _clearing_factors(self.context, [d.den for d in derivs.values()])
        nf = self.rewrite.normal_form
        cleared = {
            v: nf(_times(d.num, cofactor[d.den])) for v, d in derivs.items() if not d.is_zero()
        }
        return nf(common), cleared

    def _validate(self) -> None:
        for s in self.specs:
            data = (s.deriv_num, s.deriv_den, s.relation)
            if any(c.im for p in data if p is not None for c in p.by_key.values()):
                raise Unsupported(
                    f"generator {s.name!r} uses complex coefficients in a real tower"
                )
        for s in self.specs:
            if s.relation is not None:
                d = self.derive_poly(s.relation.in_context(self.context))
                if not d.is_zero():
                    raise IncompatibleDerivation(
                        f"relation for {s.name!r} is not differential: d({s.relation}) = {d}"
                    )

    # -- identity ------------------------------------------------------------

    def signature(self):
        return (self.base_var, self.params, self.specs)

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffTower) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def merge_with(self, other: "DiffTower") -> "DiffTower":
        if self is other or self == other:
            return self
        raise ContextError("elements belong to structurally different towers")

    def __repr__(self) -> str:
        gens = ",".join(s.name for s in self.specs)
        base = self.base_var or "Q"
        return f"DiffTower({base}; {gens})"

    def describe(self) -> list[str]:
        """Stable human-readable summary lines for reports."""
        out = [f"base: {self.base_var or 'constants'} (real)"]
        for s in self.specs:
            d = FieldElement(s.deriv_num, s.deriv_den, self)
            line = f"generator {s.name} [{s.kind.value}]: {s.name}' = {d}"
            if s.relation is not None:
                line += f", relation {s.relation} = 0"
            out.append(line)
        return out

    # -- element constructors --------------------------------------------------

    def one(self) -> FieldElement:
        c = Poly.const(self.context, 1)
        return FieldElement(c, c, self)

    def zero(self) -> FieldElement:
        return FieldElement(Poly.zero(self.context), Poly.const(self.context, 1), self)

    def const(self, c) -> FieldElement:
        return FieldElement(
            Poly.const(self.context, c), Poly.const(self.context, 1), self
        )

    def var(self, name: str) -> FieldElement:
        return FieldElement(
            Poly.variable(self.context, name), Poly.const(self.context, 1), self
        )

    def elem(self, num: Poly, den: Poly | None = None) -> FieldElement:
        return FieldElement(
            num.in_context(self.context),
            Poly.const(self.context, 1) if den is None else den.in_context(self.context),
            self,
        )

    def parse(self, text: str) -> FieldElement:
        num, den = parse_fraction(text, self.context)
        return FieldElement(num, den, self)

    def generator_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    # -- derivation ------------------------------------------------------------

    @property
    def common_denominator(self) -> Poly:
        """E, the one denominator of the cleared derivation."""
        return self._common

    def _cleared_derivative(self, p: Poly) -> Poly:
        """P_p = sum_v dp/dv * C_v, the numerator of p' = P_p/E over the
        tower's one denominator (`_cleared_derivation`); not normal-formed."""
        out = Poly.zero(self.context)
        for v, cv in self._cleared.items():
            dp = p.partial(v)
            if dp.by_key:
                out = out + dp * cv
        return out

    def derive_poly(self, p: Poly) -> FieldElement:
        """Derivative of a polynomial: P_p/E, one `FieldElement` built from
        the cleared derivation with no intermediate element."""
        p = self._cleared_derivative(p.in_context(self.context))
        return FieldElement(p, self._common, self)

    def lift(self, x: FieldElement) -> FieldElement:
        """Re-read an element of a smaller tower in this one; an element of
        this tower is returned as it is."""
        if x.tower == self:
            return x
        return self.elem(x.num, x.den)

    def writes(self, x: FieldElement) -> bool:
        """Whether x is written in this tower's variables alone."""
        return x.variables() <= set(self.context.variables)

    def restrict(self, x: FieldElement) -> FieldElement:
        """Re-read an element of a larger tower in this one.

        Scalars always restrict; anything else must be written in this
        tower's variables only, or BadField is raised.
        """
        scalar = x.as_scalar()
        if scalar is not None:
            return self.const(scalar)
        if not self.writes(x):
            raise BadField(f"{x} does not lie in the base field")
        return self.elem(x.num.in_context(self.context), x.den.in_context(self.context))

    def derive(self, x: FieldElement) -> FieldElement:
        """The derivative of n/d: (P_n*d - n*P_d)/(E*d^2) by the quotient
        rule over the cleared derivation, or P_n/E when d is 1.  One
        `FieldElement` is built (two normal forms), none in between."""
        x = self.lift(x)
        n, d = x.num, x.den
        dn = self._cleared_derivative(n)
        if d.is_constant():  # a canonical constant denominator is 1
            return FieldElement(dn, self._common, self)
        dd = self._cleared_derivative(d)
        return FieldElement(dn * d - n * dd, self._common * (d * d), self)

    def ladder(self, x: FieldElement, depth: int) -> tuple[list[Poly], list[int]]:
        """x, x', ..., x^(depth) over known denominators: the normal forms
        N_k and the powers a_k with x^(k) = N_k / (E^a_k * d^(k+1)) for
        x = n/d, E the common denominator.  No `FieldElement` is built.

        The quotient rule over the cleared derivation (p' = P_p/E) takes
        x^(k) = N/(E^a * d^(k+1)) to
            (P_N*E*d - N*(a*P_E*d + (k+1)*E*P_d)) / (E^(a+2) * d^(k+2)),
        where E divides the numerator when a = 0 or P_E = 0 (E' = 0):
            (P_N*d - (k+1)*N*P_d) / (E^(a+1) * d^(k+2)).
        So a_k = 0 when E is 1, a_k = k when E' = 0 and a_k = 2k - 1
        otherwise, against E^3 * d^4 for x'' by `derive` twice.  Each step
        is one `_cleared_derivative` pass and one normal form, with no
        product by d or E when it is 1 and no P_d term when d is.
        """
        x = self.lift(x)
        nf = self.rewrite.normal_form
        e, pe, d = self._common, self._common_derivative, x.den
        const_d = d.is_constant()  # a canonical constant denominator is 1
        pd = None if const_d else nf(self._cleared_derivative(d))
        rise = 0 if e.is_constant() else 1  # no power of E to count when E is 1
        grows = not pe.is_zero()
        if grows:
            ed, ped = (e, pe) if const_d else (e * d, pe * d)
            epd = None if const_d else e * pd
        nums, powers = [x.num], [0]
        for k in range(depth):
            num, a = nums[-1], powers[-1]
            dn = self._cleared_derivative(num)
            if a and grows:
                low = ped.scale(a) if const_d else ped.scale(a) + epd.scale(k + 1)
                out = dn * ed - num * low
            else:
                out = dn if const_d else dn * d - num * pd.scale(k + 1)
            powers.append(a + 2 if a and grows else a + rise)
            nums.append(nf(out))
        return nums, powers

    # -- substitution ---------------------------------------------------------

    def eval_poly(
        self, p: Poly, mapping: Mapping[str, FieldElement]
    ) -> FieldElement:
        """Evaluate p with some variables replaced by field elements.

        Unmapped variables stay themselves.  p may come from a foreign
        context (such as the Z slots of a solution relation) as long as every
        variable outside this tower is mapped; an unmapped one raises
        ContextError.  Used for group actions and relation checks.
        """
        return p.substitute(
            lambda v: mapping[v] if v in mapping else self.var(v), self.const
        )

    # -- tower growth ----------------------------------------------------------

    def _extended(self, new_specs: Sequence[GeneratorSpec]) -> "DiffTower":
        ctx = self.context.extend_top([s.name for s in new_specs])
        lifted = _specs_in(list(self.specs) + list(new_specs), ctx)
        return DiffTower(self.base_var, lifted, self.params)

    def extended_context(self, names: Sequence[str]) -> Context:
        return self.context.extend_top(names)

    def adjoin_abstract(
        self,
        names: Sequence[str],
        derivatives: Sequence[str | tuple[Poly, Poly]],
        relations: Sequence[str | Poly] = (),
        kind: Kind = Kind.ABSTRACT,
    ) -> "DiffTower":
        """Adjoin a batch of generators with declared derivatives.

        Derivatives and relations may be given as text (parsed in the
        extended context, so they can mention the new names) or as
        polynomial data.  Relations are attached to the last new generator
        they mention; each must be differentially compatible.
        """
        ctx = self.extended_context(names)

        def coerce_deriv(d) -> tuple[Poly, Poly]:
            if isinstance(d, str):
                return parse_fraction(d, ctx)
            num, den = d
            return num.in_context(ctx), den.in_context(ctx)

        rels: list[Poly] = []
        for r in relations:
            rels.append(
                parse_fraction(r, ctx)[0] if isinstance(r, str) else r.in_context(ctx)
            )
        per_gen: dict[str, Poly] = {}
        for r in rels:
            owners = [n for n in names if n in r.variables()]
            if not owners:
                raise ValueError(f"relation {r} mentions no new generator")
            if per_gen.get(owners[-1]) is not None:
                raise ValueError(f"two relations attached to {owners[-1]!r}")
            per_gen[owners[-1]] = r
        specs = []
        for name, d in zip(names, derivatives):
            dn, dd = coerce_deriv(d)
            specs.append(GeneratorSpec(name, kind, dn, dd, per_gen.get(name)))
        return self._extended(specs)

    def adjoin_exponential(self, name: str, rate: FieldElement) -> "DiffTower":
        """Adjoin e with e' = rate * e (the rate lives in this tower)."""
        ctx = self.extended_context([name])
        e = Poly.variable(ctx, name)
        return self._extended(
            [
                GeneratorSpec(
                    name,
                    Kind.EXPONENTIAL,
                    rate.num.in_context(ctx) * e,
                    rate.den.in_context(ctx),
                    None,
                )
            ]
        )

    def adjoin_algebraic(
        self, name: str, relation: str | Poly, derivative: str | tuple[Poly, Poly]
    ) -> "DiffTower":
        """Adjoin one generator with a polynomial relation; the relation must
        be stable under the declared derivation or IncompatibleDerivation is
        raised."""
        return self.adjoin_abstract([name], [derivative], [relation], kind=Kind.ALGEBRAIC)

    def with_params(self, names: Sequence[str]) -> "DiffTower":
        """Same tower with constant parameter variables below everything."""
        ctx = self.context.extend_bottom(names)
        lifted = _specs_in(self.specs, ctx)
        return DiffTower(self.base_var, lifted, tuple(names) + self.params)

    # -- monomial windows and constants --------------------------------------

    def irreducible_monomials(self, max_degree: int) -> list[tuple]:
        """Keys of the generator monomials of bounded degree in rewrite
        normal form."""
        gens = self.generator_names()
        lhss = [r.lhs for r in self.rewrite.rules]
        out: list[tuple] = []

        def rec(idx: int, budget: int, acc: dict[str, int]):
            if idx == len(gens):
                m = self.context.pack(Monomial(acc))
                if not any(mono_divides(l, m) for l in lhss):
                    out.append(m)
                return
            for e in range(budget + 1):
                nxt = dict(acc)
                if e:
                    nxt[gens[idx]] = e
                rec(idx + 1, budget - e, nxt)

        rec(0, max_degree, {})
        out.sort(key=self.context.key)
        return out

    def _window(
        self, degree_bound: int, coeff_degree_bound: int
    ) -> list[tuple[tuple, int]]:
        """The scan window as pairs (m, j) standing for m * t^j: generator
        monomials m of degree <= degree_bound, and Laurent powers j of the
        base variable up to coeff_degree_bound (only j = 0 without one)."""
        tpowers = (
            range(-coeff_degree_bound, coeff_degree_bound + 1)
            if self.base_var
            else range(0, 1)
        )
        return [(m, j) for m in self.irreducible_monomials(degree_bound) for j in tpowers]

    def _window_element(self, m: tuple, j: int) -> FieldElement:
        """The window element m * t^j."""
        num = Poly._build(self.context, {m: ONE})
        den = Poly.const(self.context, 1)
        if j > 0:
            num = Poly.variable(self.context, self.base_var, j).mul_monomial(m)
        elif j < 0:
            den = Poly.variable(self.context, self.base_var, -j)
        return FieldElement(num, den, self)

    def scan_basis(
        self, degree_bound: int, coeff_degree_bound: int
    ) -> tuple[list[FieldElement], int]:
        """Finite scan window: generator monomials of degree <= degree_bound
        with Laurent powers of the base variable up to coeff_degree_bound.
        Returns the elements and the index of the constant element 1."""
        window = self._window(degree_bound, coeff_degree_bound)
        elems = [self._window_element(m, j) for m, j in window]
        return elems, _index_of_one(window, self.context)

    def _scan_rows(
        self,
        window: Sequence[tuple[tuple, int]],
        coeff_degree_bound: int,
        rate: FieldElement | None = None,
    ) -> list[dict[int, GaussRat]]:
        """The scan's linear system, one row {column: coefficient} per
        monomial in increasing order.  Column k is the normal form of
        D(b) * E * t^K for the window element b = window[k], which vanishes
        exactly when D(b) does; with a rate r = num/den of this tower that
        lies in the base, of (D(b) - r * b) * E * den * t^K, which vanishes
        exactly when D(b) = r * b.

        E is the tower's common denominator and D(m) = M_m / E, with
        M_m = sum_v e_v * (m/v) * C_v for m = prod_v v^e_v, read from the
        cleared derivation (`_cleared_derivation`).  So
        D(m * t^j) * E * t^K = t^(j-1+K) * (t * M_m + j * m * E) with
        K = coeff_degree_bound + 1, a polynomial for every j in the window.
        The normal forms T_m of t * M_m and ME_m of m * E are computed once
        per m; a rate makes them nf(t * (den * M_m - num * m * E)) and
        nf(den * m * E), and changes nothing else.  A column merges
        T_m + j * ME_m, itself a normal form, and writes each term times
        t^(j-1+K) into its row.  That product stays irreducible unless some
        rule's leading monomial has t (t^3 -> g^2 when g^2 = t^3); only then
        is the column normal-formed again.  Without a base variable column
        k is the normal form of M_m (den * M_m - num * m * E with a rate).
        """
        ctx = self.context
        nf = self.rewrite.normal_form
        t = self.base_var
        if t:
            t_unit = ctx.pack(Monomial.var(t))
            shift = ctx.shifter(t)
            reducible = any(ctx.unpack(r.lhs).degree_in(t) for r in self.rewrite.rules)

        def normal_forms(m: tuple) -> tuple[dict, dict]:
            """The terms of T_m and ME_m; of M_m and none without t."""
            mm = self._cleared_derivative(Poly._build(ctx, {m: ONE}))
            me = self._common.mul_monomial(m) if t or rate is not None else None
            if rate is not None:
                mm = rate.den * mm - rate.num * me
                me = rate.den * me
            if not t:
                return nf(mm).by_key, {}
            return nf(mm.mul_monomial(t_unit)).by_key, nf(me).by_key

        parts: dict[tuple, tuple[dict, dict]] = {}
        rows: dict[tuple, dict[int, GaussRat]] = {}
        for k, (m, j) in enumerate(window):
            got = parts.get(m)
            if got is None:
                got = parts[m] = normal_forms(m)
            tn, me = got
            col = tn
            if t:
                s, g = j + coeff_degree_bound, GaussRat.of(j)
                if not j:
                    me = {}
                col = {}
                for key, c in tn.items():
                    if key in me:
                        c = c + me[key] * g
                        if not c:
                            continue
                    col[shift(key, s)] = c
                for key, c in me.items():
                    if key not in tn:
                        col[shift(key, s)] = c * g
                if reducible:
                    col = nf(Poly._build(ctx, col)).by_key
            for key, c in col.items():
                row = rows.get(key)
                if row is None:
                    rows[key] = {k: c}
                else:
                    row[k] = c
        return [rows[key] for key in sorted(rows, key=ctx.key)]

    def linear_relations(self, elems: Sequence[FieldElement]) -> list[list[GaussRat]]:
        """Kernel of (a_k) -> sum a_k elems[k], exactly, over GaussRat.

        Each numerator is multiplied by L/den for the common denominator L
        of `_clearing_factors`, normal-formed and compared monomial by
        monomial.  Scaling the family by the one nonzero L leaves the
        kernel, and so its canonical basis, unchanged.
        """
        return kernel_by_monomial(self.context, cleared_numerators(self.rewrite, elems))

    def combine(
        self, coeffs: Sequence[GaussRat], elems: Sequence[FieldElement]
    ) -> FieldElement:
        out = self.zero()
        for c, e in zip(coeffs, elems):
            if c:
                out = out + e.scale(c)
        return out

    def _window_combinations(
        self, degree_bound: int, coeff_degree_bound: int, rate: FieldElement | None = None
    ) -> Iterator[FieldElement]:
        """One window combination per vector of the kernel basis of
        `_scan_rows`, the canonical one of D(b) - r * b over the `scan_basis`
        elements b (r the rate or 0), as each column is that element times
        one common factor.  Without a rate the scalar direction is projected
        off.  Window elements are built only for the combinations."""
        window = self._window(degree_bound, coeff_degree_bound)
        rows = self._scan_rows(window, coeff_degree_bound, rate)
        skip = _index_of_one(window, self.context) if rate is None else -1
        for vec in kernel(len(window), rows):
            used = [k for k, c in enumerate(vec) if c and k != skip]
            yield self.combine(
                [vec[k] for k in used], [self._window_element(*window[k]) for k in used]
            )

    def constant_scan(
        self, degree_bound: int, coeff_degree_bound: int
    ) -> list[FieldElement]:
        """New constants in the scan window, excluding the scalars.

        Solves d(sum a_k b_k) = 0 exactly over the window elements b_k
        (`_window_combinations`): `_scan_rows` writes the system in one
        pass, one equation per monomial, from two normal forms per
        generator monomial and none per window element.  A combination that
        is a scalar is no new constant: the window can write 1 in more than
        one way, as g^2/t^3 when g^2 = t^3.  So an empty result certifies
        that the window contains no constant outside the base constants.
        Two kernel vectors can likewise give one constant (e*g, e*g^3/g^2):
        a combination, scaled to leading coefficient 1, that equals one
        already found is dropped.
        """
        found: list[FieldElement] = []
        for x in self._window_combinations(degree_bound, coeff_degree_bound):
            if x.as_scalar() is not None:
                continue
            x = x.scale(x.num.leading_coefficient().inverse())
            if not any(x == y for y in found):
                found.append(x)
        return found

    def solution_scan(
        self, rate: FieldElement, degree_bound: int, coeff_degree_bound: int
    ) -> list[FieldElement]:
        """The window's solutions of y' = rate * y for a rate in the base:
        the combinations (`_window_combinations`) that are not zero, as one
        can be where the window writes an element twice (g^2/t^3 and 1 when
        g^2 = t^3).  The rate changes two normal forms per monomial only."""
        scan = self._window_combinations(degree_bound, coeff_degree_bound, self.lift(rate))
        return [y for y in scan if not y.is_zero()]
