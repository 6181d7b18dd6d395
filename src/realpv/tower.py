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
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadField,
    ContextError,
    DivisionByZero,
    IncompatibleDerivation,
    Unsupported,
)
from .gauss import ONE, ZERO, GaussRat, power
from .linsolve import relations
from .poly import (
    Context, Key, Monomial, Poly, mono_div, mono_divides, mono_gcd, mono_lcm, mono_mul,
    parse_fraction,
)
from .rewrite import RewriteSystem, buchberger

__all__ = [
    "Kind",
    "GeneratorSpec",
    "DiffTower",
    "FieldElement",
    "Ladder",
    "cleared_numerators",
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


def _clearing_factors(
    ctx: Context, dens: Iterable[Poly]
) -> tuple[Poly, dict[Poly, tuple[Key, Poly | None]]]:
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
    cofactor: dict[Poly, tuple[Key, Poly | None]] = {}
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


def _times(p: Poly, cofactor: tuple[Key, Poly | None]) -> Poly:
    m, others = cofactor
    p = p.mul_monomial(m)
    return p if others is None else p * others


def _monomial_part(p: Poly) -> tuple[Key, Poly]:
    """p as m * rest with m the gcd of p's monomials."""
    mons = iter(p.by_key)
    m = next(mons)
    for mm in mons:
        m = mono_gcd(m, mm)
    if m == p.context.one:
        return m, p
    return m, Poly._build(p.context, {mono_div(mm, m): c for mm, c in p.by_key.items()})


def _reduced_pairs(pairs: Mapping[Key, tuple[Poly, Poly]]) -> dict[Key, tuple[Poly, Poly]]:
    """Each pair (T, ME), in order, top-reduced by T's leading monomial
    against the pairs kept before it: f times a kept pair is subtracted
    from both halves while T's lead is a kept pair's, and the pair is kept
    at the new lead when it is not (`DiffTower._scan_relations`)."""
    kept: dict[Key, tuple[Poly, Poly]] = {}
    out = {}
    for m, (tn, me) in pairs.items():
        while tn.by_key:
            lead = tn.leading_monomial()
            hit = kept.get(lead)
            if hit is None:
                kept[lead] = tn, me
                break
            f = tn.by_key[lead] / hit[0].by_key[lead]
            tn, me = tn - hit[0].scale(f), me - hit[1].scale(f)
        out[m] = tn, me
    return out


def _pair_leads(
    tn: Poly, me: Poly, scalars: Mapping[int, GaussRat]
) -> tuple[Key | None, Key | None, int | None]:
    """The leading monomial of T, that of T + j * ME for j != 0, and the j
    among `scalars` at which the latter cancels (None for a zero
    polynomial or no such j)."""
    lt, lm = max(tn.by_key, default=None), max(me.by_key, default=None)
    if lm is None or lt is not None and lt > lm:
        return lt, lt, None
    if lt is None or lm > lt:
        return lt, lm, None
    c = -(tn.by_key[lt] / me.by_key[lm])
    return lt, lt, next((j for j, g in scalars.items() if g == c), None)


def _column(pair: tuple[Poly, Poly], g: GaussRat, shift: Key) -> Poly:
    """The scan column (T + g * ME) * t^s of a pair (T, ME), for g = j and
    the key `shift` of t^s (`DiffTower._scan_relations`)."""
    tn, me = pair
    return (tn + me.scale(g) if g else tn).mul_monomial(shift)


def _index_of_one(window: Sequence[tuple[Key, int]], ctx: Context) -> int:
    """Position of the element 1 = (1, 0) in a scan window, or -1."""
    one = (ctx.one, 0)
    return window.index(one) if one in window else -1


class FieldElement:
    """Element of a tower's fraction field in canonical form.

    Canonical means: numerator and denominator are normal forms and the
    denominator's leading coefficient is 1.  Equality is decided by
    cross-multiplication, since pairs are not reduced to lowest terms.
    A caller whose numerator is already a normal form says so with
    `num_normal`, and only the denominator is normal-formed.
    """

    __slots__ = ("num", "den", "tower")

    def __init__(self, num: Poly, den: Poly, tower: "DiffTower", *, num_normal: bool = False):
        nf = tower.rewrite.normal_form
        if not num_normal:
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
        return power(self, n, self.tower.one)

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


class Ladder:
    """The derivatives y, y', ..., y^(depth) of one tower element y = n/d
    over known denominators: normal forms N_k (`nums`) and powers a_k
    (`powers`) with y^(k) = N_k / (E^a_k * d^(k+1)), E the tower's common
    derivation denominator.  `d` is d, or None when it is 1.
    `DiffTower.derive` is rung 1.

    The quotient rule over the cleared derivation (p' = P_p/E) takes
    y^(k) = N/(E^a * d^(k+1)) to
        (P_N*E*d - N*(a*P_E*d + (k+1)*E*P_d)) / (E^(a+2) * d^(k+2)),
    where E divides the numerator when a = 0 or P_E = 0 (E' = 0):
        (P_N*d - (k+1)*N*P_d) / (E^(a+1) * d^(k+2)).
    So a_k = 0 when E is 1, a_k = k when E' = 0 and a_k = 2k - 1
    otherwise, against E^3 * d^4 for y'' by the plain quotient rule twice.
    Each step is one `_cleared_derivative` pass and one normal form, with
    no product by d or E when it is 1 and no P_d term when d is; P_d is
    one more normal form when d is not 1 and the ladder is deeper than 1.

    Entry k is the element N_k / (E^a_k * d^(k+1)), built the first time
    it is read with only its denominator normal-formed, as N_k is a normal
    form.
    """

    __slots__ = ("tower", "d", "nums", "powers", "_built", "_den")

    def __init__(self, y: FieldElement, depth: int):
        tower = self.tower = y.tower
        nf, cleared = tower.rewrite.normal_form, tower._cleared_derivative
        e, pe, d = tower._common, tower._common_derivative, y.den
        const_d = d.is_constant()  # a canonical constant denominator is 1
        self.d = None if const_d else d
        pd = None if const_d else cleared(d)
        if pd is not None and depth > 1:  # reused by each step
            pd = nf(pd)
        rise = 0 if e.is_constant() else 1  # no power of E to count when E is 1
        grows = depth > 1 and not pe.is_zero()  # step 0 has a = 0: rung 1 never grows
        if grows:
            ed, ped = (e, pe) if const_d else (e * d, pe * d)
            epd = None if const_d else e * pd
        nums, powers = [y.num], [0]
        for k in range(depth):
            num, a = nums[-1], powers[-1]
            dn = cleared(num)
            if a and grows:
                low = ped.scale(a) if const_d else ped.scale(a) + epd.scale(k + 1)
                out = dn * ed - num * low
            else:
                out = dn if const_d else dn * d - num * pd.scale(k + 1)
            powers.append(a + 2 if a and grows else a + rise)
            nums.append(nf(out))
        self.nums, self.powers = nums, powers
        self._built = [y]
        self._den = d  # E^a_k * d^(k+1) of the last entry built, unreduced

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, k: int) -> FieldElement:
        built = self._built
        if 0 <= k < len(built):
            return built[k]
        if not 0 <= k < len(self.nums):
            raise IndexError(k)
        powers = self.powers
        while len(built) <= k:
            j = len(built)
            den = self._den if self.d is None else self._den * self.d
            for _ in range(powers[j] - powers[j - 1]):
                den = den * self.tower.common_denominator
            self._den = den
            built.append(FieldElement(self.nums[j], den, self.tower, num_normal=True))
        return built[k]


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
        # P_E, zero exactly when E' = 0 (`Ladder`)
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
                # P_p/E of the raw relation p: p's normal form is 0
                p = self._cleared_derivative(s.relation.in_context(self.context))
                d = FieldElement(p, self._common, self)
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
        return p.derivation(self._cleared)

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
        """The derivative of x: rung 1 of its `Ladder`, one `FieldElement`
        built (two normal forms, of the numerator and the denominator),
        none in between."""
        return Ladder(self.lift(x), 1)[1]

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

    def irreducible_monomials(self, max_degree: int) -> list[Key]:
        """Keys of the generator monomials of bounded degree in rewrite
        normal form, sorted.  Each generator in turn multiplies the keys
        found so far by its powers, as keys; a key that a rule's leading
        monomial divides is dropped with all its multiples."""
        ctx = self.context
        lhss = [r.lhs for r in self.rewrite.rules]
        found = [(ctx.one, 0)]  # (key, degree)
        for g in self.generator_names():
            unit, grown = ctx.pack(Monomial.var(g)), []
            for m, d in found:
                while d <= max_degree and not any(mono_divides(l, m) for l in lhss):
                    grown.append((m, d))
                    m, d = mono_mul(m, unit), d + 1
            found = grown
        return sorted((m for m, _ in found), key=ctx.key)

    def _window(
        self, degree_bound: int, coeff_degree_bound: int
    ) -> list[tuple[Key, int]]:
        """The scan window as pairs (m, j) standing for m * t^j: generator
        monomials m of degree <= degree_bound, and Laurent powers j of the
        base variable up to coeff_degree_bound (only j = 0 without one)."""
        tpowers = (
            range(-coeff_degree_bound, coeff_degree_bound + 1)
            if self.base_var
            else range(0, 1)
        )
        return [(m, j) for m in self.irreducible_monomials(degree_bound) for j in tpowers]

    def _window_element(self, m: Key, j: int) -> FieldElement:
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

    def _scan_relations(
        self, window: Sequence[tuple[Key, int]], coeff_degree_bound: int
    ) -> list[list[GaussRat]]:
        """The `linsolve.relations` basis of the scan's columns, one
        polynomial per window element, mostly read from their leading
        monomials with no column built.
        Column k is the normal form of D(b) * E * t^K for the window element
        b = window[k], which vanishes exactly when D(b) does.

        E is the tower's common denominator and D(m) = M_m / E, with M_m
        the cleared derivative of the monomial m (`_cleared_derivative`).
        So D(m * t^j) * E * t^K = t^(j-1+K) * (t * M_m + j * m * E) with
        K = coeff_degree_bound + 1, a polynomial for every j in the window.
        The normal forms T_m of t * M_m and ME_m of m * E are computed once
        per m.  A column is (T_m + j * ME_m) * t^(j-1+K) (`_column`).
        Without a base variable column k is the normal form of M_m: t is 1
        and ME_m is not used.

        The product by a power of t stays irreducible unless some rule's
        leading monomial has t (t^3 -> g^2 when g^2 = t^3).  On such a tower
        every column is normal-formed and `relations` eliminates them.
        Otherwise the product keeps the monomial order, so a column's
        leading monomial is the larger of T_m's and ME_m's (T_m's for
        j = 0) times t^(j-1+K), and the column is built to find it only
        when the two leads are equal and cancel at j.

        Nonzero vectors with pairwise distinct leading monomials are
        independent: nothing cancels the largest lead of a combination.  So
        the pairs (T_m, ME_m) are first top-reduced, in window order, by
        T's leading monomial against the pairs kept from earlier monomials,
        ME carried along with the same factor (`_reduced_pairs`).  Each
        reduced column is then its own column plus earlier monomials'
        columns at the same j, with the same coefficients for every j; the
        window is m-major, so the reduced columns span the same prefixes
        and have the same dependent indices.  When their leads are pairwise
        distinct, the dependent ones are the zero reduced columns; when each
        of those is a zero column too, the canonical basis is the unit
        vectors of those columns and nothing is eliminated.  Otherwise every
        column is built and `relations` eliminates them.
        """
        ctx = self.context
        nf = self.rewrite.normal_form
        t = self.base_var
        if t:
            t_unit = ctx.pack(Monomial.var(t))
            shift = ctx.shifter(t)
        else:
            t_unit, shift = ctx.one, lambda key, s: key
        scalars = {j: GaussRat.of(j) for j in {j for _, j in window}}

        def pair_of(m: Key) -> tuple[Poly, Poly]:
            """T_m and ME_m (zero without t)."""
            tn = self._cleared_derivative(Poly._build(ctx, {m: ONE})).mul_monomial(t_unit)
            return nf(tn), nf(self._common.mul_monomial(m)) if t else Poly.zero(ctx)

        pairs = {m: pair_of(m) for m in dict.fromkeys(m for m, _ in window)}
        n = len(window)

        def column(table: Mapping[Key, tuple[Poly, Poly]], k: int) -> Poly:
            m, j = window[k]
            return _column(table[m], scalars[j], shift(ctx.one, j + coeff_degree_bound))

        if t and any(ctx.degree_in(r.lhs, t) for r in self.rewrite.rules):
            return relations([nf(column(pairs, k)).by_key for k in range(n)])

        reduced = _reduced_pairs(pairs)
        found = {m: _pair_leads(tn, me, scalars) for m, (tn, me) in reduced.items()}
        leads, zeros = set(), []
        for k, (m, j) in enumerate(window):
            lt, top, cancel = found[m]
            if j == cancel:  # the shifted leads do not give its lead
                lead = max(column(reduced, k).by_key, default=None)
            elif (lead := top if j else lt) is not None:
                lead = shift(lead, j + coeff_degree_bound)
            if lead is None:
                tn, me = pairs[m]
                if tn == me.scale(-scalars[j]):  # the unreduced column is zero
                    zeros.append(k)
                    continue
            elif lead not in leads:
                leads.add(lead)
                continue
            return relations([column(pairs, i).by_key for i in range(n)])
        return [[ONE if i == k else ZERO for i in range(n)] for k in zeros]

    def linear_relations(self, elems: Sequence[FieldElement]) -> list[list[GaussRat]]:
        """Kernel of (a_k) -> sum a_k elems[k], exactly, over GaussRat.

        Each numerator is multiplied by L/den for the common denominator L
        of `_clearing_factors`, normal-formed and compared monomial by
        monomial.  Scaling the family by the one nonzero L leaves the
        kernel, and so its canonical basis, unchanged.
        """
        return relations([p.by_key for p in cleared_numerators(self.rewrite, elems)])

    def combine(
        self, coeffs: Sequence[GaussRat], elems: Sequence[FieldElement]
    ) -> FieldElement:
        out = self.zero()
        for c, e in zip(coeffs, elems):
            if c:
                out = out + e.scale(c)
        return out

    def constant_scan(
        self, degree_bound: int, coeff_degree_bound: int
    ) -> list[FieldElement]:
        """New constants in the scan window, excluding the scalars.

        Solves d(sum a_k b_k) = 0 exactly over the window elements b_k.
        The kernel basis is `_scan_relations`, read from two normal forms
        per generator monomial, and eliminated only where leading monomials
        meet.  Each kernel vector, with the scalar direction projected off,
        gives one combination; window elements are built only for the
        combinations.  A combination that is a scalar is no new constant:
        the window can write 1 in more than one way, as g^2/t^3 when
        g^2 = t^3.  So an empty result certifies that the window contains
        no constant outside the base constants.  Two kernel vectors can
        likewise give one constant (e*g, e*g^3/g^2): a combination, scaled
        to leading coefficient 1, that equals one already found is dropped.

        It is the one window certificate: where there is no new constant,
        the solutions y of y' = a * y are the constant multiples of any one
        h of them, as (y/h)' = 0 (`realforms.radical_pair_report`).
        """
        window = self._window(degree_bound, coeff_degree_bound)
        one = _index_of_one(window, self.context)
        found: list[FieldElement] = []
        for vec in self._scan_relations(window, coeff_degree_bound):
            used = [k for k, c in enumerate(vec) if c and k != one]
            x = self.combine(
                [vec[k] for k in used], [self._window_element(*window[k]) for k in used]
            )
            if x.as_scalar() is not None:
                continue
            x = x.scale(x.num.leading_coefficient().inverse())
            if not any(x == y for y in found):
                found.append(x)
        return found
