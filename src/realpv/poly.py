"""Sparse multivariate polynomials over the Gaussian rationals.

A `Context` fixes the ambient variable set and a total rank on it; the
monomial order used everywhere is graded lexicographic with respect to that
rank (total degree first, then the exponent of the highest-ranked variable,
and so on down).  Because the order is total, orientation of rewrite rules
is never ambiguous.

Polynomials are immutable-by-convention dictionaries mapping `Monomial` to
nonzero `GaussRat` coefficients.  Mixing polynomials from different contexts
raises `ContextError`; widening into a larger context is explicit via
`in_context`.

Validation happens only at the public constructors: `Poly(ctx, terms)`
coerces every coefficient to `GaussRat` and checks every variable against
the context, and `Monomial(exps)` rejects negative exponents.  Results of
arithmetic on valid polynomials and monomials are valid by construction, so
they are built by `Poly._build` and `Monomial._build`, which only drop zero
coefficients and zero exponents.

The canonical text form writes terms in decreasing monomial order with
coefficients rendered as "a/b" or "a/b+c/d*i"; `parse_fraction` reads that
form back (and general +,-,*,/,^ expressions) bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ContextError, DivisionByZero
from .gauss import ONE, GaussRat, Coeffable

__all__ = [
    "Context",
    "Monomial",
    "Poly",
    "parse_poly",
    "parse_fraction",
]


class Context:
    """Ordered variable set.  Variables are listed from lowest to highest rank."""

    __slots__ = ("variables", "_rank", "_desc")

    def __init__(self, variables: Sequence[str]):
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable in context: {variables}")
        self.variables: tuple[str, ...] = tuple(variables)
        self._rank = {v: k for k, v in enumerate(self.variables)}
        self._desc = self.variables[::-1]

    def rank(self, name: str) -> int:
        try:
            return self._rank[name]
        except KeyError:
            raise ContextError(f"variable {name!r} not in context {self.variables}")

    def __contains__(self, name: str) -> bool:
        return name in self._rank

    def __eq__(self, other) -> bool:
        return isinstance(other, Context) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"Context({list(self.variables)})"

    def extend_top(self, names: Sequence[str]) -> "Context":
        """New context with `names` adjoined above every existing variable."""
        return Context(self.variables + tuple(names))

    def extend_bottom(self, names: Sequence[str]) -> "Context":
        """New context with `names` adjoined below every existing variable."""
        return Context(tuple(names) + self.variables)

    def covers(self, other: "Context") -> bool:
        """Whether this context contains all of `other`'s variables in the
        same relative rank order."""
        mine = [v for v in self.variables if v in other._rank]
        return tuple(mine) == other.variables

    def key(self, m: "Monomial"):
        """Graded-lex sort key: bigger key means bigger monomial."""
        e = m._exps
        return (m._deg, tuple([e.get(v, 0) for v in self._desc]))


class Monomial:
    """Exponent vector, stored sparsely, independent of any context."""

    __slots__ = ("_exps", "_key", "_deg", "_hash")

    def __init__(self, exps: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        d = dict(exps)
        for v, e in list(d.items()):
            if e == 0:
                del d[v]
            elif e < 0:
                raise ValueError(f"negative exponent for {v}")
        self._fill(d, sum(d.values()))

    def _fill(self, exps: dict[str, int], degree: int) -> None:
        self._exps = exps
        self._key = tuple(sorted(exps.items()))
        self._deg = degree
        self._hash = hash(self._key)

    @classmethod
    def _build(cls, exps: dict[str, int], degree: int) -> "Monomial":
        """Monomial from positive exponents that sum to `degree`, unchecked."""
        m = cls.__new__(cls)
        m._fill(exps, degree)
        return m

    @staticmethod
    def var(name: str, exp: int = 1) -> "Monomial":
        return Monomial({name: exp})

    def degree(self) -> int:
        return self._deg

    def degree_in(self, name: str) -> int:
        return self._exps.get(name, 0)

    def variables(self) -> set[str]:
        return set(self._exps)

    def exponents(self) -> dict[str, int]:
        return dict(self._exps)

    def is_one(self) -> bool:
        return not self._exps

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other._exps:
            return self
        if not self._exps:
            return other
        d = dict(self._exps)
        for v, e in other._exps.items():
            d[v] = d.get(v, 0) + e
        m = Monomial.__new__(Monomial)
        m._exps = d
        m._key = key = tuple(sorted(d.items()))
        m._deg = self._deg + other._deg
        m._hash = hash(key)
        return m

    def __pow__(self, n: int) -> "Monomial":
        if n < 0:
            raise ValueError("negative monomial power")
        return Monomial({v: e * n for v, e in self._exps.items()})

    def divides(self, other: "Monomial") -> bool:
        if self._deg > other._deg:
            return False
        oe = other._exps
        for v, e in self._exps.items():
            if oe.get(v, 0) < e:
                return False
        return True

    def __truediv__(self, other: "Monomial") -> "Monomial":
        """Exact quotient; caller must ensure `other` divides `self`."""
        d = dict(self._exps)
        for v, e in other._exps.items():
            r = d.get(v, 0) - e
            if r > 0:
                d[v] = r
            elif r == 0:
                del d[v]
            else:
                raise ValueError(f"{other} does not divide {self}")
        return Monomial._build(d, self._deg - other._deg)

    def lcm(self, other: "Monomial") -> "Monomial":
        d = dict(self._exps)
        for v, e in other._exps.items():
            d[v] = max(d.get(v, 0), e)
        return Monomial._build(d, sum(d.values()))

    def gcd(self, other: "Monomial") -> "Monomial":
        oe = other._exps
        d = {v: min(e, oe[v]) for v, e in self._exps.items() if v in oe}
        return Monomial._build(d, sum(d.values()))

    def coprime(self, other: "Monomial") -> bool:
        return not (self.variables() & other.variables())

    def render(self, ctx: Context) -> str:
        if not self._exps:
            return "1"
        parts = []
        for v in reversed(ctx.variables):
            e = self._exps.get(v, 0)
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        inner = "*".join(f"{v}^{e}" for v, e in self._key) or "1"
        return f"Monomial({inner})"


ONE_MONOMIAL = Monomial()


class Poly:
    """Polynomial: a finite GaussRat-linear combination of monomials."""

    __slots__ = ("context", "terms")

    def __init__(self, context: Context, terms: Mapping[Monomial, Coeffable] = ()):
        self._fill(context, {m: GaussRat.of(c) for m, c in dict(terms).items()})
        for m in self.terms:
            for v in m._exps:
                if v not in context:
                    raise ContextError(
                        f"monomial uses {v!r}, absent from {context.variables}"
                    )

    def _fill(self, context: Context, terms: Mapping[Monomial, GaussRat]) -> None:
        self.context = context
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def _build(cls, context: Context, terms: Mapping[Monomial, GaussRat]) -> "Poly":
        """Polynomial from GaussRat coefficients on monomials of `context`,
        unchecked; zero coefficients are dropped."""
        p = cls.__new__(cls)
        p._fill(context, terms)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "Poly":
        return Poly(ctx)

    @staticmethod
    def const(ctx: Context, c: Coeffable) -> "Poly":
        return Poly._build(ctx, {ONE_MONOMIAL: GaussRat.of(c)})

    @staticmethod
    def variable(ctx: Context, name: str, exp: int = 1) -> "Poly":
        ctx.rank(name)
        return Poly._build(ctx, {Monomial.var(name, exp): ONE})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m.is_one() for m in self.terms)

    def constant_value(self) -> GaussRat:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(ONE_MONOMIAL, GaussRat.of(0))

    def total_degree(self) -> int:
        return max((m.degree() for m in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        return max((m.degree_in(name) for m in self.terms), default=0)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for m in self.terms:
            out |= m.variables()
        return out

    def coeff(self, m: Monomial) -> GaussRat:
        return self.terms.get(m, GaussRat.of(0))

    def monomials_desc(self) -> list[Monomial]:
        return sorted(self.terms, key=self.context.key, reverse=True)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=self.context.key)

    def leading_coefficient(self) -> GaussRat:
        return self.terms[self.leading_monomial()]

    def iter_sorted(self) -> Iterator[tuple[Monomial, GaussRat]]:
        for m in self.monomials_desc():
            yield m, self.terms[m]

    def _check(self, other: "Poly") -> None:
        if self.context != other.context:
            raise ContextError(
                f"context mismatch: {self.context.variables} vs {other.context.variables}"
            )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        d = dict(self.terms)
        for m, c in other.terms.items():
            s = d.get(m)
            d[m] = c if s is None else s + c
        return Poly._build(self.context, d)

    def __neg__(self) -> "Poly":
        return Poly._build(self.context, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        d: dict[Monomial, GaussRat] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                c = c1 * c2
                s = d.get(m)
                d[m] = c if s is None else s + c
        return Poly._build(self.context, d)

    def scale(self, c: Coeffable) -> "Poly":
        g = GaussRat.of(c)
        if not g:
            return Poly.zero(self.context)
        return Poly._build(self.context, {m: v * g for m, v in self.terms.items()})

    def mul_monomial(self, m: Monomial, c: Coeffable = 1) -> "Poly":
        g = GaussRat.of(c)
        unit = g == ONE
        return Poly._build(
            self.context, {mm * m: cc if unit else cc * g for mm, cc in self.terms.items()}
        )

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(self.context, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.leading_coefficient().inverse())

    def conj(self) -> "Poly":
        return Poly._build(self.context, {m: c.conj() for m, c in self.terms.items()})

    def real_imag(self) -> tuple["Poly", "Poly"]:
        re = {m: GaussRat(c.re) for m, c in self.terms.items()}
        im = {m: GaussRat(c.im) for m, c in self.terms.items()}
        return Poly._build(self.context, re), Poly._build(self.context, im)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.context == other.context
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.context, frozenset(self.terms.items())))

    def in_context(self, ctx: Context) -> "Poly":
        """Reinterpret in a wider context with the same relative ranks."""
        if ctx == self.context:
            return self
        if not ctx.covers(self.context):
            raise ContextError(
                f"{ctx.variables} does not cover {self.context.variables}"
            )
        return Poly._build(ctx, self.terms)

    def substitute(self, value, const, scale=None):
        """p with each variable v replaced by value(v) and each coefficient
        c by const(c), in any commutative ring.  With `scale`, the
        homogenisation scale^deg(p) * p(value / scale).

        Terms are visited in increasing monomial order and the variables of
        each term by name; each power value(v)^e is computed once."""
        powers: dict = {}
        degree = self.total_degree()
        out = const(0)
        for m in sorted(self.terms, key=self.context.key):
            term = const(self.terms[m])
            for v, e in sorted(m.exponents().items()):
                got = powers.get((v, e))
                if got is None:
                    got = powers[(v, e)] = value(v) ** e
                term = term * got
            if scale is not None:
                term = term * scale ** (degree - m.degree())
            out = out + term
        return out

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for m, c in self.iter_sorted():
            chunks.append(_render_term(m, c, self.context))
        out = chunks[0]
        for chunk in chunks[1:]:
            if chunk.startswith("-"):
                out += " - " + chunk[1:]
            else:
                out += " + " + chunk
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


def _render_coeff(c: GaussRat) -> str:
    s = str(c)
    if c.re != 0 and c.im != 0:
        return f"({s})"
    return s


def _render_term(m: Monomial, c: GaussRat, ctx: Context) -> str:
    if m.is_one():
        return _render_coeff(c)
    ms = m.render(ctx)
    if c.re == 1 and c.im == 0:
        return ms
    if c.re == -1 and c.im == 0:
        return "-" + ms
    return f"{_render_coeff(c)}*{ms}"


# -- parsing ------------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ValueError(f"parse error at column {self.pos + 1}: {msg} in {self.text!r}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        return int(self.text[start : self.pos])


class _Frac:
    """Unreduced rational function: a pair of polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise DivisionByZero("zero denominator in expression")
        self.num = num
        self.den = den

    def __add__(self, o: "_Frac") -> "_Frac":
        return _Frac(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self) -> "_Frac":
        return _Frac(-self.num, self.den)

    def __mul__(self, o: "_Frac") -> "_Frac":
        return _Frac(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "_Frac") -> "_Frac":
        if o.num.is_zero():
            raise DivisionByZero("division by zero in expression")
        return _Frac(self.num * o.den, self.den * o.num)

    def __pow__(self, n: int) -> "_Frac":
        if n >= 0:
            return _Frac(self.num**n, self.den**n)
        if self.num.is_zero():
            raise DivisionByZero("zero to a negative power")
        return _Frac(self.den ** (-n), self.num ** (-n))


def _parse_expr(tk: _Tokens, ctx: Context) -> _Frac:
    value = _parse_product(tk, ctx)
    while tk.peek() in ("+", "-"):
        op = tk.peek()
        tk.pos += 1
        rhs = _parse_product(tk, ctx)
        value = value + (-rhs if op == "-" else rhs)
    return value


def _parse_product(tk: _Tokens, ctx: Context) -> _Frac:
    value = _parse_factor(tk, ctx)
    while tk.peek() in ("*", "/"):
        op = tk.peek()
        tk.pos += 1
        rhs = _parse_factor(tk, ctx)
        value = value * rhs if op == "*" else value / rhs
    return value


def _parse_factor(tk: _Tokens, ctx: Context) -> _Frac:
    sign = 1
    while tk.peek() in ("+", "-"):
        if tk.peek() == "-":
            sign = -sign
        tk.pos += 1
    value = _parse_atom(tk, ctx)
    if tk.peek() == "^":
        tk.pos += 1
        neg = False
        if tk.peek() == "-":
            neg = True
            tk.pos += 1
        exp = tk.take_int()
        value = value ** (-exp if neg else exp)
    return -value if sign < 0 else value


def _parse_atom(tk: _Tokens, ctx: Context) -> _Frac:
    ch = tk.peek()
    one = Poly.const(ctx, 1)
    if ch == "(":
        tk.pos += 1
        inner = _parse_expr(tk, ctx)
        if tk.peek() != ")":
            tk.error("expected ')'")
        tk.pos += 1
        return inner
    if ch.isdigit():
        return _Frac(Poly.const(ctx, tk.take_int()), one)
    if ch.isalpha() or ch == "_":
        name = tk.take_name()
        if name == "i":
            return _Frac(Poly.const(ctx, GaussRat(Fraction(0), Fraction(1))), one)
        if name not in ctx:
            tk.error(f"unknown variable {name!r}")
        return _Frac(Poly.variable(ctx, name), one)
    if not ch:
        tk.error("unexpected end of input")
    tk.error(f"unexpected character {ch!r}")
    raise AssertionError


def parse_fraction(text: str, ctx: Context) -> tuple[Poly, Poly]:
    """Parse an expression into a (numerator, denominator) polynomial pair."""
    tk = _Tokens(text)
    value = _parse_expr(tk, ctx)
    if tk.peek() != "":
        tk.error("trailing input")
    return value.num, value.den


def parse_poly(text: str, ctx: Context) -> Poly:
    """Parse an expression that must denote a polynomial (constant denominator)."""
    num, den = parse_fraction(text, ctx)
    if not den.is_constant():
        raise ValueError(f"expression {text!r} is not polynomial")
    return num.scale(den.constant_value().inverse())
