"""Sparse multivariate polynomials over the Gaussian rationals.

A `Context` fixes the ambient variable set and a total rank on it; the
monomial order used everywhere is graded lexicographic with respect to that
rank (total degree first, then the exponent of the highest-ranked variable,
and so on down).  Because the order is total, orientation of rewrite rules
is never ambiguous.

A polynomial keeps its terms in `Poly.by_key`, a dict from monomial keys to
nonzero `GaussRat` coefficients.  A key is one non-negative int holding
the exponent vector packed (Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007): each
variable of the context has a slot of `_W` = 32 bits, in rank order with
the lowest-ranked variable in the lowest slot, and the total degree sits
in the bits above the last slot.  Integer order is then exactly the
graded-lex order: the leading monomial is `max(by_key)` and sorting needs
no key function.  A product of keys is their sum, a quotient their
difference, and a power t^s of one variable adds s times that
variable's unit, all with no carry from one slot into the next.  The
top bit of each slot is a guard bit, never set in a key: `MAX_DEGREE`,
2^31 - 1, bounds the total degree and so every slot, and a product past
it raises `Unsupported` instead of giving a wrong key.  A - b then
borrows into the guard bit of some slot exactly when b does not divide
a, so divisibility is one subtraction and one AND (`mono_divides`,
`mono_div`); `mono_lcm` and `mono_gcd` pick each slot's larger or
smaller exponent from the guard bits of a difference and recompute the
degree.  One guard mask serves every context, as a context has at most
`MAX_VARIABLES` (1023) variables.  The key of 1 is 0.

Only this module knows the layout.  Other modules go through the key
functions and through `Context`, which packs a context-free `Monomial` into
a key, unpacks a key, renders it, reads one variable's exponent in it
(`Context.degree_in`), re-reads keys between contexts
(`Context.reader`, used by `Poly.in_context`), multiplies keys by a
power of one variable (`Context.shifter`) and splits a key into its parts
over two sets of variables (`Context.splitter`).  Mixing polynomials from
different contexts raises `ContextError`.

Validation happens only at the public constructors: `Poly(ctx, terms)`
takes terms keyed by `Monomial`, coerces every coefficient to `GaussRat`,
drops zero ones and checks every variable against the context, and
`Monomial(exps)` rejects negative exponents.  `Poly.terms` gives the terms
back keyed by `Monomial`.  Results of arithmetic on valid polynomials are
valid by construction and built by `Poly._build` with no second pass: only
operations where two terms meet (`+`, `-`, `*` and `real_imag`) can produce
a zero coefficient, and they drop it where it arises.

The canonical text form writes terms in decreasing monomial order with
coefficients rendered as "a/b" or "a/b+c/d*i"; `parse_fraction` reads that
form back (and general +,-,*,/,^ expressions) bit-exactly.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from math import comb
from operator import add, mul, or_, truediv
from string import ascii_letters, digits, whitespace
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ContextError, DegreeLimitExceeded, DivisionByZero, Unsupported
from .gauss import ONE, ZERO, GaussRat, Coeffable, power

__all__ = [
    "Context",
    "Key",
    "MAX_DEGREE",
    "MAX_VARIABLES",
    "Monomial",
    "Poly",
    "mono_mul",
    "mono_div",
    "mono_divides",
    "mono_lcm",
    "mono_gcd",
    "parse_poly",
    "parse_fraction",
    "power_overrun",
    "too_many_digits",
]

Key = int  # the packed exponents of one monomial in one context

_W = 32  # bits per slot
_MASK = (1 << _W) - 1  # one slot; also the modulus that sums a key's slots
# The largest total degree of a monomial: every slot stays below its guard bit.
MAX_DEGREE = (1 << (_W - 1)) - 1
# The most variables of a context: with the degree, they fill the slots of
# `_GUARD`.
MAX_VARIABLES = 1023
# The guard bit of every slot a key can have.  Slots above a key's degree
# slot are 0 in the key, and in a sum or a difference of keys that stays
# below the degree limit, so one mask serves every context.  An AND of two
# non-negative ints runs over the shorter one only.
_GUARD = int.from_bytes(
    (1 << (_W - 1)).to_bytes(_W // 8, "little") * (MAX_VARIABLES + 1), "little"
)


def _past_limit(degree: int | None = None) -> DegreeLimitExceeded:
    got = "" if degree is None else f" {degree}"
    return DegreeLimitExceeded(f"a monomial degree{got} is past the limit of {MAX_DEGREE}")


class Monomial:
    """A monomial spelled by variable names, independent of any context: the
    form `Poly(ctx, terms)` takes and `Poly.terms` gives back.  Arithmetic
    on monomials works on keys."""

    __slots__ = ("_exps",)

    def __init__(self, exps: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        d = {}
        for v, e in dict(exps).items():
            if e < 0:
                raise ValueError(f"negative exponent for {v}")
            if e:
                d[v] = e
        self._exps = d

    @staticmethod
    def var(name: str, exp: int = 1) -> "Monomial":
        return Monomial({name: exp})

    def degree_in(self, name: str) -> int:
        return self._exps.get(name, 0)

    def variables(self) -> set[str]:
        return set(self._exps)

    def exponents(self) -> dict[str, int]:
        return dict(self._exps)

    def is_one(self) -> bool:
        return not self._exps

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        return hash(frozenset(self._exps.items()))

    def __repr__(self) -> str:
        inner = "*".join(f"{v}^{e}" for v, e in sorted(self._exps.items())) or "1"
        return f"Monomial({inner})"


class Context:
    """Ordered variable set.  Variables are listed from lowest to highest rank."""

    __slots__ = ("variables", "_rank", "_shift", "_down", "_top", "one")

    def __init__(self, variables: Sequence[str]):
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable in context: {variables}")
        if len(variables) > MAX_VARIABLES:
            raise Unsupported(
                f"a context has at most {MAX_VARIABLES} variables, not {len(variables)}"
            )
        self.variables: tuple[str, ...] = tuple(variables)
        self._rank = {v: k for k, v in enumerate(self.variables)}
        # bit offset of each variable's slot, and of the degree above them
        self._shift = {v: _W * k for k, v in enumerate(self.variables)}
        self._down = tuple(reversed(self._shift.items()))  # highest rank first
        self._top = _W * len(self.variables)
        self.one: Key = 0

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

    def key(self, m: Key) -> Key:
        """Graded-lex sort key: bigger key means bigger monomial.  Keys are
        laid out so that int order is this order, so it is the key itself."""
        return m

    def _slot(self, name: str) -> int:
        """The bit offset of name's slot; ContextError outside the context."""
        self.rank(name)
        return self._shift[name]

    def pack(self, m: Monomial) -> Key:
        """The key of a context-free monomial; a variable outside the
        context raises ContextError, a degree past MAX_DEGREE Unsupported."""
        key = degree = 0
        shift = self._shift
        for v, e in m._exps.items():
            s = shift.get(v)
            if s is None:
                raise ContextError(f"monomial uses {v!r}, absent from {self.variables}")
            key |= e << s
            degree += e
        if degree > MAX_DEGREE:
            raise _past_limit(degree)
        return key | degree << self._top

    def degree_in(self, m: Key, name: str) -> int:
        """The exponent of `name` in the key m; a variable outside the
        context raises ContextError."""
        return m >> self._slot(name) & _MASK

    def unpack(self, m: Key) -> Monomial:
        """The context-free monomial of a key."""
        return Monomial((v, m >> s & _MASK) for v, s in self._down)

    def render(self, m: Key) -> str:
        """The text of a key, as `Poly.__str__` writes it."""
        parts = []
        for v, s in self._down:
            e = m >> s & _MASK
            if e:
                parts.append(v if e == 1 else f"{v}^{e}")
        return "*".join(parts) or "1"

    def reader(self, other: "Context") -> Callable[[Key], Key]:
        """A function that re-reads keys of `other` as keys of this context.
        Each exponent moves to its slot here and the degree to the top; a
        key with a positive exponent on a variable this context lacks
        raises ContextError."""
        moves = [(s, self._shift[v]) for v, s in other._shift.items() if v in self._rank]
        lost = [(s, v) for v, s in other._shift.items() if v not in self._rank]
        top, old = self._top, other._top

        def read(m: Key) -> Key:
            for s, v in lost:
                if m >> s & _MASK:
                    raise ContextError(
                        f"{self.variables} does not cover {v!r}, used in {other.variables}"
                    )
            out = (m >> old) << top
            for s, t in moves:
                out |= (m >> s & _MASK) << t
            return out

        return read

    def shifter(self, name: str) -> Callable[[Key, int], Key]:
        """A function that multiplies a key by name^s: shift(m, s) is the
        key of m * name^s.  A variable outside the context raises
        ContextError, a degree past MAX_DEGREE Unsupported."""
        unit = 1 << self._slot(name) | 1 << self._top
        top = self._top

        def shift(m: Key, s: int) -> Key:
            k = m + s * unit
            if k >> top > MAX_DEGREE or k & _GUARD:
                raise _past_limit()
            return k

        return shift

    def splitter(self, names: Iterable[str]) -> Callable[[Key], tuple[Key, Key]]:
        """A function that splits a key m as (a, b) with m = a * b, a over
        the variables `names` and b over the others.  A name outside the
        context raises ContextError."""
        top = self._top
        picked = 0
        for v in names:
            picked |= _MASK << self._slot(v)
        rest = ((1 << top) - 1) & ~picked

        def split(m: Key) -> tuple[Key, Key]:
            a = m & picked
            da = a % _MASK  # 2^W = 1 modulo _MASK: the sum of a's slots
            return a | da << top, m & rest | ((m >> top) - da) << top

        return split


def mono_mul(a: Key, b: Key) -> Key:
    """The product of two keys of one context; Unsupported past MAX_DEGREE."""
    m = a + b
    if m & _GUARD:
        raise _past_limit()
    return m


def mono_div(a: Key, b: Key) -> Key:
    """The exact quotient a / b; ValueError when b does not divide a."""
    q = a - b
    if q < 0 or q & _GUARD:
        raise ValueError("monomial quotient is not exact")
    return q


def mono_divides(a: Key, b: Key) -> bool:
    """Whether a divides b."""
    d = b - a
    return d >= 0 and not d & _GUARD


def mono_lcm(a: Key, b: Key) -> Key:
    """The least common multiple of two keys of one context, a * b / gcd;
    Unsupported past MAX_DEGREE."""
    m = a + b - mono_gcd(a, b)
    if m & _GUARD:
        raise _past_limit()
    return m


def mono_gcd(a: Key, b: Key) -> Key:
    """The greatest common divisor of two keys of one context.  Below the
    degree slot, the guard bit of each slot of (a | guards) - b is set
    exactly where a's exponent is at least b's, and the slot's bits pick
    b's exponent there and a's elsewhere."""
    if not a or not b:
        return 0
    top = (max(a, b).bit_length() - 1) // _W * _W  # the degree slot of both
    exps = (1 << top) - 1
    a &= exps
    b &= exps
    guard = _GUARD & exps
    ge = ((a | guard) - b) & guard
    pick = (ge << 1) - (ge >> (_W - 1))
    e = b & pick | a & ~pick
    return e | (e % _MASK) << top


class _Terms(Mapping):
    """Read-only view of a polynomial's terms keyed by `Monomial`."""

    __slots__ = ("_context", "_by_key")

    def __init__(self, context: Context, by_key: dict[Key, GaussRat]):
        self._context = context
        self._by_key = by_key

    def __getitem__(self, m: Monomial) -> GaussRat:
        try:
            return self._by_key[self._context.pack(m)]
        except (ContextError, Unsupported):  # no key: not a term
            raise KeyError(m) from None

    def __iter__(self) -> Iterator[Monomial]:
        return map(self._context.unpack, self._by_key)

    def __len__(self) -> int:
        return len(self._by_key)


class Poly:
    """Polynomial: a finite GaussRat-linear combination of monomials."""

    __slots__ = ("context", "by_key")

    def __init__(self, context: Context, terms: Mapping[Monomial, Coeffable] = ()):
        by_key = {}
        for m, c in dict(terms).items():
            g = GaussRat.of(c)
            if g:
                by_key[context.pack(m)] = g
        self.context = context
        self.by_key = by_key

    @classmethod
    def _build(cls, context: Context, by_key: dict[Key, GaussRat]) -> "Poly":
        """Polynomial from nonzero GaussRat coefficients on keys of
        `context`, unchecked; the dict is taken over."""
        p = cls.__new__(cls)
        p.context = context
        p.by_key = by_key
        return p

    @property
    def terms(self) -> Mapping[Monomial, GaussRat]:
        """The terms keyed by context-free `Monomial`s (a read-only view)."""
        return _Terms(self.context, self.by_key)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "Poly":
        return Poly._build(ctx, {})

    @staticmethod
    def const(ctx: Context, c: Coeffable) -> "Poly":
        g = GaussRat.of(c)
        return Poly._build(ctx, {ctx.one: g} if g else {})

    @staticmethod
    def variable(ctx: Context, name: str, exp: int = 1) -> "Poly":
        ctx.rank(name)
        return Poly._build(ctx, {ctx.pack(Monomial.var(name, exp)): ONE})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.by_key

    def is_constant(self) -> bool:
        return self.by_key.keys() <= {self.context.one}

    def constant_value(self) -> GaussRat:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.by_key.get(self.context.one, ZERO)

    def total_degree(self) -> int:
        # the largest key has the largest degree
        return max(self.by_key) >> self.context._top if self.by_key else 0

    def degree_in(self, name: str) -> int:
        s = self.context._shift.get(name)
        if s is None:
            return 0
        return max((m >> s & _MASK for m in self.by_key), default=0)

    def variables(self) -> set[str]:
        # a slot of the OR of the keys is nonzero where some key's is
        used = reduce(or_, self.by_key, 0)
        return {v for v, s in self.context._shift.items() if used >> s & _MASK}

    def coeff(self, m: Monomial) -> GaussRat:
        return self.terms.get(m, ZERO)

    def leading_monomial(self) -> Key:
        if not self.by_key:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.by_key)

    def leading_coefficient(self) -> GaussRat:
        return self.by_key[self.leading_monomial()]

    def _check(self, other: "Poly") -> None:
        if self.context is not other.context and self.context != other.context:
            raise ContextError(
                f"context mismatch: {self.context.variables} vs {other.context.variables}"
            )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        d = dict(self.by_key)
        for m, c in other.by_key.items():
            s = d.get(m)
            if s is None:
                d[m] = c
            else:
                s = s + c
                if s:
                    d[m] = s
                else:
                    del d[m]
        return Poly._build(self.context, d)

    def __neg__(self) -> "Poly":
        return Poly._build(self.context, {m: -c for m, c in self.by_key.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        d = dict(self.by_key)
        for m, c in other.by_key.items():
            s = d.get(m)
            if s is None:
                d[m] = -c
            else:
                s = s - c
                if s:
                    d[m] = s
                else:
                    del d[m]
        return Poly._build(self.context, d)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        # a single term cannot make two terms meet
        if len(other.by_key) == 1:
            [(m, c)] = other.by_key.items()
            return self.mul_monomial(m, c)
        if len(self.by_key) == 1:
            [(m, c)] = self.by_key.items()
            return other.mul_monomial(m, c)
        if other.by_key:
            self._check_degree(max(other.by_key))
        d: dict[Key, GaussRat] = {}
        for m1, c1 in self.by_key.items():
            for m2, c2 in other.by_key.items():
                m = m1 + m2
                s = d.get(m)
                if s is None:
                    d[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        d[m] = s
                    else:
                        del d[m]
        return Poly._build(self.context, d)

    def scale(self, c: Coeffable) -> "Poly":
        g = GaussRat.of(c)
        if not g:
            return Poly.zero(self.context)
        return Poly._build(self.context, {m: v * g for m, v in self.by_key.items()})

    def _check_degree(self, m: Key) -> None:
        """Unsupported when this polynomial times the monomial with key m
        has a degree past MAX_DEGREE: the leading keys' degrees add."""
        if self.by_key:
            degree = max(self.by_key) + m >> self.context._top
            if degree > MAX_DEGREE:
                raise _past_limit(degree)

    def mul_monomial(self, m: Key, c: Coeffable = ONE) -> "Poly":
        """This polynomial times c times the monomial with key m."""
        g = GaussRat.of(c)
        if not g:
            return Poly.zero(self.context)
        unit = g is ONE or g == ONE
        if unit and not m:
            return self
        self._check_degree(m)
        return Poly._build(
            self.context,
            {mm + m: cc if unit else cc * g for mm, cc in self.by_key.items()},
        )

    def partial(self, name: str) -> "Poly":
        """The formal partial derivative in the variable `name`."""
        s = self.context._shift.get(name)
        d = {}
        if s is not None:
            unit = 1 << s | 1 << self.context._top
            for m, c in self.by_key.items():
                e = m >> s & _MASK
                if e:
                    d[m - unit] = c * e
        return Poly._build(self.context, d)

    def derivation(self, images: Mapping[str, "Poly"]) -> "Poly":
        """sum_v dp/dv * images[v] over the variables v of `images`, by key
        sums into one dict, with no product when a factor e*c is 1.  A
        variable outside the context raises ContextError; a product past
        MAX_DEGREE raises Unsupported with its degree, as `*` does."""
        ctx, d, top = self.context, {}, self.context._top
        for v, image in images.items():
            self._check(image)
            s = ctx._slot(v)
            if not image.by_key:
                continue
            unit = 1 << s | 1 << top
            hi = -1  # the largest key of p with v in it
            for m, c in self.by_key.items():
                e = m >> s & _MASK
                if not e:
                    continue
                hi = max(hi, m)
                m -= unit
                f = c if e == 1 else c * e
                one = f is ONE or f == ONE
                for k, ck in image.by_key.items():
                    k += m
                    if not one:
                        ck = ck * f
                    cur = d.get(k)
                    if cur is None:
                        d[k] = ck
                    elif cur := cur + ck:
                        d[k] = cur
                    else:
                        del d[k]
            # past the limit the keys summed above are wrong, and d is dropped
            if hi >= 0 and (degree := (hi - unit + max(image.by_key)) >> top) > MAX_DEGREE:
                raise _past_limit(degree)
        return Poly._build(ctx, d)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, lambda: Poly.const(self.context, 1))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.leading_coefficient().inverse())

    def conj(self) -> "Poly":
        return Poly._build(self.context, {m: c.conj() for m, c in self.by_key.items()})

    def real_imag(self) -> tuple["Poly", "Poly"]:
        re: dict[Key, GaussRat] = {}
        im: dict[Key, GaussRat] = {}
        for m, c in self.by_key.items():
            a, b = c.re, c.im
            if a:
                re[m] = GaussRat(a)
            if b:
                im[m] = GaussRat(b)
        return Poly._build(self.context, re), Poly._build(self.context, im)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and (self.context is other.context or self.context == other.context)
            and self.by_key == other.by_key
        )

    def __hash__(self) -> int:
        return hash((self.context, frozenset(self.by_key.items())))

    def in_context(self, ctx: Context) -> "Poly":
        """Re-read in `ctx`, a wider or narrower context; a variable p uses
        that `ctx` lacks raises ContextError."""
        if ctx is self.context or ctx == self.context:
            return self
        read = ctx.reader(self.context)
        return Poly._build(ctx, {read(m): c for m, c in self.by_key.items()})

    def substitute(self, value, const, scale=None):
        """p with each variable v replaced by value(v) and each coefficient
        c by const(c), in any commutative ring.  With `scale`, the
        homogenisation scale^deg(p) * p(value / scale).

        Terms are visited in increasing monomial order and the variables of
        each term by name; each power value(v)^e is computed once."""
        powers: dict = {}
        degree = self.total_degree()
        top = self.context._top
        by_name = sorted(self.context._shift.items())
        out = const(0)
        for m in sorted(self.by_key):
            term = const(self.by_key[m])
            for v, s in by_name:
                e = m >> s & _MASK
                if not e:
                    continue
                got = powers.get((v, e))
                if got is None:
                    got = powers[(v, e)] = value(v) ** e
                term = term * got
            if scale is not None:
                term = term * scale ** (degree - (m >> top))
            out = out + term
        return out

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.by_key:
            return "0"
        chunks = [
            _render_term(m, self.by_key[m], self.context)
            for m in sorted(self.by_key, reverse=True)
        ]
        out = chunks[0]
        for chunk in chunks[1:]:
            if chunk.startswith("-"):
                out += " - " + chunk[1:]
            else:
                out += " + " + chunk
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


_MINUS_ONE = -ONE


def _render_coeff(c: GaussRat) -> str:
    s = str(c)
    if c.re != 0 and c.im != 0:
        return f"({s})"
    return s


def _render_term(m: Key, c: GaussRat, ctx: Context) -> str:
    if not m:
        return _render_coeff(c)
    ms = ctx.render(m)
    if c == ONE:
        return ms
    if c == _MINUS_ONE:
        return "-" + ms
    return f"{_render_coeff(c)}*{ms}"


# -- parsing ------------------------------------------------------------------


# The largest expansion a `^` in an expression may ask for.  A power of a
# monomial is one term whatever its exponent; (t+1)^n has n + 1 terms.
MAX_POWER_TERMS = 256
# The most decimal digits of an integer in a parsed expression: a literal,
# a `^` (refused before it is computed) or the result.  No check builds a str.
MAX_INT_DIGITS = 1000
_INT_BOUND = 10**MAX_INT_DIGITS
# The deepest nesting of parentheses in an expression.  The parser recurses
# four frames per level, far below the interpreter's recursion limit.
MAX_NESTING = 100
# The most characters of the input that a parse error echoes: a longer
# input is echoed as a window of this many around the column.
ECHO_CHARS = 60
# Integer literals are ASCII digits, and names are ASCII letters, digits
# and "_", not starting with a digit: `str.isdigit` holds also for "\u00b2".
# Only ASCII whitespace separates tokens: `str.isspace` holds also for the
# no-break space "\u00a0" and the ideographic space "\u3000".
_DIGITS = frozenset(digits)
_NAME_CHARS = frozenset(ascii_letters + digits + "_")
_SPACE = frozenset(whitespace)


def power_overrun(polys: Iterable[Poly], n: int) -> str | None:
    """Why the n-th powers of `polys` would be over the budgets of `^`, or
    None; decided before any power is computed.

    A polynomial with k terms has at most C(n + k - 1, k - 1) terms in its
    n-th power, and MAX_POWER_TERMS is the most allowed.  p^n leads with c^n
    for the leading coefficient c of p, and (c^n).max_int() has at least
    (n * c.height_bits() - 1) / 2 bits, which must stay within
    MAX_INT_DIGITS digits.  p^n has n times the degree of p, which must
    stay within MAX_DEGREE.
    """
    polys = [p for p in polys if not p.is_zero()]
    k = max((len(p.by_key) for p in polys), default=0)
    if k > 1 and comb(n + k - 1, k - 1) > MAX_POWER_TERMS:
        return f"the power expands to more than {MAX_POWER_TERMS} terms"
    height = max((p.leading_coefficient().height_bits() for p in polys), default=0)
    if n * height > 2 * _INT_BOUND.bit_length():
        return f"the power has an integer of more than {MAX_INT_DIGITS} digits"
    degree = n * max((p.total_degree() for p in polys), default=0)
    if degree > MAX_DEGREE:
        return f"the power has degree {degree}, past the limit of {MAX_DEGREE}"
    return None


def too_many_digits(polys: Iterable[Poly]) -> bool:
    """Whether a coefficient of `polys` has an integer of more than
    MAX_INT_DIGITS digits."""
    return any(c.max_int() >= _INT_BOUND for p in polys for c in p.by_key.values())


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg: str):
        text = self.text
        if len(text) > ECHO_CHARS:
            start = min(max(self.pos - ECHO_CHARS // 2, 0), len(text) - ECHO_CHARS)
            end = start + ECHO_CHARS
            text = "..." * (start > 0) + text[start:end] + "..." * (end < len(text))
        raise ValueError(f"parse error at column {self.pos + 1}: {msg} in {text!r}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos] in _SPACE:
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        return self.text[start : self.pos]

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        if self.pos - start > MAX_INT_DIGITS:
            self.pos = start
            self.error(f"an integer literal has more than {MAX_INT_DIGITS} digits")
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


def _combine(tk: _Tokens, at: int, op: Callable, a: _Frac, b: _Frac) -> _Frac:
    """op(a, b), refused at column `at` when a degree passes MAX_DEGREE."""
    try:
        return op(a, b)
    except Unsupported as e:
        tk.pos = at
        tk.error(str(e))
        raise AssertionError


def _parse_expr(tk: _Tokens, ctx: Context) -> _Frac:
    value = _parse_product(tk, ctx)
    while tk.peek() in ("+", "-"):
        op, at = tk.peek(), tk.pos
        tk.pos += 1
        rhs = _parse_product(tk, ctx)
        value = _combine(tk, at, add, value, -rhs if op == "-" else rhs)
    return value


def _parse_product(tk: _Tokens, ctx: Context) -> _Frac:
    value = _parse_factor(tk, ctx)
    while tk.peek() in ("*", "/"):
        op, at = tk.peek(), tk.pos
        tk.pos += 1
        rhs = _parse_factor(tk, ctx)
        value = _combine(tk, at, mul if op == "*" else truediv, value, rhs)
    return value


def _parse_factor(tk: _Tokens, ctx: Context) -> _Frac:
    sign = 1
    while tk.peek() in ("+", "-"):
        if tk.peek() == "-":
            sign = -sign
        tk.pos += 1
    value = _parse_atom(tk, ctx)
    if tk.peek() == "^":
        caret = tk.pos
        tk.pos += 1
        neg = False
        if tk.peek() == "-":
            neg = True
            tk.pos += 1
        exp = tk.take_int()
        why = power_overrun((value.num, value.den), exp)
        if why:
            tk.pos = caret
            tk.error(why)
        value = value ** (-exp if neg else exp)
    return -value if sign < 0 else value


def _parse_atom(tk: _Tokens, ctx: Context) -> _Frac:
    ch = tk.peek()
    one = Poly.const(ctx, 1)
    if ch == "(":
        if tk.depth == MAX_NESTING:
            tk.error(f"parentheses nest more than {MAX_NESTING} deep")
        tk.pos += 1
        tk.depth += 1
        inner = _parse_expr(tk, ctx)
        if tk.peek() != ")":
            tk.error("expected ')'")
        tk.pos += 1
        tk.depth -= 1
        return inner
    if ch in _DIGITS:
        return _Frac(Poly.const(ctx, tk.take_int()), one)
    if ch in _NAME_CHARS:
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
    if too_many_digits((value.num, value.den)):
        tk.error(f"the expression has an integer of more than {MAX_INT_DIGITS} digits")
    return value.num, value.den


def parse_poly(text: str, ctx: Context) -> Poly:
    """Parse an expression that must denote a polynomial (constant denominator)."""
    num, den = parse_fraction(text, ctx)
    if not den.is_constant():
        raise ValueError(f"expression {text!r} is not polynomial")
    return num.scale(den.constant_value().inverse())
