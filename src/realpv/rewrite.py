"""Confluent rewriting modulo polynomial relations.

Relations are completed to the reduced Groebner basis under the context's
graded-lex order by Buchberger's algorithm, stopped after `DEFAULT_BUDGET`
S-polynomial reductions.  Completion keeps one list of rules  leading
monomial -> tail, each remainder oriented once as it joins; a pair's
S-polynomial is read off the two tails.  Dropping the rules whose lhs
another's divides and reducing each remaining tail once gives the reduced
basis (Cox, Little & O'Shea, ch. 2 §7).

Normal forms are computed by total multivariate division: always reduce
the largest remaining term with the first applicable rule, so the result
is canonical and the map is GaussRat-linear and idempotent.  An input
with no reducible term is returned as it is.  Otherwise the remaining
monomials sit in a list kept in increasing order, so that the largest is
popped from its end: monomial keys compare in the graded-lex order as
they are (see `poly`), so the list needs no sort key.  A term that
cancels keeps its list entry, which is skipped when it surfaces.

Rules may be applied to polynomials living in a wider context (extra
variables of lower or higher rank), which stays confluent because a rule's
left-hand side dominates its tail in any context that preserves relative
ranks, and no new critical pairs appear between rules and fresh variables.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Sequence

from .errors import BudgetExceeded, ContextError
from .gauss import ONE, GaussRat
from .poly import (
    Context, Poly, mono_div, mono_divides, mono_gcd, mono_lcm, mono_mul,
)

__all__ = ["Rule", "RewriteSystem", "buchberger"]

DEFAULT_BUDGET = 10_000


class Rule:
    """Oriented relation lhs -> rhs with every rhs monomial below lhs; lhs
    is a monomial key of the context of rhs."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: tuple, rhs: Poly):
        self.lhs = lhs
        self.rhs = rhs

    @staticmethod
    def orient(p: Poly) -> "Rule":
        """Turn a nonzero polynomial relation p = 0 into a rule lm -> tail."""
        if p.is_zero():
            raise ValueError("cannot orient the zero relation")
        p = p.monic()
        lm = p.leading_monomial()
        tail = Poly._build(p.context, {m: -c for m, c in p.by_key.items() if m != lm})
        return Rule(lm, tail)

    def as_poly(self) -> Poly:
        return Poly._build(self.rhs.context, {self.lhs: ONE}) - self.rhs

    def __eq__(self, other) -> bool:
        return isinstance(other, Rule) and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"Rule({self.rhs.context.render(self.lhs)} -> {self.rhs})"


class RewriteSystem:
    """A confluent set of rules sharing one context."""

    __slots__ = ("context", "rules", "_lifted")

    def __init__(self, context: Context, rules: Sequence[Rule] = ()):
        self.context = context
        self.rules: tuple[Rule, ...] = tuple(
            sorted(rules, key=lambda r: context.key(r.lhs), reverse=True)
        )
        self._lifted: dict[Context, tuple[Rule, ...]] = {}

    def rules_for(self, ctx: Context) -> tuple[Rule, ...]:
        """The rules read in `ctx`, a context that covers this one."""
        if ctx is self.context or ctx == self.context:
            return self.rules
        cached = self._lifted.get(ctx)
        if cached is None:
            read = ctx.reader(self.context)
            cached = tuple(Rule(read(r.lhs), r.rhs.in_context(ctx)) for r in self.rules)
            self._lifted[ctx] = cached
        return cached

    def normal_form(self, p: Poly) -> Poly:
        """Canonical representative of p modulo the rules."""
        ctx = p.context
        if ctx is not self.context and ctx != self.context and not ctx.covers(self.context):
            raise ContextError(
                f"cannot rewrite {ctx.variables} modulo rules over {self.context.variables}"
            )
        rules = self.rules_for(ctx)
        divides = mono_divides
        # Most inputs are already reduced; those are returned as they are,
        # with their terms in their own order.
        if not rules or not any(divides(r.lhs, m) for m in p.by_key for r in rules):
            return p
        # Every monomial in `work` has exactly one entry in `order`, made
        # when it first entered.  A term that cancels stays in `work` as
        # None until its entry surfaces.
        work: dict[tuple, GaussRat | None] = dict(p.by_key)
        order = sorted(work)
        done: dict[tuple, GaussRat] = {}
        while order:
            m = order.pop()
            c = work.pop(m)
            if c is None:
                continue
            hit = None
            for r in rules:
                if divides(r.lhs, m):
                    hit = r
                    break
            if hit is None:
                done[m] = c
                continue
            quot = mono_div(m, hit.lhs)
            for rm, rc in hit.rhs.by_key.items():
                k = mono_mul(rm, quot)
                if k not in work:
                    work[k] = c * rc
                    insort(order, k)
                    continue
                cur = work[k]
                val = c * rc if cur is None else cur + c * rc
                work[k] = val if val else None
        return Poly._build(ctx, done)

    def is_zero_mod(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RewriteSystem)
            and self.context == other.context
            and self.rules == other.rules
        )

    def __hash__(self) -> int:
        return hash((self.context, self.rules))

    def __repr__(self) -> str:
        body = "; ".join(
            f"{self.context.render(r.lhs)} -> {r.rhs}" for r in self.rules
        )
        return f"RewriteSystem[{body}]"


def buchberger(relations: Iterable[Poly], context: Context) -> RewriteSystem:
    """Complete `relations` to the reduced Groebner basis and orient it.

    `DEFAULT_BUDGET`, read at each call, bounds the S-polynomial reductions;
    exceeding it raises BudgetExceeded rather than looping on hostile input.
    """
    rules: list[Rule] = []
    system = RewriteSystem(context)

    def keep(p: Poly) -> bool:
        """Orient the remainder of p modulo the rules so far, if nonzero."""
        nonlocal system
        r = system.normal_form(p)
        if r.is_zero():
            return False
        rules.append(Rule.orient(r))
        system = RewriteSystem(context, rules)
        return True

    pending = sorted(
        (p.in_context(context).monic() for p in relations if not p.is_zero()),
        key=lambda p: (context.key(p.leading_monomial()), str(p)),
    )
    for p in pending:
        keep(p)

    # The pair list grows while it is read, so pairs are taken first in, first out.
    pairs = [(i, j) for i in range(len(rules)) for j in range(i + 1, len(rules))]
    steps = 0
    for i, j in pairs:
        f, g = rules[i], rules[j]
        # coprime leading monomials: the S-polynomial reduces to zero
        if mono_gcd(f.lhs, g.lhs) == context.one:
            continue
        steps += 1
        if steps > DEFAULT_BUDGET:
            raise BudgetExceeded(
                f"completion exceeded {DEFAULT_BUDGET} S-polynomial reductions"
            )
        # f and g are monic: lcm - rhs_f*(lcm/lhs_f) minus lcm - rhs_g*(lcm/lhs_g)
        l = mono_lcm(f.lhs, g.lhs)
        spoly = g.rhs.mul_monomial(mono_div(l, g.lhs)) - f.rhs.mul_monomial(mono_div(l, f.lhs))
        if keep(spoly):
            k = len(rules) - 1
            pairs.extend((idx, k) for idx in range(k))

    # Each remainder is irreducible modulo the rules before it, so no two
    # left-hand sides are equal.  Dropping each rule whose lhs another's lhs
    # divides leaves a minimal basis; reducing each tail once makes it the
    # reduced one, since no lhs changes and no rule applies to its own tail.
    minimal = [r for r in rules if not any(o is not r and mono_divides(o.lhs, r.lhs) for o in rules)]
    system = RewriteSystem(context, minimal)
    return RewriteSystem(context, [Rule(r.lhs, system.normal_form(r.rhs)) for r in minimal])
