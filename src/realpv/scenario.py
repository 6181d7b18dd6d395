"""Scenario files: a small validated JSON schema describing one problem.

A scenario names the equation class, its coefficients as expression
strings, and optionally a subgroup and a cocycle.
Validation is strict: unknown keys anywhere, and expression strings that
do not parse, raise ScenarioError with the offending location, so typos
fail loudly instead of being ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from .correspondence import SUBGROUP_KINDS, SubgroupDescriptor
from .errors import DivisionByZero, ScenarioError
from .galois import parse_scalar
from .gauss import GaussRat
from .poly import Context, Poly, parse_fraction
from .pv import EQUATION_CLASSES

__all__ = ["Scenario", "load_scenario", "scenario_from_dict"]


_TOP_KEYS = {"base_var", "equation", "subgroup", "cocycle"}
_EQ_KEYS = {"class", "coefficients", "radical_base"}
_SUBGROUP_KEYS = {"kind", "order", "matrices"}

# Variables the package adjoins to the base: generators of the equation
# classes and their twists, group-matrix entries and solution slots.
_ADJOINED_NAMES = {
    "e", "e1", "e2", "u", "c", "s", "g", "h", "v", "X11", "X12", "X21", "X22", "Z1", "Z2"
}


@dataclass
class Scenario:
    """A validated scenario.  `parsed_coefficients` and `parsed_radical_base`
    hold the expressions as (numerator, denominator) pairs in the context of
    `DiffTower(base_var)`; a scenario made without them parses its strings."""

    eq_class: str
    coefficients: tuple[str, ...]
    base_var: str = "t"
    radical_base: str | None = None
    subgroup: SubgroupDescriptor | None = None
    cocycle: tuple[tuple[GaussRat, ...], ...] | None = None
    parsed_coefficients: tuple[tuple[Poly, Poly], ...] | None = field(default=None, kw_only=True)
    parsed_radical_base: tuple[Poly, Poly] | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        in_base = _base_parser(self.base_var)
        if self.parsed_coefficients is None:
            self.parsed_coefficients = tuple(map(in_base, self.coefficients))
        if self.parsed_radical_base is None and self.radical_base is not None:
            self.parsed_radical_base = in_base(self.radical_base)

    def describe(self) -> str:
        return f"{self.eq_class} equation with coefficients {list(self.coefficients)}"


def _base_parser(base_var: str) -> Callable[[str], tuple[Poly, Poly]]:
    """parse_fraction in the context of DiffTower(base_var)."""
    return partial(parse_fraction, ctx=Context([base_var] if base_var else []))


def _reject_unknown(obj: dict, allowed: set, loc: str) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        raise ScenarioError(
            f"unknown key{'s' if len(extra) > 1 else ''} {extra}", location=loc
        )


def _need(obj: dict, key: str, loc: str) -> Any:
    if key not in obj:
        raise ScenarioError(f"missing required key {key!r}", location=loc)
    return obj[key]


def _expect_str(value: Any, loc: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"expected a string, got {type(value).__name__}", location=loc)
    return value


def _expect_int(value: Any, loc: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"expected an integer, got {type(value).__name__}", location=loc)
    return value


def _expect_expr(value: Any, parse: Callable[[str], Any], loc: str) -> Any:
    """parse(value) for an expression string; a malformed one is refused."""
    text = _expect_str(value, loc)
    try:
        return parse(text)
    except (ValueError, DivisionByZero) as e:
        raise ScenarioError(str(e), location=loc) from None


def scenario_from_dict(raw: Any, loc: str = "scenario") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object", location=loc)
    _reject_unknown(raw, _TOP_KEYS, loc)

    eq = _need(raw, "equation", loc)
    eq_loc = f"{loc}.equation"
    if not isinstance(eq, dict):
        raise ScenarioError("equation must be an object", location=eq_loc)
    _reject_unknown(eq, _EQ_KEYS, eq_loc)
    eq_class = _expect_str(_need(eq, "class", eq_loc), f"{eq_loc}.class")
    if eq_class not in EQUATION_CLASSES:
        raise ScenarioError(
            f"equation class must be one of {sorted(EQUATION_CLASSES)}",
            location=f"{eq_loc}.class",
        )
    coeffs_raw = _need(eq, "coefficients", eq_loc)
    if not isinstance(coeffs_raw, list) or not coeffs_raw:
        raise ScenarioError(
            "coefficients must be a nonempty list of expression strings",
            location=f"{eq_loc}.coefficients",
        )
    coeffs = tuple(
        _expect_str(c, f"{eq_loc}.coefficients[{i}]") for i, c in enumerate(coeffs_raw)
    )
    radical_base = None
    if "radical_base" in eq:
        radical_base = _expect_str(eq["radical_base"], f"{eq_loc}.radical_base")

    base_var = "t"
    if "base_var" in raw:
        base_loc = f"{loc}.base_var"
        base_var = _expect_str(raw["base_var"], base_loc)
        if base_var and not (base_var.isidentifier() and base_var.isascii()):
            raise ScenarioError(f"{base_var!r} is not a variable name", location=base_loc)
        if base_var == "i":
            raise ScenarioError("'i' is the imaginary unit", location=base_loc)
        if base_var in _ADJOINED_NAMES:
            raise ScenarioError(
                f"{base_var!r} is a variable the package adjoins; pick another name",
                location=base_loc,
            )

    in_base = _base_parser(base_var)
    parsed = tuple(
        _expect_expr(c, in_base, f"{eq_loc}.coefficients[{i}]") for i, c in enumerate(coeffs)
    )
    parsed_radical = None
    if radical_base is not None:
        parsed_radical = _expect_expr(radical_base, in_base, f"{eq_loc}.radical_base")

    subgroup = None
    if "subgroup" in raw:
        sub = raw["subgroup"]
        sub_loc = f"{loc}.subgroup"
        if not isinstance(sub, dict):
            raise ScenarioError("subgroup must be an object", location=sub_loc)
        _reject_unknown(sub, _SUBGROUP_KEYS, sub_loc)
        kind = _expect_str(_need(sub, "kind", sub_loc), f"{sub_loc}.kind")
        if kind not in SUBGROUP_KINDS:
            raise ScenarioError(
                f"subgroup kind must be one of {sorted(SUBGROUP_KINDS)}",
                location=f"{sub_loc}.kind",
            )
        if kind == "MU_N":
            _expect_int(_need(sub, "order", sub_loc), f"{sub_loc}.order")
        elif "order" in sub:
            raise ScenarioError(
                "order is only meaningful for MU_N", location=f"{sub_loc}.order"
            )
        if kind == "FINITE_LIST":
            mats = _need(sub, "matrices", sub_loc)
            sub = dict(sub, matrices=_parse_matrices(mats, f"{sub_loc}.matrices"))
        elif "matrices" in sub:
            raise ScenarioError(
                "matrices are only meaningful for FINITE_LIST",
                location=f"{sub_loc}.matrices",
            )
        try:
            subgroup = SUBGROUP_KINDS[kind](sub)
        except ValueError as e:  # mu_n refuses an order out of range
            raise ScenarioError(str(e), location=f"{sub_loc}.order") from None

    cocycle = None
    if "cocycle" in raw:
        cocycle = _parse_matrix(raw["cocycle"], f"{loc}.cocycle")

    return Scenario(
        eq_class, coeffs, base_var, radical_base, subgroup=subgroup, cocycle=cocycle,
        parsed_coefficients=parsed, parsed_radical_base=parsed_radical,
    )


def _parse_matrix(rows: Any, loc: str) -> tuple[tuple[GaussRat, ...], ...]:
    if not isinstance(rows, list) or not rows:
        raise ScenarioError("expected a nonempty list of rows", location=loc)
    out = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ScenarioError("row must be a nonempty list", location=f"{loc}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ScenarioError("ragged matrix", location=f"{loc}[{i}]")
        out.append(
            tuple(
                _expect_expr(v, parse_scalar, f"{loc}[{i}][{j}]")
                for j, v in enumerate(row)
            )
        )
    if len(out) != width:
        raise ScenarioError("matrix must be square", location=loc)
    return tuple(out)


def _parse_matrices(mats: Any, loc: str) -> list[tuple[tuple[GaussRat, ...], ...]]:
    if not isinstance(mats, list) or not mats:
        raise ScenarioError("expected a nonempty list of matrices", location=loc)
    return [_parse_matrix(m, f"{loc}[{i}]") for i, m in enumerate(mats)]


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file: {e}", location=path)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ScenarioError(f"invalid JSON: {e}", location=path)
    return scenario_from_dict(raw)
