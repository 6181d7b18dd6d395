"""Exact real Picard-Vessiot computations on certified differential towers.

The package builds differential field towers over the rationals with
exact arithmetic, certifies Picard-Vessiot extensions for four equation
classes, computes their differential Galois groups as polynomially
defined matrix groups, walks the group-field correspondence in both
directions, classifies real forms by cocycle twisting, and exhibits the
classical counterexamples (weak normality failure, a non-real field with
real constants).
"""

from .errors import (
    AlgebraError,
    BadField,
    BadIdeal,
    BudgetExceeded,
    ContextError,
    DivisionByZero,
    EmptyInput,
    IncompatibleDerivation,
    NotInGroup,
    NotPV,
    ScenarioError,
    Unsupported,
    UnsupportedEquation,
    WitnessNotFound,
)
from .gauss import GaussRat
from .poly import Context, Monomial, Poly, parse_fraction, parse_poly
from .rewrite import RewriteSystem, Rule, buchberger
from .tower import DiffTower, FieldElement, GeneratorSpec, Kind
from .wronskian import independent_over_constants, wronskian_det, wronskian_matrix
from .pv import (
    EQUATION_CLASSES,
    LinearODE,
    PVExtension,
    build_pv,
)
from .galois import (
    GroupElement,
    MatrixGroup,
    apply,
    defining_equations,
    invariance_conditions,
    matrix_from_texts,
    parse_scalar,
    reduces_to_zero,
)
from .correspondence import (
    DIAGONAL,
    FULL,
    SO2,
    TRIVIAL,
    IntermediateField,
    SubgroupDescriptor,
    check_correspondence,
    check_inclusion_reversal,
    descriptor_of,
    finite_list,
    fixed_field,
    group_over,
    member_of_field,
    mu_n,
    normality_check,
    subgroup_of,
    weak_normality_demo,
)
from .realforms import (
    cocycle_check,
    h1_enumerate,
    non_reality_witness,
    radical_forms_demo,
    radical_pair_report,
    so2_forms_demo,
    twist,
    twist_report,
)
from .seidenberg import build_seidenberg, seidenberg_demo
from .scenario import Scenario, load_scenario, scenario_from_dict
from .report import Check, Report

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "BadField",
    "BadIdeal",
    "BudgetExceeded",
    "ContextError",
    "DivisionByZero",
    "EmptyInput",
    "IncompatibleDerivation",
    "NotInGroup",
    "NotPV",
    "ScenarioError",
    "Unsupported",
    "UnsupportedEquation",
    "WitnessNotFound",
    "GaussRat",
    "Context",
    "Monomial",
    "Poly",
    "parse_fraction",
    "parse_poly",
    "RewriteSystem",
    "Rule",
    "buchberger",
    "DiffTower",
    "FieldElement",
    "GeneratorSpec",
    "Kind",
    "independent_over_constants",
    "wronskian_det",
    "wronskian_matrix",
    "EQUATION_CLASSES",
    "LinearODE",
    "PVExtension",
    "build_pv",
    "GroupElement",
    "MatrixGroup",
    "apply",
    "defining_equations",
    "invariance_conditions",
    "matrix_from_texts",
    "parse_scalar",
    "reduces_to_zero",
    "DIAGONAL",
    "FULL",
    "SO2",
    "TRIVIAL",
    "IntermediateField",
    "SubgroupDescriptor",
    "check_correspondence",
    "check_inclusion_reversal",
    "descriptor_of",
    "finite_list",
    "fixed_field",
    "group_over",
    "member_of_field",
    "mu_n",
    "normality_check",
    "subgroup_of",
    "weak_normality_demo",
    "cocycle_check",
    "h1_enumerate",
    "non_reality_witness",
    "radical_pair_report",
    "twist",
    "twist_report",
    "so2_forms_demo",
    "radical_forms_demo",
    "build_seidenberg",
    "seidenberg_demo",
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
    "Check",
    "Report",
    "__version__",
]
