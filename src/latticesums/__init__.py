"""Exact and numeric special values of lattice sums over hyperplane
arrangements, via a closed-form generating function with a brute-force
oracle and a convex-polytope reconstruction as independent checks."""

from .errors import (ExcludedPoint, LatticeSumError, NonDivisible,
                     NonFinite, NotInvertible, NotSimple, RankDrop)
from .families import root_system
from .genfun import (EvaluationContext, EvaluationReport, WeightVector,
                     coefficient, cyclotomic_order, generating_function,
                     lattice_sum_value, zeta_from_S)
from .lattice import (Arrangement, Basis, Functional, GenericDirection,
                      arrangement_from_json, arrangement_to_json,
                      choose_phi, enumerate_bases, frac_part,
                      load_arrangement, make_functional,
                      on_excluded_hyperplanes)
from .oracle import TruncationWindow, constrained_points, convergence_scan, \
    truncated_sum
from .polytope import genfun_via_polytopes, polytope_report
from .hierarchy import HierarchyStep, apply_Dg_summand, check_hierarchy
from .scalar import ExactRing, ExactScalar, NumericRing, format_scalar, \
    parse_scalar

__version__ = "0.1.0"

__all__ = [
    "Arrangement", "Basis", "Functional", "GenericDirection",
    "EvaluationContext", "EvaluationReport", "WeightVector",
    "TruncationWindow", "ExactRing", "ExactScalar", "NumericRing",
    "LatticeSumError", "ExcludedPoint", "NonDivisible", "NotSimple",
    "RankDrop", "NotInvertible", "NonFinite",
    "arrangement_from_json", "arrangement_to_json", "load_arrangement",
    "make_functional", "enumerate_bases", "choose_phi",
    "frac_part", "on_excluded_hyperplanes",
    "cyclotomic_order", "generating_function", "coefficient",
    "lattice_sum_value", "zeta_from_S", "constrained_points",
    "truncated_sum", "convergence_scan", "genfun_via_polytopes",
    "polytope_report", "check_hierarchy", "apply_Dg_summand",
    "HierarchyStep", "format_scalar", "parse_scalar",
    "root_system",
]
