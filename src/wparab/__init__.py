"""Capacity, parabolicity and weighted-curvature toolkit for rotationally
symmetric spaces with weights and their immersed submanifolds."""

from .errors import (BracketError, ComparisonRefusal, DegenerateMetricError,
                     DomainError, IntegrandSignError, NonMonotoneTailError,
                     NotAttainedError, QuadratureError, ScenarioError,
                     SupportError, WparabError)
from .expr import Dual, ExprDomainError, ExprSyntaxError, eval_dual, evaluate, parse, to_source
from .model import CapacityReport, WeightedModel, sphere_area_constant
from .radial import (IntegralVerdict, RadialProfile, WarpingFunction,
                     classify_improper, expand_bracket, find_root, integrate)
from .verdicts import HypothesisCheck, Outcome, Verdict

__version__ = "0.1.0"

__all__ = [
    "BracketError", "CapacityReport", "ComparisonRefusal",
    "DegenerateMetricError", "DomainError", "Dual", "ExprDomainError",
    "ExprSyntaxError", "HypothesisCheck", "IntegralVerdict",
    "IntegrandSignError", "NonMonotoneTailError", "NotAttainedError",
    "Outcome", "QuadratureError", "RadialProfile", "ScenarioError",
    "SupportError", "Verdict", "WarpingFunction", "WeightedModel",
    "WparabError", "classify_improper", "eval_dual", "evaluate",
    "expand_bracket", "find_root", "integrate", "parse",
    "sphere_area_constant", "to_source",
]
