"""Constrained extremals of smooth cost functionals along affine control
systems: solving, certification, and local inversion of the endpoint map.
"""

from .analysis import (BoundReport, GramReport, LipschitzCertificate,
                       costate_bound_check, lipschitz_certificate,
                       singularity_report)
from .controls import ControlPath, l2_distance, random_smooth_controls
from .dynamics import (DifferentialKernel, Trajectory, fine_grid, integrate,
                       integrate_batch, trapezoid_weights)
from .errors import (BasisDeficiencyError, CertificateFailure,
                     ChartConstructionError, ChartIntegrityError,
                     DiffeomorphismViolationError, DimensionError,
                     DivergenceError, EvaluationError, ExpressionGrowthError,
                     ExtremalsError, GridMismatchError, NonConvergenceError,
                     ParseError, ScenarioError)
from .expr import Expr, compile_vector, parse_components, parse_scalar
from .fields import FieldSet, LieRankResult, lie_bracket, lie_rank, parse_field_set
from .inversion import (Dictionary, DictionaryDirection, InversionChart,
                        SelectedBasis, build_chart, chart_eval,
                        chart_eval_full, chart_from_dict, default_dictionary,
                        select_basis)
from .lagrangian import (Lagrangian, legendre_inverse, parse_lagrangian,
                         phi_from_samples)
from .scenario import (Scenario, builtin_scenario, load_scenario,
                       parse_scenario, resolve_scenario, scenario_control,
                       scenario_fields, scenario_lagrangian)
from .shooting import (CostatePath, ExtremalSolution, costate_from_lambda,
                       extremality_residual, make_seeds, multi_start,
                       shoot_extremal, shoot_extremals)

__version__ = "0.1.0"

__all__ = [
    "BasisDeficiencyError", "BoundReport", "CertificateFailure",
    "ChartConstructionError", "ChartIntegrityError", "ControlPath",
    "CostatePath", "Dictionary", "DictionaryDirection",
    "DifferentialKernel", "DiffeomorphismViolationError", "DimensionError",
    "DivergenceError", "EvaluationError", "Expr", "ExpressionGrowthError",
    "ExtremalSolution", "ExtremalsError", "FieldSet",
    "GramReport", "GridMismatchError", "InversionChart", "Lagrangian",
    "LieRankResult", "LipschitzCertificate", "NonConvergenceError",
    "ParseError", "Scenario", "ScenarioError", "SelectedBasis",
    "Trajectory", "build_chart",
    "builtin_scenario", "chart_eval", "chart_eval_full", "chart_from_dict",
    "compile_vector", "costate_bound_check",
    "costate_from_lambda", "default_dictionary", "extremality_residual",
    "fine_grid", "integrate",
    "integrate_batch", "l2_distance", "legendre_inverse", "lie_bracket",
    "lie_rank", "lipschitz_certificate", "load_scenario", "make_seeds",
    "multi_start", "parse_components", "parse_field_set",
    "parse_lagrangian", "parse_scalar",
    "parse_scenario", "phi_from_samples",
    "random_smooth_controls", "resolve_scenario", "scenario_control",
    "scenario_fields", "scenario_lagrangian", "select_basis",
    "shoot_extremal", "shoot_extremals", "singularity_report",
    "trapezoid_weights",
]
