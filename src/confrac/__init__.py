"""Predictor-corrector solvers for conformable fractional initial value problems.

The conformable derivative of order ``a`` in [1e-9, 1] generalises the first
derivative through the limit of ``(g(t + eps*t**(1-a)) - g(t)) / eps``;
this package provides product-quadrature predictor-corrector solvers for
initial value problems posed with that derivative, plus classical and
Caputo-derivative baselines, built-in example problems with closed-form
solutions, and a small CLI (``confrac``) that emits CSV tables and SVG
plots.
"""

from .core import (
    Alpha,
    UniformGrid,
    conformable_derivative_numeric,
    conformable_integral_numeric,
    make_grid,
)
from .errors import (
    AlphaRangeError,
    BlowUpError,
    ConfracError,
    DomainError,
    GridError,
    OrderUndefinedError,
)
from .problems import (
    ErrorReport,
    NamedProblem,
    builtin_problems,
    empirical_order,
    error_report,
    get_problem,
    refinement_errors,
    solve_named,
)
from .quadrature import integrate_trapezoid, rectangle_weights, trapezoid_weights
from .solvers import (
    BLOWUP_LIMIT,
    InitialValueProblem,
    SolutionTrace,
    caputo_weights,
    solve_caputo_pc,
    solve_classical_pc,
    solve_conformable_pc,
    solve_conformable_pc_direct,
)

__version__ = "0.1.0"

__all__ = [
    "Alpha",
    "AlphaRangeError",
    "BLOWUP_LIMIT",
    "BlowUpError",
    "ConfracError",
    "DomainError",
    "ErrorReport",
    "GridError",
    "InitialValueProblem",
    "NamedProblem",
    "OrderUndefinedError",
    "SolutionTrace",
    "UniformGrid",
    "builtin_problems",
    "caputo_weights",
    "conformable_derivative_numeric",
    "conformable_integral_numeric",
    "empirical_order",
    "error_report",
    "get_problem",
    "integrate_trapezoid",
    "make_grid",
    "rectangle_weights",
    "refinement_errors",
    "solve_caputo_pc",
    "solve_classical_pc",
    "solve_conformable_pc",
    "solve_conformable_pc_direct",
    "solve_named",
    "trapezoid_weights",
]
