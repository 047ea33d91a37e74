"""Predictor-corrector solvers for conformable fractional initial value problems.

The conformable derivative of order ``a`` in (0, 1] generalises the first
derivative through the limit of ``(g(t + eps*t**(1-a)) - g(t)) / eps``;
this package provides product-quadrature predictor-corrector solvers for
initial value problems posed with that derivative, plus classical and
Caputo-derivative baselines, built-in example problems with closed-form
solutions, and a small CLI (``confrac``) that emits CSV tables and SVG
plots.
"""

from .core import (
    Alpha,
    ScalarFunction,
    UniformGrid,
    as_alpha,
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
    exact_example1,
    exact_example2,
    exact_example3,
    exact_expkernel,
    get_problem,
    refinement_errors,
    solve_named,
)
from .quadrature import (
    gamma,
    integrate_rectangle,
    integrate_trapezoid,
    rectangle_coefficient,
    rectangle_weights,
    trapezoid_coefficient,
    trapezoid_tail_coefficient,
    trapezoid_weights,
)
from .solvers import (
    BLOWUP_LIMIT,
    CaputoProblem,
    ConformablePcState,
    InitialValueProblem,
    SolutionTrace,
    caputo_weights,
    conformable_step,
    initial_conformable_state,
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
    "CaputoProblem",
    "ConformablePcState",
    "ConfracError",
    "DomainError",
    "ErrorReport",
    "GridError",
    "InitialValueProblem",
    "NamedProblem",
    "OrderUndefinedError",
    "ScalarFunction",
    "SolutionTrace",
    "UniformGrid",
    "as_alpha",
    "builtin_problems",
    "caputo_weights",
    "conformable_derivative_numeric",
    "conformable_integral_numeric",
    "conformable_step",
    "empirical_order",
    "error_report",
    "exact_example1",
    "exact_example2",
    "exact_example3",
    "exact_expkernel",
    "gamma",
    "get_problem",
    "initial_conformable_state",
    "integrate_rectangle",
    "integrate_trapezoid",
    "make_grid",
    "rectangle_coefficient",
    "rectangle_weights",
    "refinement_errors",
    "solve_caputo_pc",
    "solve_classical_pc",
    "solve_conformable_pc",
    "solve_conformable_pc_direct",
    "solve_named",
    "trapezoid_coefficient",
    "trapezoid_tail_coefficient",
    "trapezoid_weights",
]
