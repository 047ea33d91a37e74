import confrac as cf

# Every public name, spelled out: a change to the package's surface shows
# up here as a diff line.
PUBLIC_NAMES = [
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


def test_public_surface_is_pinned():
    assert sorted(cf.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(cf, name)] == []
