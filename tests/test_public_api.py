import re
from pathlib import Path

import confrac as cf

README = Path(__file__).resolve().parent.parent / "README.md"

# Every public name, spelled out: a change to the package's surface shows
# up here as a diff line.
PUBLIC_NAMES = [
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
    "gamma",
    "get_problem",
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


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
