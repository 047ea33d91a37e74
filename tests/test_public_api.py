import inspect
import re
import shlex
from pathlib import Path

import confrac as cf
from confrac import cli

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

# The parameter names of every public callable, so an added or dropped
# option shows up here too.  None marks an error class that keeps the
# builtin exception constructor, which has no readable signature.
PUBLIC_PARAMETERS = {
    "Alpha": ["value"],
    "AlphaRangeError": ["value"],
    "BlowUpError": ["step_index", "value", "t", "last_value"],
    "ConfracError": None,
    "DomainError": None,
    "ErrorReport": ["max_abs_error", "endpoint_abs_error", "endpoint_rel_error",
                    "node_count"],
    "GridError": None,
    "InitialValueProblem": ["rhs", "y0", "horizon", "order"],
    "NamedProblem": ["id", "description", "equation", "solution", "y0", "family",
                     "exact", "domain_limit", "domain_note"],
    "OrderUndefinedError": None,
    "SolutionTrace": ["grid", "values", "predictors", "method"],
    "UniformGrid": ["step", "node_count", "horizon"],
    "builtin_problems": [],
    "caputo_weights": ["n", "alpha"],
    "conformable_derivative_numeric": ["g", "t", "alpha", "delta"],
    "conformable_integral_numeric": ["g", "tau", "alpha", "n"],
    "empirical_order": ["named", "method", "alpha", "tau", "h0", "levels"],
    "error_report": ["trace", "exact", "alpha"],
    "gamma": ["x"],
    "get_problem": ["problem_id"],
    "integrate_rectangle": ["samples", "h", "alpha"],
    "integrate_trapezoid": ["samples", "h", "alpha"],
    "make_grid": ["tau", "h"],
    "rectangle_coefficient": ["j", "alpha"],
    "rectangle_weights": ["n", "alpha"],
    "refinement_errors": ["named", "method", "alpha", "tau", "h0", "levels"],
    "solve_caputo_pc": ["problem", "h"],
    "solve_classical_pc": ["problem", "h"],
    "solve_conformable_pc": ["problem", "h"],
    "solve_conformable_pc_direct": ["problem", "h"],
    "solve_named": ["named", "method", "alpha", "h", "horizon"],
    "trapezoid_coefficient": ["j", "alpha"],
    "trapezoid_tail_coefficient": ["n", "alpha"],
    "trapezoid_weights": ["n", "alpha"],
}


def _parameters(obj):
    try:
        return list(inspect.signature(obj).parameters)
    except ValueError:
        return None


def test_public_surface_is_pinned():
    assert sorted(cf.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(cf, name)] == []


def test_public_parameters_are_pinned():
    callables = {name: getattr(cf, name) for name in cf.__all__}
    assert {name: _parameters(obj) for name, obj in callables.items()
            if callable(obj)} == PUBLIC_PARAMETERS


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("confrac ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
