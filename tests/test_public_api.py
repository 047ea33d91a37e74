import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import confrac as cf
from confrac import cli
from confrac.core import MAX_NODES
from confrac.solvers import CAPUTO_MAX_NODES, DIRECT_MAX_NODES

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

# The parameter names of every public callable, so an added or dropped
# option shows up here too.  None marks an error class that keeps the
# builtin exception constructor, which has no readable signature.
PUBLIC_PARAMETERS = {
    "Alpha": ["value"],
    "AlphaRangeError": ["value"],
    "BlowUpError": ["step_index", "value", "t", "last_value"],
    "ConfracError": None,
    "DomainError": None,
    "ErrorReport": ["max_abs_error", "endpoint_abs_error", "endpoint_rel_error"],
    "GridError": None,
    "InitialValueProblem": ["rhs", "y0", "horizon", "order"],
    "NamedProblem": ["id", "description", "equation", "solution", "y0", "family",
                     "exact", "domain_limit", "domain_note"],
    "OrderUndefinedError": None,
    "SolutionTrace": ["grid", "values", "predictors", "method"],
    "UniformGrid": ["step", "node_count"],
    "builtin_problems": [],
    "caputo_weights": ["n", "alpha"],
    "conformable_derivative_numeric": ["g", "t", "alpha", "delta"],
    "conformable_integral_numeric": ["g", "tau", "alpha", "n"],
    "empirical_order": ["named", "method", "alpha", "tau", "h0", "levels"],
    "error_report": ["trace", "exact", "alpha"],
    "get_problem": ["problem_id"],
    "integrate_trapezoid": ["samples", "h", "alpha"],
    "make_grid": ["tau", "h"],
    "rectangle_weights": ["n", "alpha"],
    "refinement_errors": ["named", "method", "alpha", "tau", "h0", "levels"],
    "solve_caputo_pc": ["problem", "h"],
    "solve_classical_pc": ["problem", "h"],
    "solve_conformable_pc": ["problem", "h"],
    "solve_conformable_pc_direct": ["problem", "h"],
    "solve_named": ["named", "method", "alpha", "h", "horizon"],
    "trapezoid_weights": ["n", "alpha"],
}

# The public members of every public class other than the errors, past its
# dataclass fields (pinned above as its parameters): methods and properties.
PUBLIC_MEMBERS = {
    "Alpha": [],
    "ErrorReport": [],
    "InitialValueProblem": [],
    "NamedProblem": ["caputo_problem", "default_horizon", "problem"],
    "SolutionTrace": ["endpoint"],
    "UniformGrid": ["node", "nodes", "panel_count"],
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


def test_public_members_are_pinned():
    classes = {name: getattr(cf, name) for name in cf.__all__}
    classes = {name: cls for name, cls in classes.items()
               if isinstance(cls, type) and not issubclass(cls, Exception)}
    assert {name: sorted(member for member in vars(cls)
                         if not member.startswith("_")
                         and member not in cls.__dataclass_fields__)
            for name, cls in classes.items()} == PUBLIC_MEMBERS


class _Reached(Exception):
    """Raised by the first allocation, coefficient or function call a run makes."""


def _first_work(*args):
    raise _Reached


def _ivp(order):
    return cf.InitialValueProblem(_first_work, 1.0, 1.0, cf.Alpha(order))


def _ladder(function, method, h0, levels):
    return function(cf.get_problem("example1"), method, 0.5, 1.0, h0, levels)


# Each parameter that sets how much work a call does, as (public name,
# parameter, call, value at the bound, value just past it) on [0, 1].  A
# ladder halves its step, so its finest grid has an even number of panels.
_SIZE_CASES = [
    ("UniformGrid", "node_count", lambda n: cf.UniformGrid(0.1, n),
     MAX_NODES, MAX_NODES + 1),
    ("caputo_weights", "n", lambda n: cf.caputo_weights(n, 0.5),
     MAX_NODES - 1, MAX_NODES),
    ("rectangle_weights", "n", lambda n: cf.rectangle_weights(n, 0.5),
     MAX_NODES - 1, MAX_NODES),
    ("trapezoid_weights", "n", lambda n: cf.trapezoid_weights(n, 0.5),
     MAX_NODES - 1, MAX_NODES),
    # n + 2 nodes
    ("conformable_integral_numeric", "n",
     lambda n: cf.conformable_integral_numeric(_first_work, 1.0, 0.5, n),
     MAX_NODES - 2, MAX_NODES - 1),
    ("make_grid", "h", lambda h: cf.make_grid(1.0, h),
     1 / (MAX_NODES - 1), 1 / MAX_NODES),
    ("solve_classical_pc", "h", lambda h: cf.solve_classical_pc(_ivp(1.0), h),
     1 / (MAX_NODES - 1), 1 / MAX_NODES),
    ("solve_conformable_pc", "h",
     lambda h: cf.solve_conformable_pc(_ivp(0.5), h),
     1 / (MAX_NODES - 1), 1 / MAX_NODES),
    ("solve_conformable_pc_direct", "h",
     lambda h: cf.solve_conformable_pc_direct(_ivp(0.5), h),
     1 / (DIRECT_MAX_NODES - 1), 1 / DIRECT_MAX_NODES),
    ("solve_caputo_pc", "h", lambda h: cf.solve_caputo_pc(_ivp(0.5), h),
     1 / (CAPUTO_MAX_NODES - 1), 1 / CAPUTO_MAX_NODES),
    *(("solve_named", "h", lambda h, method=method, order=order: cf.solve_named(
        cf.get_problem("example1"), method, order, h, 1.0),
       1 / (ceiling - 1), 1 / ceiling)
      for method, order, ceiling in (("classical", 1.0, MAX_NODES),
                                     ("conformable", 0.5, MAX_NODES),
                                     ("caputo", 0.5, CAPUTO_MAX_NODES))),
    *((name, "h0", lambda h0, f=function: _ladder(f, "caputo", h0, 2),
       2 / (CAPUTO_MAX_NODES - 2), 2 / CAPUTO_MAX_NODES)
      for name, function in (("refinement_errors", cf.refinement_errors),
                             ("empirical_order", cf.empirical_order))),
    *((name, "levels", lambda levels, f=function: _ladder(
        f, "caputo", 2 / (CAPUTO_MAX_NODES - 2), levels), 2, 3)
      for name, function in (("refinement_errors", cf.refinement_errors),
                             ("empirical_order", cf.empirical_order))),
]

# what a count's refusal calls it
_COUNT_NAMES = "^(node count|panel index|panel parameter|levels)"

# counts whose ceiling ``core.as_count`` checks; the others are refused by
# the grid their step implies, with a message naming the step
_COUNT_CEILINGS = {"UniformGrid", "caputo_weights", "rectangle_weights",
                   "trapezoid_weights"}

# parameters with a size-like name that set no size: the work does not
# grow with them
_NOT_SIZES = {
    ("integrate_trapezoid", "h"): "a scale; the work is one weight per sample",
}


def test_every_size_parameter_has_a_bound_case():
    sizes = {(name, parameter) for name, parameters in PUBLIC_PARAMETERS.items()
             for parameter in parameters or ()
             if parameter in ("n", "h", "h0", "levels", "node_count")}
    cases = {(name, parameter) for name, parameter, *_ in _SIZE_CASES}
    assert sizes == cases | set(_NOT_SIZES)
    assert not cases & set(_NOT_SIZES)


@pytest.mark.parametrize("name,parameter,call,bound,past", _SIZE_CASES,
                         ids=[f"{c[0]}({c[1]})" for c in _SIZE_CASES])
def test_size_parameters_are_refused_past_their_bound_before_work(
        monkeypatch, name, parameter, call, bound, past):
    monkeypatch.setattr(np, "empty", _first_work)
    monkeypatch.setattr(cf.quadrature, "_coefficient_block", _first_work)
    monkeypatch.setattr(cf.solvers, "_coefficient_block", _first_work)
    ceiling = (f"^(node count|panel index) must be at most {bound}, got {past}$"
               if name in _COUNT_CEILINGS else None)
    with pytest.raises(cf.GridError, match=ceiling):
        call(past)
    if parameter in ("n", "levels", "node_count"):
        # a count must be an integer; a numpy one is taken like an int
        with pytest.raises(cf.GridError, match="must be an integer, got 2.5"):
            call(2.5)
        # and at least its floor: 0 for an index, 2 for nodes and levels
        floor = 0 if parameter == "n" else 2
        message = f"{_COUNT_NAMES} must be at least {floor}, got {floor - 1}$"
        with pytest.raises(cf.GridError, match=message):
            call(floor - 1)
        bound = np.int64(bound)
    # the bound itself passes every check: the call reaches its first
    # allocation or function call, or returns when it has none
    try:
        call(bound)
    except _Reached:
        pass


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_dotted_references_resolve():
    # every backticked ``confrac.<module>.<name>`` path in README.md names
    # a real module or attribute
    paths = sorted(set(re.findall(r"`(confrac(?:\.\w+)+)", README.read_text())))
    assert paths
    unresolved = []
    for path in paths:
        try:
            pkgutil.resolve_name(path)
        except (ImportError, AttributeError):
            unresolved.append(path)
    assert unresolved == []


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("confrac ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
