import hashlib
import math
import random
import weakref

import numpy as np
import pytest

import confrac as cf
from confrac import problems
from confrac.core import GRID_RTOL, MIN_ORDER, make_grid
from confrac.errors import DomainError, GridError, OrderUndefinedError
from confrac.problems import halving_orders


def test_registry_contents():
    ids = [p.id for p in cf.builtin_problems()]
    assert ids == ["expkernel", "example1", "example2", "example3"]
    with pytest.raises(ValueError, match="expkernel"):
        cf.get_problem("nope")


@pytest.mark.parametrize("pid", ["expkernel", "example1", "example2", "example3"])
@pytest.mark.parametrize("a", [0.3, 0.5, 0.9, 1.0])
def test_exact_solutions_satisfy_initial_value(pid, a):
    named = cf.get_problem(pid)
    assert named.exact(0.0, a) == pytest.approx(named.y0, abs=1e-15)


def test_every_builtin_has_a_closed_form():
    # the CLI takes only built-in ids, and writes a y_exact column and
    # exact-solution markers for each of them unconditionally
    for named in cf.builtin_problems():
        assert callable(named.exact), named.id


def test_example3_closed_form_values():
    named = cf.get_problem("example3")
    assert named.exact(1.0, 0.5) == 0.5
    assert named.exact(2.0, 0.7) == 1.0 / (1.0 + 2.0**0.7)


def test_example2_domain_limit():
    named = cf.get_problem("example2")
    assert named.domain_limit(0.5) == (math.pi / 4.0) ** 2
    # tan(1) at the time where t^a/a == 1
    a = 0.5
    t_star = (a * 1.0) ** (1.0 / a)
    assert named.exact(t_star, a) == pytest.approx(math.tan(1.0), rel=1e-14)
    with pytest.raises(DomainError):
        named.exact(0.62, 0.5)  # just past (pi/4)^2 ~ 0.61685


def test_example2_rejects_horizon_beyond_pole():
    named = cf.get_problem("example2")
    calls = []

    def probe(t, y, a):
        calls.append(t)
        return 1.0 + y * y

    probed = cf.NamedProblem(
        id="probe", description=named.description, equation=named.equation,
        solution=named.solution, y0=named.y0, family=probe,
        exact=named.exact, domain_limit=named.domain_limit,
        domain_note=named.domain_note,
    )
    with pytest.raises(DomainError):
        cf.solve_named(probed, "conformable", 0.5, 0.01, horizon=0.7)
    assert calls == []  # rejected before any rhs evaluation
    trace = cf.solve_named(named, "conformable", 0.5, 0.01, horizon=0.5)
    assert trace.grid.node(trace.grid.panel_count) == 0.5


def test_accepted_grids_end_below_the_asymptote():
    # make_grid lets the last node pass the horizon by up to GRID_RTOL times
    # the horizon, and _checked_horizon refuses horizons within that of the
    # limit; offsets are drawn on both sides of both bounds
    named = cf.get_problem("example2")
    rng = random.Random(2024)
    cases = [(0.5, 0.6168502750680848, 0.0006168502750680849)]
    for _ in range(20000):
        a = rng.uniform(0.1, 1.0)
        limit = named.domain_limit(a)
        if rng.random() < 0.125:
            tau = math.nextafter(limit, 0.0)
        else:
            tau = limit / (1.0 + GRID_RTOL * rng.uniform(0.9, 1.1))
        panels = rng.randint(1, 10**4)
        cases.append((a, tau, tau * (1.0 + GRID_RTOL * rng.uniform(0.9, 1.1)) / panels))
    accepted = 0
    for a, tau, h in cases:
        try:
            grid = make_grid(tau, h)
            named._checked_horizon(cf.Alpha(a), tau)
        except (GridError, DomainError):
            continue
        accepted += 1
        assert grid.node(grid.panel_count) < named.domain_limit(a), (a, tau, h)
    assert accepted > len(cases) // 8


def test_default_horizons():
    unlimited = cf.get_problem("example1")
    assert unlimited.default_horizon(0.5) == 2.0
    assert unlimited.default_horizon(1.0) == 2.0
    limited = cf.get_problem("example2")
    assert limited.default_horizon(0.5) == 0.5
    assert limited.default_horizon(0.7) == 1.0


def test_exact_solutions_reject_negative_time():
    for pid in ("expkernel", "example1", "example2", "example3"):
        for t in (-0.1, math.inf, math.nan):
            with pytest.raises(DomainError, match="finite t >= 0"):
                cf.get_problem(pid).exact(t, 0.5)


@pytest.mark.parametrize("named", cf.builtin_problems(), ids=lambda n: n.id)
def test_exact_solutions_far_out_are_finite_or_refused(named):
    # a closed form past the float range raises DomainError, never
    # OverflowError or a non-finite value
    for t in (1e3, 1e200, 1.7976931348623157e308):
        for a in (MIN_ORDER, 0.001, 0.5, 1.0):
            try:
                value = named.exact(t, a)
            except DomainError:
                continue
            assert isinstance(value, float) and math.isfinite(value), (t, a)


#: sha256 of each built-in's closed form at the 10,001 nodes of its default
#: horizon at order 0.5, as float64 bytes
_CLOSED_FORM_SHA256 = {
    "expkernel": "a72ae460e2973a7d7d7fb68ce170a82f88577637ed4881eb454d8bc0abed9bf4",
    "example1": "bd5b5bd8fa88809e0fcbf4f4d1a53020fc05feb062d682cc1458727445b7608f",
    "example2": "b75a053276e20c279b90d915ec12f2086ac3685ae7a21292b0d7c2bdd600429d",
    "example3": "23e05c9ac14311f6b1e4fc5e2c991789f6da8c08c7cd569199f205a75e69ed0b",
}


def test_closed_form_bits_and_overflow_messages_are_pinned():
    digests = {}
    for named in cf.builtin_problems():
        tau = named.default_horizon(0.5)
        column = problems._exact_column(
            named.exact, cf.Alpha(0.5), make_grid(tau, tau / 10000))
        digests[named.id] = hashlib.sha256(column.tobytes()).hexdigest()
    assert digests == _CLOSED_FORM_SHA256
    # each overflow names its own formula
    for pid, t, a, message in (
        ("expkernel", 2.0, 0.001, "exp(t**a / a) overflows at t = 2.0, order 0.001"),
        ("example1", 1000.0, 0.5,
         "exp(t**(a+1) / (a+1)) overflows at t = 1000.0, order 0.5"),
    ):
        with pytest.raises(DomainError) as raised:
            cf.get_problem(pid).exact(t, a)
        assert str(raised.value) == message


def test_solve_named_dispatch():
    named = cf.get_problem("example1")
    with pytest.raises(ValueError):
        cf.solve_named(named, "rk4", 0.5, 0.01)
    with pytest.raises(DomainError):
        cf.solve_named(named, "classical", 0.5, 0.01)  # classical needs order 1
    trace = cf.solve_named(named, "classical", 1.0, 0.01)
    assert trace.method == "classical"
    assert cf.solve_named(named, "caputo", 0.5, 0.01).method == "caputo"


@pytest.mark.parametrize("method,solve,h,error", [
    ("classical", cf.solve_classical_pc, 0.01, DomainError),  # order 0.5
    ("caputo", cf.solve_caputo_pc, 1e-6, GridError),  # 10**6 + 1 nodes
])
def test_method_grid_refuses_as_the_solver_does(method, solve, h, error):
    def no_rhs(t, y):
        raise AssertionError("solver called its right-hand side")

    with pytest.raises(error) as checked:
        problems.method_grid(cf.get_problem("example1"), method, 0.5, 1.0, h)
    with pytest.raises(error) as solved:
        solve(cf.InitialValueProblem(no_rhs, 1.0, 1.0, cf.Alpha(0.5)), h)
    assert type(solved.value) is type(checked.value)
    assert str(solved.value) == str(checked.value)


def test_smallest_order_is_as_accurate_as_order_one_half():
    # the floor's evidence: at MIN_ORDER the error is 4.23e-6 against
    # 5.68e-6 at a = 0.5; at 1e-10 it is 1.07e-4, 19 times that
    named = cf.get_problem("example1")

    def max_error(a):
        trace = cf.solve_conformable_pc(named.problem(a, 2.0), 1e-3)
        return cf.error_report(trace, named.exact, a).max_abs_error

    assert max_error(MIN_ORDER) <= 2.0 * max_error(0.5)


def test_smallest_order_keeps_converging_on_a_finer_grid():
    # measured 1.83e-7 at h = 1e-4 (4.23e-6 at 1e-3); when the series'
    # first binomial was formed from the rounded a + 1 it was 1.40e-6
    named = cf.get_problem("example1")
    trace = cf.solve_conformable_pc(named.problem(MIN_ORDER, 2.0), 1e-4)
    assert cf.error_report(trace, named.exact, MIN_ORDER).max_abs_error <= 4e-7


def test_error_report_basics():
    named = cf.get_problem("example1")
    trace = cf.solve_named(named, "conformable", 0.5, 0.01)
    report = cf.error_report(trace, named.exact, 0.5)
    assert report.max_abs_error >= report.endpoint_abs_error >= 0.0
    assert math.isfinite(report.endpoint_rel_error)
    # a deliberate interior perturbation must show up in the max-error field
    bumped = cf.SolutionTrace(
        grid=trace.grid,
        values=trace.values + np.where(
            np.arange(trace.grid.node_count) == 50, 1e-3, 0.0
        ),
        predictors=trace.predictors,
        method=trace.method,
    )
    bumped_report = cf.error_report(bumped, named.exact, 0.5)
    assert bumped_report.max_abs_error > 9e-4
    assert bumped_report.endpoint_abs_error == report.endpoint_abs_error


@pytest.mark.parametrize("a", [0.5, 0.7])
@pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
def test_exact_solutions_satisfy_equation(a, t):
    # numeric conformable derivative of each exact solution matches the rhs
    for named in cf.builtin_problems():
        if named.domain_limit is not None and t >= 0.9 * named.domain_limit(a):
            continue
        lhs = cf.conformable_derivative_numeric(
            lambda x: named.exact(x, a), t, a
        )
        rhs = named.family(t, named.exact(t, a), a)
        assert abs(lhs - rhs) < 1e-6


def test_refinement_errors_validation():
    named = cf.get_problem("example1")
    with pytest.raises(ValueError):
        cf.refinement_errors(named, "conformable", 0.5, 2.0, 0.04, 1)
    bare = cf.NamedProblem(
        id="bare", description="d", equation="e", solution="s", y0=0.0,
        family=lambda t, y, a: 1.0,
    )
    with pytest.raises(ValueError):
        cf.refinement_errors(bare, "conformable", 0.5, 2.0, 0.04, 3)


def test_refinement_steps_are_floats_halved_exactly():
    # level k steps with ldexp(h0, -k), a float whatever float type h0 has
    named = cf.get_problem("example1")
    narrow = cf.refinement_errors(named, "caputo", 0.5, 2.0, np.float32(0.25), 3)
    wide = cf.refinement_errors(named, "caputo", 0.5, 2.0, 0.25, 3)
    assert [type(h) for h, _ in narrow] == [float] * 3
    assert narrow == wide
    assert [h for h, _ in wide] == [0.25, 0.125, 0.0625]


def test_refinement_rejects_oversized_ladder_before_solving():
    calls = []

    def probe(t, y, a):
        calls.append(t)
        return t * y

    named = cf.NamedProblem(
        id="probe", description="d", equation="e", solution="s", y0=1.0,
        family=probe, exact=cf.get_problem("example1").exact,
    )
    for levels in (40, 5000):
        with pytest.raises(GridError):
            cf.refinement_errors(named, "conformable", 0.5, 2.0, 0.04, levels)
    # inside MAX_NODES, past the Caputo ceiling (finest level 6,553,601 nodes)
    with pytest.raises(GridError, match="Caputo"):
        cf.refinement_errors(named, "caputo", 0.5, 2.0, 0.04, 18)
    with pytest.raises(ValueError, match="unknown method"):
        cf.refinement_errors(named, "rk4", 0.5, 2.0, 0.04, 3)
    assert calls == []


def test_refinement_lets_each_trace_go_before_the_next_level(monkeypatch):
    # each level's trace is half as long as the next one's: it must be freed
    # once its endpoint error is taken, before the next level is solved
    refs = []
    solve_named = problems.solve_named

    def watched_solve(*args):
        assert all(ref() is None for ref in refs)
        trace = solve_named(*args)
        refs.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(problems, "solve_named", watched_solve)
    pairs = cf.refinement_errors(cf.get_problem("example1"), "caputo", 0.5,
                                 2.0, 0.04, 4)
    assert len(pairs) == len(refs) == 4


def test_halving_orders_mark_floor_errors():
    # an order needs both neighbours above the rounding floor
    assert halving_orders([0.5, 0.125, 1e-15, 0.03125]) == [2.0, None, None]
    assert halving_orders([0.5, 0.125, 0.03125]) == [2.0, 2.0]
    assert halving_orders([0.5]) == []


def test_empirical_order_of_conformable_scheme():
    named = cf.get_problem("example1")
    orders = cf.empirical_order(named, "conformable", 0.5, 2.0, 0.04, 6)
    assert all(1.5 < p < 2.2 for p in orders)
    assert all(orders[i] < orders[i + 1] for i in range(len(orders) - 1))


def test_empirical_order_rejects_exactly_solved_problem():
    # a constant rhs is integrated exactly, so errors sit at rounding level
    flat = cf.NamedProblem(
        id="flat", description="constant slope", equation="T_a y = 1",
        solution="t^a / a", y0=0.0,
        family=lambda t, y, a: 1.0,
        exact=lambda t, a: t ** float(a) / float(a),
    )
    errors = [e for _, e in
              cf.refinement_errors(flat, "conformable", 0.5, 2.0, 0.04, 4)]
    assert max(errors) <= 1e-13  # rounding level for y(2) ~ 2.83
    with pytest.raises(OrderUndefinedError):
        cf.empirical_order(flat, "conformable", 0.5, 2.0, 0.04, 4)


def test_expkernel_exact_is_eigenfunction():
    named = cf.get_problem("expkernel")
    a = 0.5
    for t in (0.25, 0.5, 1.0, 2.0):
        assert named.exact(t, a) == pytest.approx(math.exp(t**a / a), rel=1e-15)


def test_caputo_problem_is_the_one_problem_builder():
    # one problem type serves all three solvers; the second name is an alias
    assert cf.NamedProblem.caputo_problem is cf.NamedProblem.problem
    named = cf.get_problem("example1")
    assert type(named.caputo_problem(0.5, 2.0)) is cf.InitialValueProblem
