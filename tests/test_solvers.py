import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import confrac as cf
from confrac.errors import AlphaRangeError, BlowUpError, DomainError, GridError


def _ivp(rhs, y0, horizon, order):
    return cf.InitialValueProblem(
        rhs=rhs, y0=y0, horizon=horizon, order=cf.Alpha(order)
    )


# ---------------------------------------------------------------- classical scheme


def test_classical_zero_rhs_stays_constant():
    trace = cf.solve_classical_pc(_ivp(lambda t, y: 0.0, 3.5, 1.0, 1.0), 0.125)
    assert np.all(trace.values == 3.5)


def test_classical_constant_rhs_reproduces_time():
    # binary-friendly step keeps the accumulation exact
    trace = cf.solve_classical_pc(_ivp(lambda t, y: 1.0, 0.0, 2.0, 1.0), 0.25)
    assert np.array_equal(trace.values, trace.grid.nodes())


def test_classical_endpoint_second_order():
    trace = cf.solve_classical_pc(_ivp(lambda t, y: t * y, 1.0, 2.0, 1.0), 1e-3)
    assert abs(trace.endpoint - math.exp(2.0)) < 1e-5


def test_classical_requires_order_one():
    with pytest.raises(DomainError):
        cf.solve_classical_pc(_ivp(lambda t, y: y, 1.0, 1.0, 0.5), 0.1)


# ---------------------------------------------------------------- conformable scheme


@pytest.mark.parametrize("a", [0.3, 0.7, 1.0])
def test_conformable_constant_rhs_exact(a):
    # y0 large enough that the decaying solution stays away from zero,
    # where relative error would just amplify rounding
    c, y0 = -1.75, 8.0
    trace = cf.solve_conformable_pc(_ivp(lambda t, y: c, y0, 2.0, a), 0.01)
    t = trace.grid.nodes()
    expected = y0 + c * t**a / a
    rel = np.abs(trace.values - expected) / np.maximum(np.abs(expected), 1e-30)
    assert float(rel.max()) < 1e-12


@pytest.mark.parametrize("a", [0.4, 1.0])
def test_conformable_time_linear_rhs_exact(a):
    # rhs independent of y and linear in t is integrated exactly
    y0 = 0.5
    trace = cf.solve_conformable_pc(
        _ivp(lambda t, y: 2.0 - 3.0 * t, y0, 2.0, a), 0.01
    )
    t = trace.grid.nodes()
    expected = y0 + 2.0 * t**a / a - 3.0 * t ** (a + 1) / (a + 1)
    rel = np.abs(trace.values - expected) / np.maximum(np.abs(expected), 1e-30)
    assert float(rel.max()) < 1e-12


def test_conformable_first_step_formula():
    # y_1 = y0 + cte2 * (f(t0, y0) + a * f(t1, predicted))
    a, h, y0 = 0.5, 0.25, 1.0
    trace = cf.solve_conformable_pc(_ivp(lambda t, y: t * y, y0, 1.0, a), h)
    cte1 = h**a / a
    cte2 = cte1 / (a + 1.0)
    f0 = 0.0 * y0
    predicted = y0 + cte1 * f0
    assert trace.predictors[0] == predicted
    assert trace.values[1] == y0 + cte2 * (f0 + a * (h * predicted))


def test_conformable_zero_rhs_keeps_state_at_y0():
    trace = cf.solve_conformable_pc(_ivp(lambda t, y: 0.0, 4.25, 1.0, 0.5), 0.25)
    assert np.all(trace.values == 4.25)
    assert np.all(trace.predictors == 4.25)


def test_conformable_incremental_matches_direct_summation():
    problem = _ivp(lambda t, y: t * y, 1.0, 2.0, 0.5)
    fast = cf.solve_conformable_pc(problem, 0.002)
    slow = cf.solve_conformable_pc_direct(problem, 0.002)
    rel = np.abs(fast.values - slow.values) / np.maximum(np.abs(slow.values), 1e-30)
    assert float(rel.max()) < 1e-12
    assert np.array_equal(fast.grid.nodes(), slow.grid.nodes())


def test_conformable_blocks_match_direct_summation(monkeypatch):
    # 12,501 nodes: twelve full blocks of 1,024 steps and a partial thirteenth
    problem = _ivp(lambda t, y: t * y, 1.0, 1.25, 0.5)
    h = 1e-4
    fast = cf.solve_conformable_pc(problem, h)
    assert fast.grid.node_count > 3 * cf.core.BLOCK + 1
    slow = cf.solve_conformable_pc_direct(problem, h)
    for ours, reference in ((fast.values, slow.values),
                            (fast.predictors, slow.predictors)):
        rel = np.abs(ours - reference) / np.abs(reference)
        assert float(rel.max()) < 1e-12
    # the block length changes no bit
    for block in (7, 10**7):
        monkeypatch.setattr(cf.core, "BLOCK", block)
        other = cf.solve_conformable_pc(problem, h)
        assert np.array_equal(other.values, fast.values)
        assert np.array_equal(other.predictors, fast.predictors)


def test_conformable_solve_memory_is_its_outputs():
    # values and predictors take 16 bytes per node; coefficients, scaled
    # weights and the lists of values and predictors are built per block
    # (the solve peaks 0.20 MiB above the outputs, 0.63 MiB with blocks of
    # 4,096 stored step by step)
    problem = _ivp(lambda t, y: t * y, 1.0, 2.0, 0.5)
    h = 1e-5
    nodes = cf.make_grid(problem.horizon, h).node_count
    assert nodes == 200_001
    tracemalloc.start()
    try:
        cf.solve_conformable_pc(problem, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * nodes + 2**19, peak


@pytest.mark.parametrize("h", [0.04, 0.01, 0.001])
def test_alpha_one_conformable_near_classical(h):
    # structurally different predictors: agreement is O(h^2), not exact
    problem = _ivp(lambda t, y: t * y, 1.0, 2.0, 1.0)
    classical = cf.solve_classical_pc(problem, h)
    conformable = cf.solve_conformable_pc(problem, h)
    gap = float(np.max(np.abs(classical.values - conformable.values)))
    assert gap < 5.0 * h**2


def test_monotone_refinement_conformable():
    named = cf.get_problem("example1")
    errors = [e for _, e in cf.refinement_errors(named, "conformable", 0.5, 2.0, 0.04, 5)]
    assert all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))


def test_monotone_refinement_caputo_against_fine_reference():
    problem = cf.get_problem("example1").problem(0.5, 2.0)
    reference = cf.solve_caputo_pc(problem, 0.04 / 2**6)
    errors = []
    for level in range(5):
        trace = cf.solve_caputo_pc(problem, 0.04 / 2**level)
        errors.append(abs(trace.endpoint - reference.endpoint))
    assert all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))


# ---------------------------------------------------------------- caputo scheme


def test_caputo_zero_rhs_stays_constant():
    trace = cf.solve_caputo_pc(_ivp(lambda t, y: 0.0, 2.5, 1.0, 0.5), 0.125)
    assert np.all(trace.values == 2.5)


def test_caputo_constant_rhs_matches_power_law():
    # D^0.5 y = 1, y(0) = 0 has solution 2*sqrt(t/pi)
    trace = cf.solve_caputo_pc(_ivp(lambda t, y: 1.0, 0.0, 1.0, 0.5), 0.01)
    t = trace.grid.nodes()
    expected = 2.0 * np.sqrt(t / math.pi)
    assert float(np.max(np.abs(trace.values - expected))) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 10, 1000])
def test_caputo_weights_collapse_at_order_one(n):
    predictor, corrector = cf.caputo_weights(n, 1.0)
    assert np.array_equal(predictor, np.ones(n + 1))
    expected = np.full(n + 2, 2.0)
    expected[0] = expected[-1] = 1.0
    assert np.array_equal(corrector, expected)


def test_caputo_weights_head_matches_closing_coefficient():
    for n in (0, 1, 7, 40):
        _, corrector = cf.caputo_weights(n, 0.5)
        assert corrector[0] == cf.quadrature.trapezoid_tail_coefficient(n, 0.5)
        assert corrector[-1] == 1.0
    with pytest.raises(ValueError):
        cf.caputo_weights(-1, 0.5)


def _abm_oracle(problem, h):
    """The Caputo ABM recursion, re-run from the public weight vectors.

    Weights for node n + 1 are suffixes of ``caputo_weights(panels)``; the
    corrector's head is the trapezoid closing coefficient at n.  Each step
    re-sums the whole history, O(n) per step.
    """
    a, rhs, y0 = problem.order.value, problem.rhs, problem.y0
    panels = round(problem.horizon / h)
    predictor_w, corrector_w = cf.caputo_weights(panels, a)
    predictor_scale = h**a / math.gamma(a + 1.0)
    corrector_scale = h**a / math.gamma(a + 2.0)
    slopes = np.empty(panels + 1)
    slopes[0] = rhs(0.0, y0)
    values, predictors = [y0], []
    for n in range(panels):
        t = (n + 1) * h
        predicted = y0 + predictor_scale * float(
            np.dot(predictor_w[panels - n:], slopes[:n + 1])
        )
        head = cf.quadrature.trapezoid_tail_coefficient(n, a) * slopes[0] + float(
            np.dot(corrector_w[panels + 1 - n:panels + 1], slopes[1:n + 1])
        )
        corrected = y0 + corrector_scale * (
            head + corrector_w[-1] * rhs(t, predicted)
        )
        slopes[n + 1] = rhs(t, corrected)
        values.append(corrected)
        predictors.append(predicted)
    return np.array(values), np.array(predictors)


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
def test_caputo_solver_matches_weight_vector_oracle(a):
    # h = 1/400 on [0, 2] runs past index 128, where the series path starts
    problem = cf.get_problem("example1").problem(a, 2.0)
    trace = cf.solve_caputo_pc(problem, 1 / 400)
    values, predictors = _abm_oracle(problem, 1 / 400)
    assert np.array_equal(trace.values, values)
    assert np.array_equal(trace.predictors, predictors)


# largest relative gap between the FFT history sums and the oracle's
# direct sums, over the grids and orders below: 1.41e-15 (a = 0.3,
# 25,601 nodes; also the largest at 6,145 and 8,193 nodes); the bound
# leaves more than twice that
_RECURSION_GAP = 4e-15


@pytest.mark.parametrize("nodes", [1025, 4097, 25601])
@pytest.mark.parametrize("a", [0.3, 0.5, 0.9, 1.0])
def test_caputo_recursive_history_matches_oracle(a, nodes):
    # past one 1,024-step leaf the far-field sums come from FFTs; from
    # 4,097 nodes on, a chunk's far field sums several earlier 2,048-node
    # chunks in the frequency domain
    problem = cf.get_problem("example1").problem(a, 2.0)
    h = 2.0 / (nodes - 1)
    trace = cf.solve_caputo_pc(problem, h)
    values, predictors = _abm_oracle(problem, h)
    assert np.max(np.abs(trace.values - values) / values) <= _RECURSION_GAP
    assert np.max(np.abs(trace.predictors - predictors) / predictors) <= _RECURSION_GAP


def test_caputo_node_values_do_not_depend_on_horizon():
    # the kernels never read past the coefficient tables, so a run cut short
    # reproduces the longer run's nodes bit for bit
    h = 2.0 / 25600
    full = cf.solve_caputo_pc(cf.get_problem("example1").problem(0.5, 2.0), h)
    for nodes in (1025, 2049, 3000, 4097, 16385, 20000):
        problem = cf.get_problem("example1").problem(0.5, (nodes - 1) * h)
        trace = cf.solve_caputo_pc(problem, h)
        assert trace.grid.node_count == nodes
        assert np.array_equal(trace.values, full.values[:nodes])
        assert np.array_equal(trace.predictors, full.predictors[:nodes - 1])


# sha256 of values.tobytes() and predictors.tobytes() of the solve below,
# frozen from the solver that sums its far field in one ascending pass
# over 2,048-node chunks
_CAPUTO_25601_SHA256 = (
    "f56a1860b466a4c68711350b3003f955990edd8ad6bf72f8302baa4e14f587be",
    "c5efe881300fd84c3837965d893b7f77f51fdd0bce1db4a0401f86d05b7acac6",
)


def test_caputo_generates_each_coefficient_once_in_blocks(monkeypatch):
    def no_tables(*args):
        raise AssertionError("coefficient tables built")

    blocks = []
    block = cf.solvers._coefficient_block

    def recorded(lo, hi, a):
        blocks.append((lo, hi))
        return block(lo, hi, a)

    monkeypatch.setattr(cf.solvers, "coefficient_tables", no_tables)
    monkeypatch.setattr(cf.solvers, "_coefficient_block", recorded)
    trace = cf.solve_caputo_pc(cf.get_problem("example1").problem(0.5, 2.0),
                               2.0 / 25600)
    assert trace.grid.node_count == 25601
    assert max(hi - lo for lo, hi in blocks) <= 2048
    indices = [j for lo, hi in blocks for j in range(lo, hi)]
    assert len(indices) == len(set(indices))
    # one ascending, contiguous pass from index 0 to the end of the
    # 2,048-index chunk that holds the last panel (25,600)
    assert blocks[0][0] == 0
    assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
    assert blocks[-1][1] == (25600 // 2048 + 1) * 2048
    assert (hashlib.sha256(trace.values.tobytes()).hexdigest(),
            hashlib.sha256(trace.predictors.tobytes()).hexdigest()
            ) == _CAPUTO_25601_SHA256


# sha256 of values.tobytes() and predictors.tobytes() of the 3,073-node
# solve below, frozen from the same solver as _CAPUTO_25601_SHA256
_CAPUTO_3073_SHA256 = (
    "e39f6a4c1fd2790333e3951c911693edfedd6d79f6c81453805f06e32026e488",
    "2d9f7e1a10bcbe6b40d0dd981267808b48d48d0d9a0105cb46d1e520f30405b9",
)


@pytest.mark.parametrize("nodes,rhs_calls,digests", [
    (25601, 51_200, _CAPUTO_25601_SHA256),
    (3073, 6_144, _CAPUTO_3073_SHA256),
])
def test_caputo_bits_and_right_hand_side_calls_are_frozen(nodes, rhs_calls, digests):
    named = cf.get_problem("example1").problem(0.5, 2.0)
    calls = []

    def counted(t, y):
        calls.append(t)
        return named.rhs(t, y)

    trace = cf.solve_caputo_pc(dataclasses.replace(named, rhs=counted),
                               2.0 / (nodes - 1))
    panels = nodes - 1
    # slope 0, then per step its corrector and its slope, except the last
    # node's slope, which no step reads
    assert len(calls) == 1 + panels + (panels - 1) == rhs_calls
    assert (hashlib.sha256(trace.values.tobytes()).hexdigest(),
            hashlib.sha256(trace.predictors.tobytes()).hexdigest()) == digests


def test_caputo_solve_memory_is_bounded_per_node():
    # measured peaks: 2.63 MB at 25,601 nodes (2.76 MB when the solve
    # is the first to import numpy.fft) and 7.55 MB at 102,401, that is
    # about 65 bytes per node (values, predictors, and per 2,048-node
    # chunk one slope spectrum and two kernel transforms) and 0.9 MB
    # fixed, which holds the per-solve near-field views; views built per
    # node and not per leaf would add hundreds of bytes per node, and each
    # whole-grid float array 8
    problem = _ivp(lambda t, y: t * y, 1.0, 2.0, 0.5)
    nodes = 25601
    tracemalloc.start()
    try:
        cf.solve_caputo_pc(problem, 2.0 / (nodes - 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 72 * nodes + 2**20, peak


def test_caputo_rejects_oversized_grid_before_tables(monkeypatch):
    def no_coefficients(*args):
        raise AssertionError("coefficients generated")

    monkeypatch.setattr(cf.solvers, "coefficient_tables", no_coefficients)
    monkeypatch.setattr(cf.solvers, "_coefficient_block", no_coefficients)
    ceiling = cf.solvers.CAPUTO_MAX_NODES
    order = cf.Alpha(0.5)
    grid = cf.solvers.solver_grid("caputo", order, 1.0, 1 / (ceiling - 1))
    assert grid.node_count == ceiling
    with pytest.raises(GridError, match="Caputo"):
        cf.solvers.solver_grid("caputo", order, 1.0, 1 / ceiling)
    # 5,000,001 nodes: inside MAX_NODES, five times the ceiling on the
    # Caputo solver's per-node arrays and FFT kernels
    with pytest.raises(GridError, match="Caputo"):
        cf.solve_caputo_pc(_ivp(lambda t, y: y, 1.0, 2.0, 0.5), 4e-7)


def test_direct_reference_rejects_oversized_grid_before_tables(monkeypatch):
    def no_coefficients(*args):
        raise AssertionError("coefficients generated")

    monkeypatch.setattr(cf.solvers, "coefficient_tables", no_coefficients)
    ceiling = cf.solvers.DIRECT_MAX_NODES
    order = cf.Alpha(0.5)
    grid = cf.solvers.solver_grid("direct", order, 1.0, 1 / (ceiling - 1))
    assert grid.node_count == ceiling
    with pytest.raises(GridError, match="direct conformable solver"):
        cf.solvers.solver_grid("direct", order, 1.0, 1 / ceiling)
    # one node over: the O(n**2) reference refuses it, the fast solver's
    # grid takes it
    with pytest.raises(GridError, match="direct conformable solver"):
        cf.solve_conformable_pc_direct(_ivp(lambda t, y: y, 1.0, 1.0, 0.5), 1 / ceiling)
    assert cf.solvers.solver_grid("conformable", order, 1.0, 1 / ceiling).node_count \
        == ceiling + 1
    # the ceiling has its own key, but the trace is a conformable one
    monkeypatch.undo()
    trace = cf.solve_conformable_pc_direct(_ivp(lambda t, y: y, 1.0, 1.0, 0.5), 0.25)
    assert trace.method == "conformable"


def test_caputo_alpha_one_matches_classical_for_time_only_rhs():
    # with f independent of y both schemes are the cumulative trapezoid rule
    rhs = lambda t, y: math.cos(t)
    caputo = cf.solve_caputo_pc(_ivp(rhs, 0.0, 2.0, 1.0), 0.01)
    classical = cf.solve_classical_pc(_ivp(rhs, 0.0, 2.0, 1.0), 0.01)
    assert float(np.max(np.abs(caputo.values - classical.values))) < 1e-13



def _kilbas_saigo(t, a):
    """``sum c_k t**(k (1+a))``, ``c_0 = 1``, ``c_k = c_(k-1) Gamma((k-1)(1+a) + 2)
    / Gamma(k (1+a) + 1)``: the solution of ``D^a y = t y``, ``y(0) = 1``."""
    t, a = mp.mpf(t), mp.mpf(a)
    total = coefficient = mp.mpf(1)
    for k in itertools.count(1):
        coefficient *= mp.gamma((k - 1) * (1 + a) + 2) / mp.gamma(k * (1 + a) + 1)
        term = coefficient * t ** (k * (1 + a))
        total += term
        if term < mp.eps * total:
            return total


def _mittag_leffler(t, a):
    """``E_a(t**a) = sum t**(a k) / Gamma(a k + 1)``: the solution of
    ``D^a y = y``, ``y(0) = 1``."""
    t, a = mp.mpf(t), mp.mpf(a)
    total = mp.mpf(1)
    for k in itertools.count(1):
        term = t ** (a * k) / mp.gamma(a * k + 1)
        total += term
        if term < mp.eps * total:
            return total


def test_caputo_solution_series_reduce_to_exponentials_at_order_one():
    with mp.workdps(50):
        assert abs(_kilbas_saigo(2, 1) - mp.exp(2)) < mp.mpf(10) ** -45
        assert abs(_mittag_leffler(2, 1) - mp.exp(2)) < mp.mpf(10) ** -45


# the Caputo solutions at t = 2, a = 0.5, and the solver's endpoint errors at
# 1,001, 10,001 and 100,001 nodes
_CAPUTO_LADDERS = [
    ("example1", _kilbas_saigo, 39.98975208007449, (4.726e-2, 1.541e-3, 4.917e-5)),
    ("expkernel", _mittag_leffler, 14.44190819541496, (2.738e-3, 8.781e-5, 2.789e-6)),
]


@pytest.mark.parametrize("problem_id,series,exact,errors", _CAPUTO_LADDERS,
                         ids=[case[0] for case in _CAPUTO_LADDERS])
def test_caputo_errors_against_caputo_solutions(problem_id, series, exact, errors):
    # the order per decade of nodes rises towards 1 + a (Diethelm, Ford &
    # Freed, Numer. Algorithms 36, 2004): 1.487 and 1.496 on example1,
    # 1.494 and 1.498 on expkernel
    with mp.workdps(50):
        reference = float(series(2, 0.5))
    assert reference == pytest.approx(exact, rel=1e-15)
    problem = cf.get_problem(problem_id).problem(0.5, 2.0)
    got = [abs(cf.solve_caputo_pc(problem, 2 / panels).endpoint - reference)
           for panels in (1_000, 10_000, 100_000)]
    assert got == pytest.approx(errors, rel=1e-3)
    orders = [math.log10(coarse / fine) for coarse, fine in zip(got, got[1:])]
    assert all(1.48 < order < 1.5 for order in orders), orders


def test_caputo_solve_at_the_node_ceiling():
    # one solve of CAPUTO_MAX_NODES nodes: its endpoint error keeps the order
    # per decade from the 100,001-node level (1.499), and its predictors stay
    # within the oracle gap of the history sums taken with math.fsum, at
    # nodes in the first chunks, far out and next to the end
    nodes = cf.solvers.CAPUTO_MAX_NODES
    problem = cf.get_problem("example1").problem(0.5, 2.0)
    h = 2 / (nodes - 1)
    trace = cf.solve_caputo_pc(problem, h)
    assert trace.grid.node_count == nodes
    with mp.workdps(50):
        reference = float(_kilbas_saigo(2, 0.5))
    error = abs(trace.endpoint - reference)
    assert error == pytest.approx(1.559e-6, rel=1e-3)
    assert 1.48 < math.log10(_CAPUTO_LADDERS[0][3][-1] / error) < 1.5
    rect = cf.quadrature.coefficient_tables(trace.grid.panel_count, 0.5)[0]
    slopes = problem.rhs(trace.grid.nodes(), trace.values)
    scale = h**0.5 / math.gamma(1.5)
    for n in (2_049, 4_097, 131_073, 500_001, 777_777, 999_999):
        predicted = problem.y0 + scale * math.fsum(rect[n - 1::-1] * slopes[:n])
        assert abs(trace.predictors[n - 1] - predicted) <= _RECURSION_GAP * predicted


# ---------------------------------------------------------------- guards and plumbing


def test_blow_up_reports_step_index():
    problem = _ivp(lambda t, y: y, 1.0, 40.0, 1.0)
    with pytest.raises(BlowUpError) as info:
        cf.solve_classical_pc(problem, 0.5)
    assert info.value.step_index == 57
    assert "step 57" in str(info.value)
    assert info.value.t == 57 * 0.5


def test_conformable_blow_up_guard():
    problem = _ivp(lambda t, y: y, 1.0, 40.0, 1.0)
    for solver in (cf.solve_conformable_pc, cf.solve_conformable_pc_direct):
        with pytest.raises(BlowUpError) as info:
            solver(problem, 0.5)
        exc = info.value
        assert exc.step_index > 0
        assert exc.t == exc.step_index * 0.5
        assert abs(exc.last_value) <= cf.BLOWUP_LIMIT


def test_conformable_blow_up_past_first_block_reports_location():
    # y' = y crosses the limit at t = 27.6, step 5,527: inside the sixth block
    problem = _ivp(lambda t, y: y, 1.0, 40.0, 1.0)
    h = 0.005
    reports = []
    for solver in (cf.solve_conformable_pc, cf.solve_conformable_pc_direct):
        with pytest.raises(BlowUpError) as info:
            solver(problem, h)
        reports.append(info.value)
    fast, direct = reports
    assert fast.step_index > cf.core.BLOCK + 1
    assert (fast.step_index, fast.t) == (direct.step_index, direct.t)
    assert fast.t == fast.step_index * h
    # the two routes sum the history in a different order
    assert fast.last_value == pytest.approx(direct.last_value, rel=1e-13)
    # last_value is node step - 1 of this run, bit for bit
    trace = cf.solve_conformable_pc(
        _ivp(lambda t, y: y, 1.0, (fast.step_index - 1) * h, 1.0), h
    )
    assert fast.last_value == trace.endpoint


def test_caputo_blow_up_reports_location():
    # D^0.5 y = y^2, y(0) = 1 blows up in finite time
    problem = _ivp(lambda t, y: y * y, 1.0, 2.0, 0.5)
    with pytest.raises(BlowUpError) as info:
        cf.solve_caputo_pc(problem, 0.01)
    exc = info.value
    trace = cf.solve_caputo_pc(
        _ivp(lambda t, y: y * y, 1.0, (exc.step_index - 1) * 0.01, 0.5), 0.01
    )
    assert exc.t == exc.step_index * 0.01
    assert exc.last_value == trace.endpoint
    assert abs(exc.last_value) <= cf.BLOWUP_LIMIT < abs(exc.value)
    assert f"blew up at step {exc.step_index} " in str(exc)


def test_caputo_blow_up_past_first_leaf_reports_location():
    # at h = 1e-4 the first bad iterate comes long after the first FFT block
    square = lambda t, y: y * y
    h = 1e-4
    with pytest.raises(BlowUpError) as info:
        cf.solve_caputo_pc(_ivp(square, 1.0, 0.5, 0.5), h)
    exc = info.value
    step = exc.step_index
    assert step > 1024
    assert exc.t == step * h
    # the O(n) oracle first leaves the limit at the same step
    values, predictors = _abm_oracle(_ivp(square, 1.0, step * h, 0.5), h)
    last = max(abs(values[-1]), abs(predictors[-1]))
    assert np.max(np.abs(values[:-1])) <= cf.BLOWUP_LIMIT < last
    assert np.max(np.abs(predictors[:-1])) <= cf.BLOWUP_LIMIT
    # last_value is node step - 1 of this run; next to the blow-up the
    # oracle gap grows to 1.6e-12 relative
    trace = cf.solve_caputo_pc(_ivp(square, 1.0, (step - 1) * h, 0.5), h)
    assert exc.last_value == trace.endpoint
    assert exc.last_value == pytest.approx(values[-2], rel=1e-11)
    assert f"blew up at step {step} " in str(exc)


@pytest.mark.parametrize("node,t,last_value", [
    (1024, 0.6666666666666666, 1.5708848094489964),  # first step of leaf 1
    (2047, 1.3326822916666665, 4.713328125378457),  # last step of leaf 1
])
def test_caputo_blow_up_at_leaf_edges_reports_location(node, t, last_value):
    # the source jumps between nodes node - 1 and node, so the first
    # corrector pass at node leaves the limit; t and last_value are frozen
    # from the solver that stored each value as soon as it was accepted
    h = 2.0 / 3072
    edge = (node - 0.5) * h
    problem = _ivp(lambda s, y: 1e15 if s > edge else s * y, 1.0, 2.0, 0.5)
    with pytest.raises(BlowUpError) as info:
        cf.solve_caputo_pc(problem, h)
    exc = info.value
    assert (exc.step_index, exc.t, exc.last_value) == (node, t, last_value)
    assert abs(exc.value) > cf.BLOWUP_LIMIT


@pytest.mark.parametrize("y0, bad", [
    (1.0, math.nan),
    (1.0, math.inf),
    (1.0, -math.inf),
    # the corrector lands a few ulps past +-BLOWUP_LIMIT
    (cf.BLOWUP_LIMIT, 1.0),
    (-cf.BLOWUP_LIMIT, -1.0),
])
def test_blow_up_guard_parity(y0, bad, monkeypatch):
    # f is 0 before node 3, so every solver holds y0 until its step-3
    # corrector meets the bad slope; with conformable blocks of 2 steps,
    # step 3 opens a block, with blocks of 3 it closes one.  The classical
    # solver runs the same problem at order 1.
    h = 0.25
    rhs = lambda t, y: bad if t >= 3 * h else 0.0
    problem = _ivp(rhs, y0, 2.0, 0.5)
    runs = [(cf.solve_conformable_pc, problem),
            (cf.solve_conformable_pc_direct, problem),
            (cf.solve_caputo_pc, problem),
            (cf.solve_classical_pc,
             dataclasses.replace(problem, order=cf.Alpha(1.0)))]
    for block in (2, 3, 4096):
        monkeypatch.setattr(cf.core, "BLOCK", block)
        reports = []
        for solve, run in runs:
            with pytest.raises(BlowUpError) as info:
                solve(run, h)
            exc = info.value
            assert not -cf.BLOWUP_LIMIT <= exc.value <= cf.BLOWUP_LIMIT
            reports.append((exc.step_index, exc.t, exc.last_value))
        assert reports == [(3, 0.75, y0)] * 4, block


def test_classical_predictor_guard_reports_step_and_last_value():
    # the slope jumps to 4e12 at t = 2h: the step-2 corrector averages it
    # into 5e11, and the step-3 Euler predictor 5e11 + h * 4e12 leaves the
    # limit before any corrector runs
    h = 0.25
    problem = _ivp(lambda t, y: 4e12 if t >= 2 * h else 0.0, 0.0, 2.0, 1.0)
    with pytest.raises(BlowUpError) as info:
        cf.solve_classical_pc(problem, h)
    exc = info.value
    assert (exc.step_index, exc.t, exc.last_value, exc.value) == (
        3, 0.75, 5e11, 1.5e12)


@pytest.mark.parametrize("y0", [cf.BLOWUP_LIMIT, -cf.BLOWUP_LIMIT])
def test_iterates_at_blow_up_limit_are_accepted(y0):
    zero = lambda t, y: 0.0
    traces = [
        cf.solve_conformable_pc(_ivp(zero, y0, 2.0, 0.5), 0.25),
        cf.solve_conformable_pc_direct(_ivp(zero, y0, 2.0, 0.5), 0.25),
        cf.solve_caputo_pc(_ivp(zero, y0, 2.0, 0.5), 0.25),
        cf.solve_classical_pc(_ivp(zero, y0, 2.0, 1.0), 0.25),
    ]
    for trace in traces:
        assert np.all(trace.values == y0) and np.all(trace.predictors == y0)


def test_problem_validation():
    with pytest.raises(DomainError):
        _ivp(lambda t, y: y, 1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        _ivp(lambda t, y: y, math.nan, 1.0, 0.5)
    with pytest.raises(DomainError):
        _ivp(lambda t, y: y, 1.0, -2.0, 0.5)
    # a float order is coerced to Alpha, and refused out of range
    problem = cf.InitialValueProblem(lambda t, y: y, 1.0, 1.0, 0.5)
    assert problem.order == cf.Alpha(0.5)
    assert cf.solve_caputo_pc(problem, 0.25).values.shape == (5,)
    with pytest.raises(AlphaRangeError):
        cf.InitialValueProblem(lambda t, y: y, 1.0, 1.0, 2.0)


def test_trace_validation():
    grid = cf.make_grid(1.0, 0.5)
    with pytest.raises(ValueError):
        cf.SolutionTrace(
            grid=grid, values=np.zeros(5), predictors=np.zeros(2), method="x"
        )
    with pytest.raises(ValueError):
        cf.SolutionTrace(
            grid=grid, values=np.array([0.0, math.inf, 0.0]),
            predictors=np.zeros(2), method="x",
        )
    with pytest.raises(ValueError):
        cf.SolutionTrace(
            grid=grid, values=np.zeros(3), predictors=np.zeros(5), method="x"
        )
    with pytest.raises(ValueError):
        cf.SolutionTrace(grid=grid, values=np.zeros(3), predictors=None, method="x")


def test_trace_check_builds_no_grid_length_array():
    nodes = 10**6
    grid = cf.UniformGrid(1.0 / (nodes - 1), nodes)
    values, predictors = np.ones(nodes), np.ones(nodes - 1)
    tracemalloc.start()
    try:
        cf.SolutionTrace(grid=grid, values=values, predictors=predictors,
                         method="x")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an isfinite mask alone would take 10**6 bytes
    assert peak <= 2**14, peak
    for bad in (math.nan, math.inf, -math.inf):
        for at in (0, nodes // 2, nodes - 1):
            values[at] = bad
            with pytest.raises(ValueError, match="non-finite"):
                cf.SolutionTrace(grid=grid, values=values,
                                 predictors=predictors, method="x")
            values[at] = 1.0


def test_traces_are_deterministic():
    problem = _ivp(lambda t, y: t * y, 1.0, 2.0, 0.5)
    first = cf.solve_conformable_pc(problem, 0.01)
    second = cf.solve_conformable_pc(problem, 0.01)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.predictors, second.predictors)


_EXAMPLE1 = cf.get_problem("example1")

# every solver on example1 over [0, 2], as a function of its step
_STEP_RUNS = {
    "classical": lambda h: cf.solve_classical_pc(_EXAMPLE1.problem(1.0, 2.0), h),
    "conformable": lambda h: cf.solve_conformable_pc(_EXAMPLE1.problem(0.5, 2.0), h),
    "direct": lambda h: cf.solve_conformable_pc_direct(
        _EXAMPLE1.problem(0.5, 2.0), h),
    "caputo": lambda h: cf.solve_caputo_pc(_EXAMPLE1.problem(0.5, 2.0), h),
    **{f"named-{method}": lambda h, method=method: cf.solve_named(
        _EXAMPLE1, method, 1.0 if method == "classical" else 0.5, h, 2.0)
       for method in ("classical", "conformable", "caputo")},
}


@pytest.mark.parametrize("run", _STEP_RUNS.values(), ids=_STEP_RUNS)
def test_solvers_step_with_the_grid_step(run):
    # np.float32(0.125) holds the float 0.125; a solver that steps with
    # its grid's float step gives the same bits for both
    narrow, wide = run(np.float32(0.125)), run(0.125)
    assert narrow.values.tobytes() == wide.values.tobytes()
    assert narrow.predictors.tobytes() == wide.predictors.tobytes()


def test_trace_metadata():
    problem = _ivp(lambda t, y: t * y, 1.0, 2.0, 0.5)
    trace = cf.solve_conformable_pc(problem, 0.01)
    assert trace.method == "conformable"
    assert trace.values[0] == problem.y0
    assert len(trace.predictors) == trace.grid.node_count - 1
