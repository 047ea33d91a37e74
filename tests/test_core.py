import math

import numpy as np
import pytest

import confrac as cf
from confrac.core import MIN_ORDER, _node_blocks, as_alpha
from confrac.errors import AlphaRangeError, DomainError, GridError


@pytest.mark.parametrize("value", [MIN_ORDER, 0.3, 0.5, 1.0])
def test_make_alpha_accepts_valid_orders(value):
    assert cf.Alpha(value).value == value


@pytest.mark.parametrize(
    "bad", [0.0, -0.2, 1.0000001, 2.0, float("nan"), float("inf"), -math.inf,
            math.nextafter(MIN_ORDER, 0.0)]
)
def test_make_alpha_rejects_out_of_range(bad):
    with pytest.raises(AlphaRangeError):
        cf.Alpha(bad)


def test_as_alpha_passes_instances_through():
    a = cf.Alpha(0.5)
    assert as_alpha(a) is a
    assert as_alpha(0.25).value == 0.25


def test_alpha_is_immutable():
    a = cf.Alpha(0.5)
    with pytest.raises(Exception):
        a.value = 0.7


# ---------------------------------------------------------------- grids


def test_make_grid_reference_configuration():
    grid = cf.make_grid(2.0, 0.001)
    assert grid.node_count == 2001
    assert grid.panel_count == 2000
    assert grid.node(grid.node_count - 1) == pytest.approx(2.0, abs=1e-12)


def test_make_grid_three_nodes():
    grid = cf.make_grid(1.0, 0.5)
    assert grid.nodes().tolist() == [0.0, 0.5, 1.0]


def test_make_grid_rejects_non_commensurate_step():
    with pytest.raises(GridError):
        cf.make_grid(1.0, 0.3)


@pytest.mark.parametrize(
    "tau,h",
    [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.5), (0.05, 0.1),
     # more than MAX_NODES nodes, including a step whose ratio overflows
     (1.0, 1e-7), (2.0, 1e-300), (2.0, 5e-324)],
)
def test_make_grid_rejects_degenerate_inputs(tau, h):
    with pytest.raises(GridError):
        cf.make_grid(tau, h)


# the last, 2**-1100, is positive as an x87 long double but 0.0 as a float
@pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan,
                                  np.ldexp(np.longdouble(1.0), -1100)])
def test_uniform_grid_rejects_a_step_that_is_not_positive_and_finite(step):
    with pytest.raises(GridError, match="step must be positive and finite"):
        cf.UniformGrid(step, 3)
    with pytest.raises(GridError, match="step must be positive and finite"):
        cf.make_grid(1.0, step)


@pytest.mark.parametrize("node_count", [3.5, 2.0, "3", None])
def test_uniform_grid_rejects_a_node_count_that_is_not_an_integer(node_count):
    with pytest.raises(GridError, match="node count must be an integer"):
        cf.UniformGrid(0.1, node_count)


def test_uniform_grid_takes_numpy_integer_node_counts():
    grid = cf.UniformGrid(0.1, np.int64(3))
    assert grid == cf.UniformGrid(0.1, 3)
    assert type(grid.node_count) is int and len(grid.nodes()) == 3


@pytest.mark.parametrize("step,node_count", [(np.float32(0.1), 5), (True, 3)])
def test_uniform_grid_stores_its_step_as_a_float(step, node_count):
    grid = cf.UniformGrid(step, node_count)
    assert type(grid.step) is float and grid.step == float(step)
    times = np.concatenate([block for _, block in _node_blocks(grid)])
    for j in range(node_count):
        assert grid.node(j).hex() == grid.nodes()[j].hex() == times[j].hex()


def test_halving_preserves_commensurability():
    for level in range(6):
        grid = cf.make_grid(2.0, 0.04 / 2**level)
        assert grid.node(grid.node_count - 1) == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------- derivative


def test_derivative_power_rule():
    # d/dt^(0.5) of t^3 at t=4 is 3 * 4^2.5 = 96
    got = cf.conformable_derivative_numeric(lambda t: t**3, 4.0, 0.5)
    assert got == pytest.approx(96.0, abs=1e-6)


def test_derivative_of_constant_vanishes():
    for a in (0.2, 0.8, 1.0):
        got = cf.conformable_derivative_numeric(lambda t: 7.5, 1.3, a)
        assert abs(got) < 1e-9


def test_derivative_kernel_eigenfunction():
    # exp(t**a / a) reproduces itself under the fractional derivative
    g = lambda t: math.exp(t**0.5 / 0.5)
    got = cf.conformable_derivative_numeric(g, 1.0, 0.5)
    assert got == pytest.approx(g(1.0), abs=1e-6)


@pytest.mark.parametrize("t", [0.0, -1.0, math.inf])
def test_derivative_requires_positive_t(t):
    with pytest.raises(DomainError, match="finite t > 0"):
        cf.conformable_derivative_numeric(lambda s: s, t, 0.5)


def test_derivative_rejects_bad_half_width():
    with pytest.raises(DomainError):
        cf.conformable_derivative_numeric(lambda s: s, 1.0, 0.5, delta=0.0)
    with pytest.raises(DomainError):
        # half-width reaching past the origin would sample t <= 0
        cf.conformable_derivative_numeric(lambda s: s, 0.5, 0.5, delta=0.6)


def test_derivative_is_linear_in_g():
    f = lambda t: math.sin(t)
    g = lambda t: t**2
    # a wide step keeps the quotient from amplifying evaluation rounding,
    # which would mask the (step-independent) linearity being checked
    t, a, delta = 0.8, 0.6, 1e-3
    combined = cf.conformable_derivative_numeric(
        lambda s: 2.0 * f(s) - 3.0 * g(s), t, a, delta
    )
    parts = 2.0 * cf.conformable_derivative_numeric(f, t, a, delta) - (
        3.0 * cf.conformable_derivative_numeric(g, t, a, delta)
    )
    assert combined == pytest.approx(parts, rel=1e-11, abs=1e-11)


def test_derivative_quotient_is_second_order_in_delta():
    g = lambda t: math.exp(t**0.5 / 0.5)
    exact = g(1.0)
    e_coarse = abs(cf.conformable_derivative_numeric(g, 1.0, 0.5, 1e-2) - exact)
    e_fine = abs(cf.conformable_derivative_numeric(g, 1.0, 0.5, 1e-3) - exact)
    assert 80.0 < e_coarse / e_fine < 120.0


# ---------------------------------------------------------------- integral


def test_integral_of_constant_is_exact():
    got = cf.conformable_integral_numeric(lambda x: 1.0, 1.0, 0.5, 9)
    assert got == pytest.approx(2.0, rel=1e-13)


def test_integral_of_identity_classical():
    got = cf.conformable_integral_numeric(lambda x: x, 1.0, 1.0, 9)
    assert got == pytest.approx(0.5, rel=1e-13)


def test_integral_of_identity_fractional():
    got = cf.conformable_integral_numeric(lambda x: x, 1.0, 0.5, 9)
    assert got == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_integral_rejects_negative_panel_count():
    with pytest.raises(ValueError):
        cf.conformable_integral_numeric(lambda x: x, 1.0, 0.5, -1)


def test_integral_rejects_non_finite_samples():
    bad = lambda x: math.inf if x == 0.0 else 1.0
    with pytest.raises(DomainError, match="non-finite sample"):
        cf.conformable_integral_numeric(bad, 1.0, 0.5, 4)
    for samples in ([1.0, math.inf], [1.0, math.nan, 2.0], [-math.inf, 1.0]):
        with pytest.raises(DomainError, match="non-finite sample"):
            cf.integrate_trapezoid(samples, 0.1, 0.5)
