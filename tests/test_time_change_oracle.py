"""The conformable solver against an independent classical-ODE oracle.

With ``s = t**a / a`` the conformable problem ``T_a y = f(t, y)`` becomes
the classical ODE ``dY/ds = f((a*s)**(1/a), Y)`` (Khalil et al., J.
Comput. Appl. Math. 264, 2014), which scipy's DOP853 solves to about
1e-13.  That gives a reference for right-hand sides with no closed form.
Bands and bounds are frozen from values measured on a 2-core x86 machine
(Python 3.11, numpy 2.4, scipy DOP853).
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import confrac as cf
from confrac.problems import halving_orders

#: right-hand sides with no closed form, with their initial values; neither
#: vanishes at (0, y0), unlike example1's ``t*y``
_NO_CLOSED_FORM = {
    "riccati": (lambda t, y: math.cos(t) - y * y / 2.0, 0.2),
    "cubic": (lambda t, y: -y - y**3, 1.0),
}

#: order of the last of 6 halvings from h0 = 0.04 on [0, 2], as measured
_LAST_ORDER = {
    ("riccati", 0.3): 0.791, ("riccati", 0.5): 1.036,
    ("riccati", 0.7): 1.351, ("riccati", 0.9): 2.046,
    ("cubic", 0.3): 0.746, ("cubic", 0.5): 1.104,
    ("cubic", 0.7): 1.508, ("cubic", 0.9): 1.908,
}
_ORDER_BAND = 0.05

_HORIZON = 2.0


def _ivp(rhs, y0, a):
    return cf.InitialValueProblem(rhs=rhs, y0=y0, horizon=_HORIZON,
                                  order=cf.Alpha(a))


def _oracle(rhs, y0, a):
    """y(horizon) of ``T_a y = rhs(t, y)``, ``y(0) = y0``, in the time ``s``."""
    solution = solve_ivp(lambda s, y: [rhs((a * s) ** (1.0 / a), y[0])],
                         (0.0, _HORIZON**a / a), [y0], method="DOP853",
                         rtol=1e-13, atol=1e-15)
    assert solution.success, solution.message
    return float(solution.y[0, -1])


@pytest.mark.parametrize("a", [0.3, 0.5, 0.9])
def test_oracle_matches_a_closed_form(a):
    # measured relative gaps: 3.0e-14, 1.5e-15, 3.6e-13
    named = cf.get_problem("example1")
    exact = named.exact(_HORIZON, a)
    assert abs(_oracle(lambda t, y: t * y, 1.0, a) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("name,a", sorted(_LAST_ORDER))
def test_halving_converges_to_the_oracle(name, a):
    rhs, y0 = _NO_CLOSED_FORM[name]
    reference = _oracle(rhs, y0, a)
    errors = [abs(cf.solve_conformable_pc(_ivp(rhs, y0, a), 0.04 / 2**k).endpoint
                  - reference)
              for k in range(7)]
    assert all(coarse > fine for coarse, fine in zip(errors, errors[1:])), errors
    # when f(0, y0) != 0 the observed order falls below 2 as a drops
    assert halving_orders(errors)[-1] == pytest.approx(_LAST_ORDER[name, a],
                                                       abs=_ORDER_BAND)


@pytest.mark.parametrize("name,a", sorted(_LAST_ORDER))
def test_accumulator_matches_direct_without_closed_form(name, a):
    # criterion 8's bound; measured at a = 0.3: 6.9e-14 (cubic) and 1.5e-15
    # (riccati)
    problem = _ivp(*_NO_CLOSED_FORM[name], a)
    fast = cf.solve_conformable_pc(problem, 1e-3)
    slow = cf.solve_conformable_pc_direct(problem, 1e-3)
    rel = np.abs(fast.values - slow.values) / np.maximum(np.abs(slow.values), 1e-30)
    assert float(rel.max()) <= 1e-12


def test_running_sums_stay_second_order_at_a_million_nodes():
    # err(2e-5) / err(2e-6) is 100 for clean O(h**2) error; rounding that
    # builds up over 10**6 steps would pull it down.  Measured 98.8 at
    # a = 0.5 (98.5 at 0.3, 96.7 at 0.9)
    named = cf.get_problem("example1")
    errors = []
    for h in (2e-5, 2e-6):
        trace = cf.solve_conformable_pc(named.problem(0.5, _HORIZON), h)
        t = trace.grid.node(trace.grid.node_count - 1)
        errors.append(abs(trace.endpoint - named.exact(t, 0.5)))
    assert trace.grid.node_count == 1_000_001
    assert 96.0 <= errors[0] / errors[1] <= 101.0


def test_running_sums_hold_their_order_at_a_million_nodes_without_closed_form():
    # as above, on a right-hand side with no closed form: with f(0, y0) != 0
    # the order at a = 0.5 is about 1, so err(2e-5) / err(2e-6) is about
    # 10.  Measured 10.02 (errors 2.078e-7 and 2.074e-8)
    rhs, y0 = _NO_CLOSED_FORM["riccati"]
    reference = _oracle(rhs, y0, 0.5)
    errors = []
    for h in (2e-5, 2e-6):
        trace = cf.solve_conformable_pc(_ivp(rhs, y0, 0.5), h)
        errors.append(abs(trace.endpoint - reference))
    assert trace.grid.node_count == 1_000_001
    assert 9.8 <= errors[0] / errors[1] <= 10.2
