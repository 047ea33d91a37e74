"""Built-in example problems, error metrics, and convergence-order probes.

Each :class:`NamedProblem` bundles a right-hand-side family parameterised
by the fractional order, its closed-form solution where one exists, and an
optional domain limit (a horizon beyond which the exact solution blows
up).  ``problem(alpha, horizon)`` instantiates a concrete
:class:`~confrac.solvers.InitialValueProblem`; the domain guard runs there,
before any solver step executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (GRID_RTOL, Alpha, AlphaLike, UniformGrid, _node_blocks,
                   as_alpha, as_count)
from .errors import DomainError, GridError, OrderUndefinedError
from .solvers import (
    InitialValueProblem,
    SolutionTrace,
    solve_caputo_pc,
    solve_classical_pc,
    solve_conformable_pc,
    solver_grid,
)

#: endpoint errors at or below this are rounding-floor noise; no order exists
DEGENERATE_ERROR_FLOOR = 1e-14

#: denominator floor for relative errors (exact solutions may vanish)
REL_ERROR_FLOOR = 1e-300

#: solver identifiers accepted by :func:`solve_named`
METHODS = ("classical", "conformable", "caputo")


def example2_domain_limit(alpha: AlphaLike) -> float:
    """Horizon (a*pi/2)**(1/a) where tan(t**a / a) first diverges."""
    a = as_alpha(alpha).value
    return (a * math.pi / 2.0) ** (1.0 / a)


def _closed_form(
    text: str,
    formula: Callable[[float, float], float],
    limit: Callable[[float], float] | None = None,
) -> Callable[[float, AlphaLike], float]:
    """The checked ``exact(t, alpha)`` of the closed form ``formula(t, a)``.

    ``exact`` refuses a negative, infinite or NaN ``t``, and ``t >= limit(a)``
    when ``limit`` is given; a value past the float range raises
    :class:`DomainError` naming ``text``, never ``OverflowError``.
    """

    def exact(t: float, alpha: AlphaLike) -> float:
        a = as_alpha(alpha).value
        t = float(t)
        if not 0.0 <= t < math.inf:  # False for NaN as well
            raise DomainError(
                f"exact solutions are defined for finite t >= 0, got {t!r}"
            )
        if limit is not None and t >= (edge := limit(a)):
            raise DomainError(
                f"t = {t!r} lies at or beyond the asymptote t = {edge:.6g}"
            )
        try:
            return formula(t, a)
        except OverflowError:
            raise DomainError(f"{text} overflows at t = {t!r}, order {a!r}") from None

    return exact


@dataclass(frozen=True)
class NamedProblem:
    """A registry entry: right-hand-side family plus metadata.

    ``family(t, y, a)`` is the right-hand side with the fractional order
    exposed; :meth:`problem` closes it over a concrete order.  ``exact``
    maps (t, alpha) to the closed-form solution when one is known, and
    ``domain_limit`` maps alpha to the supremum of admissible horizons.
    """

    id: str
    description: str
    equation: str
    solution: str
    y0: float
    family: Callable[[float, float, float], float]
    exact: Callable[[float, AlphaLike], float] | None = None
    domain_limit: Callable[[AlphaLike], float] | None = None
    domain_note: str | None = None

    def default_horizon(self, alpha: AlphaLike) -> float:
        """Horizon used when the caller supplies none.

        Problems without a domain limit default to 2; limited problems
        default to 90% of the limit floored to one significant digit (1/2
        at order 0.5, 1 from 0.7 to 1): away from the asymptote, and a
        whole number of round steps.
        """
        if self.domain_limit is None:
            return 2.0
        # 17 significant digits read back as this float, so their first
        # digit alone reads back as a float no larger: 0.07, not 7 * 0.01
        digits, exponent = f"{0.9 * self.domain_limit(alpha):.16e}".split("e")
        return float(f"{digits[0]}e{exponent}")

    def _checked_horizon(self, alpha: Alpha, horizon: float | None) -> float:
        """The horizon, refused unless it lies below the domain limit by more
        than ``GRID_RTOL * horizon``, the most by which ``make_grid`` lets the
        last node pass the horizon; so every grid ends below the limit (both
        subtractions are exact by Sterbenz's lemma)."""
        if horizon is None:
            horizon = self.default_horizon(alpha)
        horizon = float(horizon)
        if self.domain_limit is not None:
            limit = self.domain_limit(alpha)
            if limit - horizon <= GRID_RTOL * horizon:
                raise DomainError(
                    f"horizon {horizon!r} is not below the domain limit "
                    f"{limit!r} of problem {self.id!r} by more than the "
                    f"grid's relative slack {GRID_RTOL:g}"
                )
        return horizon

    def problem(
        self, alpha: AlphaLike, horizon: float | None = None
    ) -> InitialValueProblem:
        """Concrete problem at the given order and horizon, for any solver."""
        alpha = as_alpha(alpha)
        horizon = self._checked_horizon(alpha, horizon)
        a = alpha.value
        family = self.family
        return InitialValueProblem(
            rhs=lambda t, y: family(t, y, a),
            y0=self.y0,
            horizon=horizon,
            order=alpha,
        )

    # the same method under a second name: benchmarks/traced.py wraps it
    # to time the problem builds of Caputo runs apart from the others
    caputo_problem = problem


_REGISTRY: tuple[NamedProblem, ...] = (
    NamedProblem(
        id="expkernel",
        description="growth matched to the exponential kernel",
        equation="T_a y = y",
        solution="y(t) = exp(t^a/a)",
        y0=1.0,
        family=lambda t, y, a: y,
        exact=_closed_form("exp(t**a / a)", lambda t, a: math.exp(t**a / a)),
    ),
    NamedProblem(
        id="example1",
        description="linearly forced growth",
        equation="T_a y = t*y",
        solution="y(t) = exp(t^(a+1)/(a+1))",
        y0=1.0,
        family=lambda t, y, a: t * y,
        exact=_closed_form("exp(t**(a+1) / (a+1))",
                           lambda t, a: math.exp(t ** (a + 1.0) / (a + 1.0))),
    ),
    NamedProblem(
        id="example2",
        description="tangent growth with a vertical asymptote",
        equation="T_a y = 1 + y^2",
        solution="y(t) = tan(t^a/a)",
        y0=0.0,
        family=lambda t, y, a: 1.0 + y * y,
        exact=_closed_form("tan(t**a / a)", lambda t, a: math.tan(t**a / a),
                           example2_domain_limit),
        domain_limit=example2_domain_limit,
        domain_note="domain limit (a*pi/2)^(1/a)",
    ),
    NamedProblem(
        id="example3",
        description="quadratic decay",
        equation="T_a y = -a*y^2",
        solution="y(t) = 1/(1 + t^a)",
        y0=1.0,
        family=lambda t, y, a: -a * y * y,
        exact=_closed_form("1 / (1 + t**a)", lambda t, a: 1.0 / (1.0 + t**a)),
    ),
)


def builtin_problems() -> tuple[NamedProblem, ...]:
    """The four built-in problems, in registry order."""
    return _REGISTRY


def get_problem(problem_id: str) -> NamedProblem:
    """Look a built-in problem up by id."""
    for named in _REGISTRY:
        if named.id == problem_id:
            return named
    known = ", ".join(p.id for p in _REGISTRY)
    raise ValueError(f"unknown problem {problem_id!r}; available: {known}")


def solve_named(
    named: NamedProblem,
    method: str,
    alpha: AlphaLike,
    h: float,
    horizon: float | None = None,
) -> SolutionTrace:
    """Dispatch one solver run on a registry problem.

    The run's grid is checked by :func:`method_grid` first, so a method,
    order, horizon or node count it rejects fails before any table is
    built or step taken.
    """
    alpha = as_alpha(alpha)
    method_grid(named, method, alpha, horizon, h)
    if method == "classical":
        return solve_classical_pc(named.problem(alpha, horizon), h)
    if method == "conformable":
        return solve_conformable_pc(named.problem(alpha, horizon), h)
    return solve_caputo_pc(named.caputo_problem(alpha, horizon), h)


def method_grid(
    named: NamedProblem,
    method: str,
    alpha: AlphaLike,
    horizon: float | None,
    h: float,
) -> UniformGrid:
    """The grid ``solve_named`` would step ``method`` over, built without solving.

    Rejects an unknown method, then a horizon that does not sit below the
    problem's domain limit by more than the grid's slack, then the grid
    and order checks of the method's solver
    (:func:`~confrac.solvers.solver_grid`), so callers can check all of
    their runs before the first one starts.
    """
    if method not in METHODS:
        raise ValueError(
            f"unknown method {method!r}; choose from {', '.join(METHODS)}"
        )
    alpha = as_alpha(alpha)
    return solver_grid(method, alpha, named._checked_horizon(alpha, horizon), h)


def _exact_column(exact, alpha: Alpha, grid: UniformGrid) -> np.ndarray:
    """The closed form at every node of ``grid``.

    One ``exact`` call per node, on node times made one block at a time
    (:func:`_node_blocks`); the result is the only array that grows with
    the grid.
    """
    samples = (exact(t, alpha) for _, times in _node_blocks(grid)
               for t in times.tolist())
    return np.fromiter(samples, float, grid.node_count)


@dataclass(frozen=True)
class ErrorReport:
    """Absolute/relative error summary of one trace against an exact solution."""

    max_abs_error: float
    endpoint_abs_error: float
    endpoint_rel_error: float


def error_report(
    trace: SolutionTrace,
    exact: Callable[[float, AlphaLike], float],
    alpha: AlphaLike,
) -> ErrorReport:
    """Compare a trace with an exact solution sampled on its grid.

    The endpoint relative error divides by |exact| at the final node,
    floored at ``REL_ERROR_FLOOR`` so exact zeros cannot blow the ratio up.
    """
    reference = _exact_column(exact, as_alpha(alpha), trace.grid)
    abs_err = np.abs(trace.values - reference)
    denom = max(abs(float(reference[-1])), REL_ERROR_FLOOR)
    return ErrorReport(
        max_abs_error=float(abs_err.max()),
        endpoint_abs_error=float(abs_err[-1]),
        endpoint_rel_error=float(abs_err[-1]) / denom,
    )


def refinement_errors(
    named: NamedProblem,
    method: str,
    alpha: AlphaLike,
    tau: float | None,
    h0: float,
    levels: int,
) -> list[tuple[float, float]]:
    """Endpoint absolute errors at steps h0, h0/2, ..., h0/2**(levels-1).

    Returns (h, error) pairs in refinement order.  Halving keeps every
    refined grid commensurate whenever the first one is.  The finest grid
    is built first (:func:`method_grid`), so a ladder that ends past the
    method's node ceiling is rejected before any level is solved.
    """
    levels = as_count(levels, "levels", 2)
    if named.exact is None:
        raise ValueError(f"problem {named.id!r} has no exact solution")
    alpha = as_alpha(alpha)
    # ldexp(h0, -k) is h0 / 2**k, without overflowing 2.0**k for huge k
    finest = math.ldexp(h0, 1 - levels)
    if not finest > 0.0:  # h0 not positive, or halved below the float range
        raise GridError(
            f"{levels} levels of halving leave no positive step from h0 = {h0!r}"
        )
    method_grid(named, method, alpha, tau, finest)
    pairs = []
    for level in range(levels):
        h = math.ldexp(h0, -level)
        trace = solve_named(named, method, alpha, h, tau)
        endpoint_t = trace.grid.node(trace.grid.node_count - 1)
        err = abs(trace.endpoint - named.exact(endpoint_t, alpha))
        # freed before the next, twice as long, level is solved
        del trace
        pairs.append((h, err))
    return pairs


def halving_orders(errors: Sequence[float]) -> list[float | None]:
    """Observed orders ``log2(e_i / e_(i+1))`` between successive errors.

    An entry is ``None`` where either error sits at or below
    ``DEGENERATE_ERROR_FLOOR``: rounding noise has no order to measure.
    """
    return [
        None
        if coarse <= DEGENERATE_ERROR_FLOOR or fine <= DEGENERATE_ERROR_FLOOR
        else math.log2(coarse / fine)
        for coarse, fine in zip(errors, errors[1:])
    ]


def empirical_order(
    named: NamedProblem,
    method: str,
    alpha: AlphaLike,
    tau: float | None,
    h0: float,
    levels: int,
) -> list[float]:
    """Observed orders p_i = log2(e_i / e_{i+1}) under step halving.

    Raises :class:`OrderUndefinedError` when any endpoint error sits at or
    below ``DEGENERATE_ERROR_FLOOR`` -- schemes that integrate a problem
    exactly leave nothing but rounding noise to measure.
    """
    pairs = refinement_errors(named, method, alpha, tau, h0, levels)
    errors = [err for _, err in pairs]
    orders = halving_orders(errors)
    if None in orders:
        raise OrderUndefinedError(
            f"endpoint errors reached the rounding floor "
            f"({min(errors):.3g}); order is undefined"
        )
    return orders
