"""Order/grid value types and numeric conformable operators.

For a differentiable function g and order ``a`` in [1e-9, 1], the conformable
derivative at t > 0 equals ``t**(1 - a) * g'(t)``, and the conformable
integral over [0, tau] is ``integral_0^tau x**(a - 1) g(x) dx``.  Both are
realised numerically here: the derivative through a symmetric difference
quotient, the integral through product-trapezoid quadrature on a uniform
grid (see :mod:`confrac.quadrature`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import AlphaRangeError, DomainError, GridError

#: a real-valued function of one real variable
ScalarFunction = Callable[[float], float]

#: relative slack when deciding whether a step size divides the horizon
GRID_RTOL = 1e-9

#: largest grid make_grid builds; a conformable solve holds 16 bytes per
#: node, and the Caputo solver and the direct conformable reference take at
#: most solvers.CAPUTO_MAX_NODES and solvers.DIRECT_MAX_NODES
MAX_NODES = 10**7

#: smallest order Alpha accepts: below it the solves' errors pass twice
#: those at a = 0.5 (measured on example1 at h = 1e-3: 4.23e-6 at 1e-9,
#: 3.37e-5 at 3e-10, against 5.68e-6 at a = 0.5)
MIN_ORDER = 1e-9


@dataclass(frozen=True)
class Alpha:
    """Fractional order constrained to the interval [MIN_ORDER, 1]."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not MIN_ORDER <= v <= 1.0:  # comparison is False for NaN as well
            raise AlphaRangeError(self.value)
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


AlphaLike = Union[Alpha, float]


def as_alpha(alpha: AlphaLike) -> Alpha:
    """Coerce a plain float to :class:`Alpha`; instances pass through."""
    return alpha if isinstance(alpha, Alpha) else Alpha(alpha)


@dataclass(frozen=True)
class UniformGrid:
    """Nodes ``t_j = j * step`` for ``j = 0 .. node_count - 1``.

    Holds at most ``MAX_NODES`` nodes, a whole number of them (any integer
    ``operator.index`` accepts); the step is positive and finite.
    """

    step: float
    node_count: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "node_count", operator.index(self.node_count))
        except TypeError:
            raise GridError(
                f"node count must be an integer, got {self.node_count!r}"
            ) from None
        if self.node_count < 2:
            raise GridError(f"grid needs at least two nodes, got {self.node_count}")
        if self.node_count > MAX_NODES:
            raise GridError(
                f"grid holds at most {MAX_NODES} nodes, got {self.node_count}"
            )
        if not 0.0 < self.step < math.inf:
            raise GridError(f"step must be positive and finite, got {self.step!r}")

    @property
    def panel_count(self) -> int:
        return self.node_count - 1

    def node(self, j: int) -> float:
        return j * self.step

    def nodes(self) -> np.ndarray:
        # scaled in place: one array, with the bits of ``j * step``
        nodes = np.arange(self.node_count, dtype=float)
        nodes *= self.step
        return nodes


def make_grid(tau: float, h: float) -> UniformGrid:
    """Build the uniform grid covering [0, tau] with step h.

    Raises :class:`GridError` unless h divides tau to within a relative
    slack of ``GRID_RTOL`` (an integer panel count must reproduce tau), or
    when the grid would have more than ``MAX_NODES`` nodes.
    """
    tau = float(tau)
    h = float(h)
    if not tau > 0.0:
        raise GridError(f"horizon must be positive, got {tau!r}")
    if not h > 0.0:
        raise GridError(f"step must be positive, got {h!r}")
    ratio = tau / h
    # round() to at most MAX_NODES - 1 panels; also false for inf and NaN
    if not ratio < MAX_NODES - 0.5:
        raise GridError(f"step {h!r} gives more than {MAX_NODES} nodes on [0, {tau!r}]")
    panels = round(ratio)
    if panels < 1 or abs(panels * h - tau) > GRID_RTOL * tau:
        raise GridError(
            f"step {h!r} does not divide horizon {tau!r} into a whole "
            f"number of panels"
        )
    return UniformGrid(step=h, node_count=panels + 1)


def conformable_derivative_numeric(
    g: ScalarFunction,
    t: float,
    alpha: AlphaLike,
    delta: float | None = None,
) -> float:
    """Approximate the conformable derivative of ``g`` at ``t > 0``.

    Uses ``t**(1 - a)`` times the symmetric difference quotient with
    half-width ``delta`` (default ``1e-6 * max(1, |t|)``), which carries the
    usual O(delta**2) truncation error wherever g is three times
    differentiable.
    """
    a = as_alpha(alpha).value
    t = float(t)
    if not 0.0 < t < math.inf:
        raise DomainError(f"conformable derivative needs finite t > 0, got {t!r}")
    if delta is None:
        delta = 1e-6 * max(1.0, abs(t))
    delta = float(delta)
    if not delta > 0.0:
        raise DomainError(f"half-width must be positive, got {delta!r}")
    if t - delta <= 0.0:
        raise DomainError(
            f"half-width {delta!r} reaches past the origin from t = {t!r}"
        )
    slope = (g(t + delta) - g(t - delta)) / (2.0 * delta)
    return t ** (1.0 - a) * slope


def conformable_integral_numeric(
    g: ScalarFunction,
    tau: float,
    alpha: AlphaLike,
    n: int,
) -> float:
    """Approximate ``integral_0^tau x**(a - 1) g(x) dx`` on n + 1 panels.

    Samples g at the n + 2 nodes of the uniform grid over [0, tau] and
    applies the product-trapezoid rule, which absorbs the x**(a - 1) kernel
    into its weights, so the integrand's singularity at 0 never has to be
    evaluated.
    """
    from .quadrature import integrate_trapezoid

    if n < 0:
        raise ValueError(f"panel parameter must be non-negative, got {n}")
    grid = make_grid(tau, float(tau) / (n + 1))
    samples = [g(grid.node(j)) for j in range(grid.node_count)]
    return integrate_trapezoid(samples, grid.step, alpha)
