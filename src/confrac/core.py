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

#: nodes per block of every pass over a grid made in blocks (:func:`_blocks`):
#: the conformable solver's steps, a trace's finiteness check, the closed-form
#: column, CSV rows and SVG points.  Under tracemalloc a 200,001-node
#: conformable solve peaks 0.20 MiB above its 16 bytes per node; a
#: 100,001-node CSV child peaked at 31.1 MB max-RSS with blocks of 1,024,
#: 31.2-31.5 MB with 2,048 and 32.6-32.7 MB with 4,096, at the same write time
BLOCK = 1024

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


def as_count(value, name: str, least: int = 0, most: float = math.inf) -> int:
    """``value`` as an ``int`` if ``operator.index`` takes it (numpy integers
    do) and it lies in ``least`` .. ``most``; otherwise :class:`GridError` naming
    the count ``name``.  The one home of every count's type, floor and ceiling."""
    try:
        count = operator.index(value)
    except TypeError:
        raise GridError(f"{name} must be an integer, got {value!r}") from None
    if not least <= count <= most:
        bound = f"at least {least}" if count < least else f"at most {most}"
        raise GridError(f"{name} must be {bound}, got {count}")
    return count


def as_step(value) -> float:
    """``value`` as a ``float`` if it is a positive number and its float is
    positive and finite; otherwise :class:`GridError`.  The step rule's one home."""
    if 0.0 < value and 0.0 < (step := float(value)) < math.inf:
        return step
    raise GridError(f"step must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class UniformGrid:
    """Nodes ``t_j = j * step`` for ``j = 0 .. node_count - 1``.

    Holds 2 to ``MAX_NODES`` nodes (:func:`as_count`) and a step stored as a
    ``float`` (:func:`as_step`), so every route to a node gives the same bits.
    Every solver and ``integrate_trapezoid`` step with the checked ``step``.
    """

    step: float
    node_count: int

    def __post_init__(self):
        object.__setattr__(self, "node_count",
                           as_count(self.node_count, "node count", 2, MAX_NODES))
        object.__setattr__(self, "step", as_step(self.step))

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


def _blocks(start: int, stop: int):
    """``(lo, hi)`` for blocks of at most ``BLOCK`` indices from start to stop."""
    for lo in range(start, stop, BLOCK):
        yield lo, min(lo + BLOCK, stop)


def _node_blocks(grid: UniformGrid):
    """``(lo, times)`` for each block of at most ``BLOCK`` nodes of ``grid``.

    ``times`` holds the times of the block's nodes, starting at node
    ``lo``: ``grid.step * j`` on float64, the bits of ``grid.nodes()`` and
    ``grid.node(j)``.  No array as long as the grid is built.
    """
    for lo, hi in _blocks(0, grid.node_count):
        yield lo, grid.step * np.arange(lo, hi, dtype=float)


def make_grid(tau: float, h: float) -> UniformGrid:
    """Build the uniform grid covering [0, tau] with step h.

    Raises :class:`GridError` for tau <= 0 or a step :func:`as_step` refuses,
    and, naming h, unless h divides tau into at most ``MAX_NODES`` nodes to
    within a relative slack of ``GRID_RTOL`` (a whole panel count gives tau).
    """
    tau = float(tau)
    if not tau > 0.0:
        raise GridError(f"horizon must be positive, got {tau!r}")
    h = as_step(float(h))
    ratio = tau / h
    # round() to at most MAX_NODES - 1 panels; also false for an infinite ratio
    if not ratio < MAX_NODES - 0.5:
        raise GridError(f"step {h!r} gives more than {MAX_NODES} nodes on [0, {tau!r}]")
    panels = round(ratio)
    if abs(panels * h - tau) > GRID_RTOL * tau:
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

    n = as_count(n, "panel parameter")
    grid = make_grid(tau, float(tau) / (n + 1))
    samples = [g(grid.node(j)) for j in range(grid.node_count)]
    return integrate_trapezoid(samples, grid.step, alpha)
