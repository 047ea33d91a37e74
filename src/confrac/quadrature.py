"""Product quadrature for the kernel ``x**(alpha - 1)`` on uniform grids.

Two rules are provided, both exact for the kernel itself because the
kernel is integrated analytically against a piecewise interpolant of the
smooth factor:

* rectangle rule -- piecewise-constant interpolant, coefficients
  ``(j + 1)**a - j**a`` with overall scale ``h**a / a``;
* trapezoid rule -- piecewise-linear interpolant, centred second
  differences of ``j**(a + 1)`` (the power at index -1 reads 0, so the
  origin's coefficient is 1) and a closing coefficient at the final node,
  with scale ``h**a / (a * (a + 1))``.

Coefficients only depend on their own index, never on the grid length,
which is what lets the solvers in :mod:`confrac.solvers` update running
sums instead of re-summing history.  Every solver reads its coefficients
from :func:`_coefficient_block`: the conformable and Caputo solvers in
one ascending pass of blocks, the direct reference solver and the weight
vectors through :func:`coefficient_tables`, which fills indices 0 .. n
from the same blocks.  The scalar functions are per-index lookups with
the same arithmetic, pinned bit for bit to the blocks.

Large indices need care: the naive second difference subtracts three
nearly equal numbers of size ``j**(a + 1)`` and loses roughly ``j**2``
units in the last place.  From ``_SERIES_CUTOFF`` on the differences are
evaluated with binomial series in ``1/j`` whose terms are all positive,
so no cancellation occurs anywhere.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .core import MAX_NODES, AlphaLike, as_alpha
from .errors import DomainError, GridError

#: index from which coefficients switch to the cancellation-free series
_SERIES_CUTOFF = 128

#: hard bound on series length; terms shrink by >= _SERIES_CUTOFF**-2 per
#: step, so ~10 terms already reach double precision
_SERIES_MAX_TERMS = 60


def gamma(x: float) -> float:
    """Euler's Gamma function for real x > 0 (thin wrapper over the C library)."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    return math.gamma(x)


def _binomial_series(a: float, power, factor, ratios):
    """Sum of ``b_k * power * factor**k`` with ``b_0 = C(a + 1, 2)`` and ratios
    ``b_(k+1) / b_k`` taken from ``ratios``.

    ``b_0`` is formed from ``a`` itself: ``beta - 1`` with ``beta = a + 1``
    already rounded would keep only about ``eps / a`` of ``a``.  ``power``
    and ``factor`` are floats or arrays.  Terms are positive and
    shrinking, so the loop stops once a term changes no element, and each
    element gets exactly the sum a loop over that element alone would.
    """
    binom = a * (a + 1.0) / 2.0  # C(a + 1, 2)
    total = binom * power
    for ratio in ratios:
        binom *= ratio
        power = power * factor
        grown = total + binom * power
        same = grown == total
        if same.all() if isinstance(same, np.ndarray) else same:
            break
        total = grown
    return total


def _interior_series(u, a: float):
    """``((1-u)**beta + (1+u)**beta - 2) / 2`` as ``sum_{k>=1} C(beta, 2k) u**(2k)``,
    with ``beta = a + 1``.

    Odd powers cancel; every term is positive for beta in (1, 2).
    """
    beta = a + 1.0
    ratios = ((beta - 2 * k) * (beta - 2 * k - 1.0) / ((2 * k + 1.0) * (2 * k + 2.0))
              for k in range(1, _SERIES_MAX_TERMS))
    return _binomial_series(a, u * u, u * u, ratios)


def _tail_series(u, a: float):
    """``(1 - u)**beta - 1 + beta*u`` as ``sum_{k>=2} C(beta, k) (-u)**k``,
    with ``beta = a + 1``.

    The binomials' signs alternate against ``(-u)**k`` for beta in (1, 2).
    """
    beta = a + 1.0
    ratios = ((beta - k) / (k + 1.0) for k in range(2, _SERIES_MAX_TERMS))
    return _binomial_series(a, u * u, -u, ratios)


def rectangle_coefficient(j: int, alpha: AlphaLike) -> float:
    """Coefficient ``(j + 1)**a - j**a`` of the product rectangle rule.

    Adjacent powers of consecutive integers differ by less than a factor
    of two, so by Sterbenz's lemma the subtraction itself is exact.  Each
    power has already been rounded, though, and the difference is about
    ``a / j`` times their size, so the relative error grows like
    ``j * eps / a``: against 50-digit mpmath at a = 0.5 it is 1.1e-13 at
    j = 1e3, 6.4e-13 at 1e5, 9.3e-11 at 1e6 and 1.6e-9 at 1e7 - 1.  The
    ``expm1``/``log1p`` form would avoid this; it is not used yet.
    """
    if j < 0:
        raise ValueError(f"coefficient index must be non-negative, got {j}")
    a = as_alpha(alpha).value
    return (j + 1.0) ** a - float(j) ** a


def trapezoid_coefficient(j: int, alpha: AlphaLike) -> float:
    """Interior coefficient of the product trapezoid rule.

    Equals ``(j-1)**(a+1) - 2*j**(a+1) + (j+1)**(a+1)`` with the power at
    index -1 read as 0, so entry 0 is exactly ``0 - 0 + 1 = 1``.
    """
    if j < 0:
        raise ValueError(f"coefficient index must be non-negative, got {j}")
    a = as_alpha(alpha).value
    beta = a + 1.0
    if j < _SERIES_CUTOFF or beta == 2.0:
        # exact in integer arithmetic when beta == 2; safe below the
        # cutoff where at most ~j**2 ulps cancel
        return (max(j - 1.0, 0.0) ** beta - 2.0 * float(j) ** beta
                + (j + 1.0) ** beta)
    return 2.0 * float(j) ** beta * _interior_series(1.0 / j, a)


def trapezoid_tail_coefficient(n: int, alpha: AlphaLike) -> float:
    """Closing coefficient of the product trapezoid rule on n + 1 panels.

    Equals ``(a+1)*(n+1)**a + n**(a+1) - (n+1)**(a+1)``; for n = 0 this
    reduces to a.  The same quantity is the weight the reflected-kernel
    (Caputo) trapezoid rule assigns to its first node.
    """
    if n < 0:
        raise ValueError(f"panel index must be non-negative, got {n}")
    a = as_alpha(alpha).value
    beta = a + 1.0
    m = n + 1.0
    if n + 1 < _SERIES_CUTOFF or a == 1.0:
        # exact in integer arithmetic when a == 1 (beta == 2), any n
        return beta * m**a + float(n) ** beta - m**beta
    return m**beta * _tail_series(1.0 / m, a)


def _coefficient_block(
    lo: int, hi: int, a: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rectangle, trapezoid and closing coefficients for indices lo .. hi - 1.

    Entry ``j - lo`` of the three arrays equals ``rectangle_coefficient(j, a)``,
    ``trapezoid_coefficient(j, a)`` and ``trapezoid_tail_coefficient(j, a)``
    bit for bit, wherever the block starts and ends: every entry gets its
    own Python ``pow`` and its own series, so a block may straddle
    ``_SERIES_CUTOFF``.
    """
    beta = a + 1.0
    # Python's pow, which the scalar functions use: numpy's vectorised
    # power may differ from it in the last place
    p = np.fromiter(map(pow, range(lo, hi + 1), repeat(a)), float, hi + 1 - lo)
    # q[k] holds index lo - 1 + k, where the power at index -1 reads 0
    q = np.fromiter(chain([pow(max(lo - 1, 0), beta)],
                          map(pow, range(lo, hi + 1), repeat(beta))),
                    float, hi + 2 - lo)
    rect = p[1:] - p[:-1]
    trap = q[:-2] - 2.0 * q[1:-1] + q[2:]
    tail = beta * p[1:] + q[1:-1] - q[2:]
    cut = _SERIES_CUTOFF
    start = max(lo, cut)
    if beta != 2.0 and start < hi:
        j = np.arange(start, hi, dtype=float)
        trap[start - lo:] = (2.0 * q[start - lo + 1:-1]
                             * _interior_series(1.0 / j, a))
    start = max(lo, cut - 1)
    if a != 1.0 and start < hi:
        m = np.arange(start + 1, hi + 1, dtype=float)
        tail[start - lo:] = q[start - lo + 2:] * _tail_series(1.0 / m, a)
    return rect, trap, tail


def coefficient_tables(
    n: int, alpha: AlphaLike
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rectangle, trapezoid and closing coefficients for indices 0 .. n.

    Entry j of the three arrays equals ``rectangle_coefficient(j, alpha)``,
    ``trapezoid_coefficient(j, alpha)`` and
    ``trapezoid_tail_coefficient(j, alpha)`` bit for bit.  The arrays are
    filled from :func:`_coefficient_block` 4,096 indices at a time, so the
    series temporaries stay the size of one block and the tables cost
    their own 24 bytes per index.  Raises :class:`GridError`, before
    allocating, unless ``n < MAX_NODES`` (at most one index per grid node).
    """
    if n < 0:
        raise ValueError(f"panel index must be non-negative, got {n}")
    if n >= MAX_NODES:
        raise GridError(f"panel index must be below {MAX_NODES}, got {n}")
    a = as_alpha(alpha).value
    rect, trap, tail = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    for lo in range(0, n + 1, 4096):
        hi = min(lo + 4096, n + 1)
        rect[lo:hi], trap[lo:hi], tail[lo:hi] = _coefficient_block(lo, hi, a)
    return rect, trap, tail


def product_scales(a: float, h: float) -> tuple[float, float]:
    """Rectangle scale ``h**a / a`` and trapezoid scale ``h**a / (a * (a + 1))``.

    The trapezoid scale is computed as the rectangle scale over ``a + 1``;
    the solvers' outputs are pinned bit for bit to that rounding.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step must be positive and finite, got {h!r}")
    rect = h**a / a
    return rect, rect / (a + 1.0)


def rectangle_weights(n: int, alpha: AlphaLike) -> np.ndarray:
    """Rectangle-rule coefficients for nodes 0 .. n (n + 1 of them)."""
    rect, _, _ = coefficient_tables(n, alpha)
    return rect


def trapezoid_weights(n: int, alpha: AlphaLike) -> np.ndarray:
    """Trapezoid-rule coefficients for nodes 0 .. n + 1 (n + 2 of them)."""
    _, trap, tail = coefficient_tables(n, alpha)
    return np.append(trap, tail[n])


def _checked_samples(samples: Sequence[float], expected: str) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"samples must form a non-empty 1-d sequence ({expected})")
    return arr


def integrate_rectangle(samples: Sequence[float], h: float, alpha: AlphaLike) -> float:
    """Rectangle-rule value of ``integral x**(a-1) g``, g sampled at nodes 0 .. n.

    ``samples[j]`` is g at node j*h.
    """
    arr = _checked_samples(samples, "one per node")
    scale, _ = product_scales(as_alpha(alpha).value, float(h))
    return scale * float(np.dot(rectangle_weights(arr.size - 1, alpha), arr))


def integrate_trapezoid(samples: Sequence[float], h: float, alpha: AlphaLike) -> float:
    """Trapezoid-rule value of ``integral x**(a-1) g``, g sampled at nodes 0 .. n+1.

    Needs at least two samples (one panel).  Exact whenever g is linear.
    """
    arr = _checked_samples(samples, "one per node, at least two")
    if arr.size < 2:
        raise ValueError("trapezoid rule needs at least two samples")
    _, scale = product_scales(as_alpha(alpha).value, float(h))
    return scale * float(np.dot(trapezoid_weights(arr.size - 2, alpha), arr))
