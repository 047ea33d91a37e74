"""Predictor-corrector time steppers for first-order and fractional problems.

Three schemes, four solvers, one problem/trace model.  Every solver is its
stepping loop inside one frame, :func:`_run`, which builds the grid through
:func:`solver_grid` (the one home of the checks a solver makes on its grid
and order before its first step), allocates the output arrays, locates a
blow-up and returns the trace:

* :func:`solve_classical_pc` -- forward-Euler predictor with a trapezoid
  corrector, for ordinary (order-1) problems.
* :func:`solve_conformable_pc` -- product rectangle predictor plus product
  trapezoid corrector against the kernel ``x**(a-1)``.  Because those
  coefficients depend only on their own index, the whole history enters
  through two running accumulators and one step costs O(1).
* :func:`solve_caputo_pc` -- the Adams-Bashforth-Moulton scheme for the
  Caputo derivative of order in [1e-9, 1].  Its weights depend on the
  distance to the current node, so the history sums are convolutions:
  direct dots inside leaves of ``_LEAF`` steps, and FFTs over chunks of
  two leaves, each chunk summing every earlier one in the frequency
  domain, so past ``_CHUNK`` nodes the far field grows like
  n**2 / ``_CHUNK``.

All solvers apply the corrector once per step (PECE) and abort with
:class:`BlowUpError` as soon as a predicted or corrected value leaves
``[-BLOWUP_LIMIT, BLOWUP_LIMIT]`` or goes non-finite.  Every loop spells
that test inline, as ``-BLOWUP_LIMIT <= v <= BLOWUP_LIMIT`` (false for NaN
and +-inf too), so the guard costs no call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Alpha, AlphaLike, UniformGrid, as_alpha, make_grid
from .errors import BlowUpError, DomainError, GridError
from .quadrature import _coefficient_block, coefficient_tables, product_scales

#: a right-hand side f(t, y)
RightHandSide = Callable[[float, float], float]

#: iterates beyond this magnitude are treated as blow-up
BLOWUP_LIMIT = 1e12

#: largest grid the Caputo solver accepts (checked by :func:`solver_grid`,
#: also for a direct call); one solve took 0.08-0.09 s at 25,601 nodes,
#: 0.22-0.40 s at 102,401 and 4.2-6.1 s (91 MB peak RSS) at 10**6 nodes
#: on a shared 2-core x86 machine
CAPUTO_MAX_NODES = 10**6

#: largest grid :func:`solve_conformable_pc_direct` accepts (its own key,
#: ``"direct"``, in :func:`solver_grid`): it re-sums the whole history at
#: every step, so its work grows like n**2; one solve took 0.52 s at 40,001
#: nodes, 1.95-2.26 s at 100,001 and 8.3 s at 200,001 on a shared 2-core
#: x86 machine
DIRECT_MAX_NODES = 10**5

#: the node ceiling of each :func:`solver_grid` key that has one, and the
#: solver its refusal names
_NODE_CEILINGS = {
    "caputo": (CAPUTO_MAX_NODES, "the Caputo solver"),
    "direct": (DIRECT_MAX_NODES, "the direct conformable solver"),
}

#: steps per block of the conformable solver, the CLI's output chunk
#: length: each block builds its own coefficients and gathers its values
#: and predictors in two lists written out once, so its memory does not
#: grow with the grid; a trace checks its values in blocks of it too.
#: Under tracemalloc a 200,001-node solve peaks 0.20 MiB above its 16
#: bytes per node (0.63 MiB with blocks of 4,096 stored step by step), and
#: a 100,001-node solve takes 65.6 ms against 64.5 ms (medians of 15
#: alternating runs on a shared 2-core x86 machine)
_BLOCK = 1024

# steps per leaf of the Caputo history sums, and nodes per chunk of their
# far field
_LEAF = 1024
_CHUNK = 2 * _LEAF


@dataclass(frozen=True)
class InitialValueProblem:
    """``T_a y = rhs(t, y)`` on [0, horizon] with ``y(0) = y0``.

    ``order`` is the order of the conformable derivative ``T_a``; with
    ``order == 1`` this is a plain first-order ODE.  :func:`solve_caputo_pc`
    reads the same problem with the Caputo derivative ``D_a`` in place of
    ``T_a``; an order in [1e-9, 1] lets the single initial value fix the
    solution's Taylor head there too.  A float order is coerced to
    :class:`~confrac.core.Alpha`, so an order out of range is refused here.
    """

    rhs: RightHandSide
    y0: float
    horizon: float
    order: Alpha

    def __post_init__(self):
        object.__setattr__(self, "order", as_alpha(self.order))
        if not math.isfinite(self.y0):
            raise DomainError(f"initial value must be finite, got {self.y0!r}")
        if not self.horizon > 0.0:
            raise DomainError(f"horizon must be positive, got {self.horizon!r}")


@dataclass(frozen=True)
class SolutionTrace:
    """Per-node output of one solver run.

    ``values[j]`` approximates y at node j; ``predictors[j - 1]`` holds the
    predicted (pre-correction) value at node j.
    """

    grid: UniformGrid
    values: np.ndarray
    predictors: np.ndarray
    method: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.node_count,):
            raise ValueError(
                f"expected {self.grid.node_count} values, got shape {values.shape}"
            )
        # a block at a time, so no n-byte mask is built; min and max
        # build none either, but their first call pages in 64 KB of
        # numpy's reduction code
        if not all(np.isfinite(values[lo:lo + _BLOCK]).all()
                   for lo in range(0, values.size, _BLOCK)):
            raise ValueError("trace contains non-finite values")
        object.__setattr__(self, "values", values)
        preds = np.asarray(self.predictors, dtype=float)
        if preds.shape != (self.grid.node_count - 1,):
            raise ValueError(
                f"expected {self.grid.node_count - 1} predictor values, "
                f"got shape {preds.shape}"
            )
        object.__setattr__(self, "predictors", preds)

    @property
    def endpoint(self) -> float:
        return float(self.values[-1])


def _run(method, problem, h, march, grid_key=None) -> SolutionTrace:
    """The frame around every solver's stepping loop.

    Builds the grid through :func:`solver_grid`, under ``grid_key`` when
    given and ``method`` otherwise (``method`` names the trace), and
    allocates ``values`` (with ``values[0] = y0``) and ``predictors``.
    ``march(grid, values, predictors)`` then fills both arrays; a
    :class:`BlowUpError` it raises comes back with the node's time and the
    last accepted value filled in, so a loop must have written that value
    first.  The loops pay nothing for it.
    """
    grid = solver_grid(grid_key or method, problem.order, problem.horizon, h)
    values = np.empty(grid.node_count)
    predictors = np.empty(grid.node_count - 1)
    values[0] = problem.y0
    try:
        march(grid, values, predictors)
    except BlowUpError as exc:
        step = exc.step_index
        raise BlowUpError(step, exc.value, t=grid.node(step),
                          last_value=float(values[step - 1])) from None
    return SolutionTrace(grid=grid, values=values, predictors=predictors,
                         method=method)


def solver_grid(method: str, order: Alpha, horizon: float, h: float) -> UniformGrid:
    """The grid the ``method`` solver steps over, after the checks it makes
    on its grid and order: :func:`make_grid`'s, order 1 for ``"classical"``,
    at most ``CAPUTO_MAX_NODES`` nodes for ``"caputo"`` (a Caputo solve of
    n nodes keeps no whole-grid coefficient array and peaks at about 65
    bytes per node, and past ``_CHUNK`` nodes its time grows like
    n**2 / ``_CHUNK``) and at most ``DIRECT_MAX_NODES`` for
    ``"direct"``, the O(n**2) reference :func:`solve_conformable_pc_direct`.
    """
    grid = make_grid(horizon, h)
    if method == "classical" and order.value != 1.0:
        raise DomainError(f"classical scheme requires order 1, got {order.value!r}")
    if method in _NODE_CEILINGS:
        ceiling, solver = _NODE_CEILINGS[method]
        if grid.node_count > ceiling:
            raise GridError(
                f"step {h!r} gives {grid.node_count} nodes on [0, {horizon!r}]; "
                f"{solver} takes at most {ceiling}"
            )
    return grid


def solve_classical_pc(problem: InitialValueProblem, h: float) -> SolutionTrace:
    """Euler-predictor / trapezoid-corrector run over the whole grid.

    Only defined for ``problem.order == 1``; fractional orders belong to
    :func:`solve_conformable_pc`.
    """
    def march(grid, values, predictors):
        rhs, y, step_size = problem.rhs, problem.y0, h
        limit = BLOWUP_LIMIT
        for step in range(1, grid.node_count):
            t_prev = grid.node(step - 1)
            t_next = grid.node(step)
            f_prev = rhs(t_prev, y)
            predicted = y + step_size * f_prev
            if not -limit <= predicted <= limit:
                raise BlowUpError(step, predicted)
            corrected = y + 0.5 * step_size * (f_prev + rhs(t_next, predicted))
            if not -limit <= corrected <= limit:
                raise BlowUpError(step, corrected)
            values[step] = corrected
            predictors[step - 1] = predicted
            y = corrected

    return _run("classical", problem, h, march)


def solve_conformable_pc(problem: InitialValueProblem, h: float) -> SolutionTrace:
    """Product rectangle/trapezoid predictor-corrector run, O(1) per step.

    The whole history lives in two running sums held in local floats.
    After absorbing nodes 0 .. i, the predictor sum already equals the
    predicted value at node i + 1 (initial value plus the scaled
    rectangle-weighted sum of past slopes), and the corrector sum holds
    the initial value plus the scaled trapezoid-weighted sum of the same
    slopes -- everything the corrector needs except its closing term.
    The slope added to both sums is evaluated at the corrected value, so
    predictor and corrector share one history.

    The steps run in blocks of ``_BLOCK``: each block builds its own scaled
    coefficients, and its values and predictors go into two lists written
    out once per block, so besides ``values`` and ``predictors`` nothing
    grows with the grid.  Within a block, steps run in one loop with no
    call per step besides the right-hand side and two list appends.
    """
    def march(grid, values, predictors):
        a = problem.order.value
        rhs, y0, step_size = problem.rhs, problem.y0, grid.step
        cte1, cte2 = product_scales(a, step_size)
        # rectangle and trapezoid coefficients at index 0 are both 1
        f0 = rhs(0.0, y0)
        accumulator = y0 + cte1 * f0
        history = y0 + cte2 * f0
        limit = BLOWUP_LIMIT
        for lo in range(1, grid.node_count, _BLOCK):
            hi = min(lo + _BLOCK, grid.node_count)
            # step j takes rectangle and trapezoid entry j and closing
            # entry j - 1
            rect, trap, tail = _coefficient_block(lo - 1, hi, a)
            block_values, block_predictors = [], []
            try:
                for step, rect_weight, trap_weight, tail_weight in zip(
                    range(lo, hi), (cte1 * rect[1:]).tolist(),
                    (cte2 * trap[1:]).tolist(), (cte2 * tail[:-1]).tolist(),
                ):
                    if not -limit <= accumulator <= limit:
                        raise BlowUpError(step, accumulator)
                    t_next = step_size * step
                    corrected = history + tail_weight * rhs(t_next, accumulator)
                    if not -limit <= corrected <= limit:
                        raise BlowUpError(step, corrected)
                    f_next = rhs(t_next, corrected)
                    block_values.append(corrected)
                    block_predictors.append(accumulator)
                    accumulator += rect_weight * f_next
                    history += trap_weight * f_next
            finally:
                # on a blow-up too: the frame reads the last accepted value
                values[lo:lo + len(block_values)] = block_values
            predictors[lo - 1:hi - 1] = block_predictors

    return _run("conformable", problem, h, march)


def solve_conformable_pc_direct(
    problem: InitialValueProblem, h: float
) -> SolutionTrace:
    """Reference variant of :func:`solve_conformable_pc` without accumulators.

    Re-sums the full weighted history at every step (O(n) per step), so it
    takes at most ``DIRECT_MAX_NODES`` nodes.  Kept as an independent route
    for cross-checking the accumulator algebra; results agree with the fast
    path to rounding.
    """
    def march(grid, values, predictors):
        rhs, y0 = problem.rhs, problem.y0
        cte1, cte2 = product_scales(problem.order.value, grid.step)
        panels = grid.panel_count
        rect, trap, tail = coefficient_tables(panels, problem.order)
        slopes = np.empty(panels)
        slopes[0] = rhs(0.0, y0)
        limit = BLOWUP_LIMIT
        for step in range(1, grid.node_count):
            t_next = grid.node(step)
            hist = slopes[:step]
            predicted = y0 + cte1 * float(np.dot(rect[:step], hist))
            if not -limit <= predicted <= limit:
                raise BlowUpError(step, predicted)
            partial = y0 + cte2 * float(np.dot(trap[:step], hist))
            closing = cte2 * float(tail[step - 1])
            corrected = partial + closing * rhs(t_next, predicted)
            if not -limit <= corrected <= limit:
                raise BlowUpError(step, corrected)
            values[step] = corrected
            predictors[step - 1] = predicted
            if step < panels:
                slopes[step] = rhs(t_next, corrected)

    return _run("conformable", problem, h, march, grid_key="direct")


def caputo_weights(n: int, alpha: AlphaLike) -> tuple[np.ndarray, np.ndarray]:
    """Weight vectors the Caputo scheme applies when producing node n + 1.

    ``predictor[j]`` multiplies the slope at node j in the predictor sum
    (scale ``h**a / gamma(a + 1)``); ``corrector[j]`` multiplies it in the
    corrector sum (scale ``h**a / gamma(a + 2)``), the final entry being
    the closing weight on the slope at the predicted value.  At order 1
    these collapse to the cumulative left-rectangle and trapezoid weights.
    """
    rect, trap, tail = coefficient_tables(n, alpha)
    # the conformable coefficients read backwards, the closing one first
    return rect[::-1].copy(), np.concatenate(([tail[n]], trap[::-1]))


def solve_caputo_pc(problem: InitialValueProblem, h: float) -> SolutionTrace:
    """Adams-Bashforth-Moulton run for a Caputo problem of order in [1e-9, 1].

    Fractional rectangle predictor, fractional trapezoid corrector; the
    weights are those :func:`caputo_weights` returns, generated once, in
    one ascending pass of :func:`_coefficient_block` over blocks of
    ``_CHUNK`` indices.  The history sums are convolutions, summed in
    three parts:

    * the near field: nodes run in leaves of ``_LEAF`` steps, and each
      step dots its own leaf's earlier slopes against the first
      coefficients;
    * the first leaf of each chunk of ``_CHUNK`` nodes reaches the second
      through one FFT convolution of size ``_CHUNK``;
    * at the start of chunk c, the slopes of chunks 0 .. c - 1 reach all
      of its nodes at once: each earlier chunk's slope spectrum (taken
      once, size ``2 * _CHUNK``) times the kernel for its chunk distance
      (both kernels of distance d are the transforms of coefficient
      entries ``(d - 1) * _CHUNK .. (d + 1) * _CHUNK - 1``), summed in the
      frequency domain by one ``einsum`` per sum.

    Slope 0 is left out of the spectra: from chunk 1 on it enters both
    sums by its own weight, and in the corrector it always takes the
    closing weight.  Every kernel is whole, so a node's value does not
    depend on how far the run goes.  Chunk c makes c spectrum-kernel
    products per sum, so past ``_CHUNK`` nodes the far field grows like
    n**2 / ``_CHUNK``.  Grids of at most ``_LEAF`` nodes never reach an FFT.

    A step makes no numpy slice past the first leaf: its dots read views
    of the near-field weights and of a one-leaf slope buffer, built once
    per solve (at most about 0.45 MB, whatever the grid), and its value
    and predictor go into Python lists written out once per leaf.  Besides
    ``values`` and ``predictors``, what grows with the grid is one slope
    spectrum and two kernel transforms per chunk, about 48 bytes per node.
    """
    def march(grid, values, predictors):
        a = problem.order.value
        rhs, y0, step_size = problem.rhs, problem.y0, grid.step
        panels = grid.panel_count
        f0 = float(rhs(0.0, y0))
        rect, trap, closing = _coefficient_block(
            0, _CHUNK if panels >= _LEAF else panels + 1, a)
        span = min(_LEAF, panels)
        rect_rev = rect[span - 1::-1].copy()
        trap_rev = trap[span:0:-1].copy()
        # step k of a leaf dots the last k near-field weights against the
        # leaf's first k slopes; every view it needs is built here, once
        rect_tails = [rect_rev[span - k:] for k in range(span + 1)]
        trap_tails = [trap_rev[span - k:] for k in range(span + 1)]
        leaf = np.empty(span)
        recent = [leaf[:k] for k in range(span + 1)]
        # a + 1 and a + 2 lie in [1, 3], where math.gamma is finite
        predictor_scale = h**a / math.gamma(a + 1.0)
        corrector_scale = h**a / math.gamma(a + 2.0)
        leaf[0] = f0
        # chunk 0's far field: node n takes closing entry n - 1 times f0
        chunk_p = np.zeros(closing.shape[0])
        chunk_c = np.concatenate(([0.0], closing[:-1])) * f0
        if panels >= _LEAF:
            from numpy import fft

            half_p, half_c = fft.rfft(rect), fft.rfft(trap)
            chunk_slopes = np.empty(_CHUNK)
            # row i holds chunk i's slope spectrum and row count - d the
            # kernels for chunk distance d, so chunk c reads rows 0 .. c - 1
            # of the one against rows count - c .. count - 1 of the others
            count = panels // _CHUNK
            spectra, kernels_p, kernels_c = np.empty((3, count, _CHUNK + 1),
                                                     complex)
        limit = BLOWUP_LIMIT
        for lo in range(0, grid.node_count, _LEAF):
            hi = min(lo + _LEAF, grid.node_count)
            c, offset = divmod(lo, _CHUNK)
            if lo and not offset:
                # coefficient entries (c - 1) * _CHUNK .. (c + 1) * _CHUNK - 1
                rects, traps, closings = (np.concatenate(pair) for pair in zip(
                    (rect, trap, closing), _coefficient_block(lo, lo + _CHUNK, a)))
                rect, trap, closing = rects[_CHUNK:], traps[_CHUNK:], closings[_CHUNK:]
                row = count - c
                kernels_p[row], kernels_c[row] = fft.rfft(rects), fft.rfft(traps)
                sum_p = np.einsum("ij,ij->j", spectra[:c], kernels_p[row:])
                sum_c = np.einsum("ij,ij->j", spectra[:c], kernels_c[row:])
                chunk_p = rects[_CHUNK - 1:-1] * f0 + fft.irfft(sum_p)[_CHUNK - 1:-1]
                chunk_c = closings[_CHUNK - 1:-1] * f0 + fft.irfft(sum_c)[_CHUNK:]
            # node 0 is the initial value; slope 0 enters the corrector
            # through the closing weight, not the near-field sum
            first = max(lo, 1)
            ks = range(first - lo, hi - lo)
            # (predictor weights, slopes, corrector weights, slopes) per k;
            # leaf 0 leaves slope 0 out of the corrector's dot
            if lo:
                views = rect_tails, recent, trap_tails, recent
            else:
                views = (rect_tails[1:], recent[1:], trap_tails,
                         (leaf[1:k] for k in ks))
            sloped = panels - lo  # the last node's slope is never used
            leaf_values, leaf_predictors = [], []
            at = slice(first - c * _CHUNK, hi - c * _CHUNK)
            steps = zip(
                ks, (step_size * np.arange(first, hi)).tolist(),
                chunk_p[at].tolist(), chunk_c[at].tolist(), *views,
            )
            try:
                for k, t_next, p_far, c_far, rect_w, near, trap_w, c_near in steps:
                    predicted = y0 + predictor_scale * (p_far + float(rect_w.dot(near)))
                    if not -limit <= predicted <= limit:
                        raise BlowUpError(lo + k, predicted)
                    head = c_far + float(trap_w.dot(c_near))
                    corrected = y0 + corrector_scale * (head + rhs(t_next, predicted))
                    if not -limit <= corrected <= limit:
                        raise BlowUpError(lo + k, corrected)
                    leaf_values.append(corrected)
                    leaf_predictors.append(predicted)
                    if k < sloped:
                        leaf[k] = rhs(t_next, corrected)
            finally:
                # on a blow-up too: the frame reads the last accepted value
                values[first:first + len(leaf_values)] = leaf_values
            predictors[first - 1:hi - 1] = leaf_predictors
            if hi == grid.node_count:
                break
            chunk_slopes[offset:offset + _LEAF] = leaf
            if offset:
                spectra[c] = fft.rfft(chunk_slopes, 2 * _CHUNK)
            else:
                # into the chunk's second leaf; chunk 0 then drops slope 0
                spectrum = fft.rfft(leaf, _CHUNK)
                chunk_p[_LEAF:] += fft.irfft(spectrum * half_p)[_LEAF - 1:-1]
                if not lo:
                    chunk_slopes[0] = 0.0
                    spectrum = fft.rfft(chunk_slopes[:_LEAF], _CHUNK)
                chunk_c[_LEAF:] += fft.irfft(spectrum * half_c)[_LEAF:]

    return _run("caputo", problem, h, march)
