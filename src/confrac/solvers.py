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
  distance to the current node, so the history sums are convolutions,
  summed by divide and conquer with FFTs.  Those FFTs are cut into chunk
  pairs of ``_FFT_SIZE`` points, so past that many nodes the far field
  grows like n**2 / ``_FFT_SIZE``, not n log**2 n.

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

from .core import Alpha, AlphaLike, UniformGrid, make_grid
from .errors import BlowUpError, DomainError, GridError
from .quadrature import (
    _coefficient_block,
    coefficient_tables,
    gamma,
    product_scales,
)

#: a right-hand side f(t, y)
RightHandSide = Callable[[float, float], float]

#: iterates beyond this magnitude are treated as blow-up
BLOWUP_LIMIT = 1e12

#: largest grid the Caputo solver accepts (checked by :func:`solver_grid`,
#: also for a direct call); one solve took 0.06-0.10 s at 25,601 nodes,
#: 0.24-0.31 s at 102,401 and 3.8-4.6 s (99-100 MB peak RSS) at 10**6
#: nodes on a shared 2-core x86 machine
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

#: steps per block of the conformable solver: each block builds its own
#: coefficients, so its memory does not grow with the grid
_BLOCK = 4096

# steps per leaf of the Caputo history recursion, and the largest FFT
# size its far-field convolutions use (both powers of two)
_LEAF = 1024
_FFT_SIZE = 4096


@dataclass(frozen=True)
class InitialValueProblem:
    """``T_a y = rhs(t, y)`` on [0, horizon] with ``y(0) = y0``.

    ``order`` is the order of the conformable derivative ``T_a``; with
    ``order == 1`` this is a plain first-order ODE.  :func:`solve_caputo_pc`
    reads the same problem with the Caputo derivative ``D_a`` in place of
    ``T_a``; an order in [1e-9, 1] lets the single initial value fix the
    solution's Taylor head there too.
    """

    rhs: RightHandSide
    y0: float
    horizon: float
    order: Alpha

    def __post_init__(self):
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
        if not np.all(np.isfinite(values)):
            raise ValueError("trace contains non-finite values")
        object.__setattr__(self, "values", values)
        preds = np.asarray(self.predictors, dtype=float)
        if preds.shape != (self.grid.node_count - 1,):
            raise ValueError(
                f"expected {self.grid.node_count - 1} predictor values, "
                f"got shape {preds.shape}"
            )
        object.__setattr__(self, "predictors", preds)

    def times(self) -> np.ndarray:
        return self.grid.nodes()

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
    n nodes keeps no whole-grid coefficient array and peaks at about 80
    bytes per node, and past ``_FFT_SIZE`` nodes its time grows like
    n**2 / ``_FFT_SIZE``) and at most ``DIRECT_MAX_NODES`` for
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
    coefficients and node times, so besides ``values`` and ``predictors``
    nothing grows with the grid.  Within a block, steps run in one loop
    with no call per step besides the right-hand side.
    """
    def march(grid, values, predictors):
        a = problem.order.value
        rhs, y0 = problem.rhs, problem.y0
        cte1, cte2 = product_scales(a, grid.step)
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
            for step, t_next, rect_weight, trap_weight, tail_weight in zip(
                range(lo, hi), (grid.step * np.arange(lo, hi)).tolist(),
                (cte1 * rect[1:]).tolist(), (cte2 * trap[1:]).tolist(),
                (cte2 * tail[:-1]).tolist(),
            ):
                if not -limit <= accumulator <= limit:
                    raise BlowUpError(step, accumulator)
                corrected = history + tail_weight * rhs(t_next, accumulator)
                if not -limit <= corrected <= limit:
                    raise BlowUpError(step, corrected)
                f_next = rhs(t_next, corrected)
                values[step] = corrected
                predictors[step - 1] = accumulator
                accumulator += rect_weight * f_next
                history += trap_weight * f_next

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


def _caputo_coefficients(a, panels, f0):
    """Corrector far field, near-field weights and FFT kernels of a Caputo solve.

    One ascending pass over :func:`_coefficient_block` in blocks of
    ``_FFT_SIZE // 2`` entries generates every coefficient index once:

    * each block's closing entries times ``f0``, the slope at node 0, seed
      ``far_c``, the corrector's far-field sums (node n takes entry n - 1),
      so no closing weight outlives its block;
    * the first block gives the near-field weights: ``rect_rev[span - k:]``
      holds ``rect[k - 1], ..., rect[0]`` and ``trap_rev[span - k:]`` holds
      ``trap[k], ..., trap[1]``, with ``span = min(_LEAF, panels)``;
    * the first block also gives the kernels of the size-``_FFT_SIZE // 2``
      FFT, and blocks ``k`` and ``k + 1`` the size-``_FFT_SIZE`` kernels for
      chunk offset ``k``.  Both kernels of a pair read one index window:
      position q of a size-``size`` kernel for offset ``k`` holds
      ``rect[d]`` (predictor) and ``trap[d]`` (corrector), with
      ``d = k * size // 2 + q``.

    ``kernels`` maps ``(size, k)`` to the transform pair :func:`_spread`
    reads.  Past ``_LEAF`` panels the pass runs to the end of the FFT chunk
    that holds the last panel, so every kernel is whole without zero
    padding and a node's value does not depend on how far the run goes.
    Shorter runs build no kernel and do not load ``numpy.fft``.
    """
    half = _FFT_SIZE // 2
    reach = panels + 1
    if panels >= _LEAF:
        from numpy import fft

        reach = (panels // half + 1) * half
    far_c = np.zeros(panels + 1)
    kernels = {}
    for lo in range(0, reach, half):
        rect, trap, closing = _coefficient_block(lo, min(lo + half, reach), a)
        # the last block starts at or before the last panel
        far_c[lo + 1:lo + 1 + half] = closing[:panels - lo] * f0
        if lo == 0:
            span = min(_LEAF, panels)
            rect_rev = rect[span - 1::-1].copy()
            trap_rev = trap[span:0:-1].copy()
            if panels >= _LEAF:
                kernels[half, 0] = fft.rfft(rect), fft.rfft(trap)
        else:
            kernels[_FFT_SIZE, lo // half - 1] = (
                fft.rfft(np.concatenate((rect_before, rect))),
                fft.rfft(np.concatenate((trap_before, trap))))
        rect_before, trap_before = rect, trap
    return far_c, rect_rev, trap_rev, kernels


def _spread(kernels, slopes, far_p, far_c, end, width):
    """Adds the slopes at nodes ``end - width .. end - 1`` into the far-field
    sums of nodes ``end .. end + width - 1`` (those that exist).

    The block is cut into chunks of at most ``_FFT_SIZE // 2`` slopes; each
    source/target chunk pair is one circular convolution of twice the chunk
    length with a kernel transform from ``kernels``
    (:func:`_caputo_coefficients`), summed per target chunk in the
    frequency domain.  A slope at distance d takes ``rect[d - 1]``, so the
    predictor sums are read one point before the corrector sums.  Slope 0
    is left out of the corrector sum: it enters through the closing weight.
    """
    from numpy import fft

    chunk = min(width, _FFT_SIZE // 2)
    size = 2 * chunk
    count = width // chunk
    lo = end - width
    sources = [fft.rfft(slopes[lo + i * chunk:lo + (i + 1) * chunk], size)
               for i in range(count)]
    corrector_sources = list(sources)
    if lo == 0:
        head = slopes[:chunk].copy()
        head[0] = 0.0
        corrector_sources[0] = fft.rfft(head, size)
    nodes = far_p.shape[0]
    for target in range(min(count, -(-(nodes - end) // chunk))):
        acc_p = acc_c = 0.0
        for i in range(count):
            kernel_p, kernel_c = kernels[size, count + target - i - 1]
            acc_p = acc_p + sources[i] * kernel_p
            acc_c = acc_c + corrector_sources[i] * kernel_c
        start = end + target * chunk
        stop = min(start + chunk, nodes)
        far_p[start:stop] += fft.irfft(acc_p, size)[
            chunk - 1:chunk - 1 + stop - start]
        far_c[start:stop] += fft.irfft(acc_c, size)[chunk:chunk + stop - start]


def solve_caputo_pc(problem: InitialValueProblem, h: float) -> SolutionTrace:
    """Adams-Bashforth-Moulton run for a Caputo problem of order in [1e-9, 1].

    Fractional rectangle predictor, fractional trapezoid corrector; the
    weights are those :func:`caputo_weights` returns, generated once in
    blocks by :func:`_caputo_coefficients`.  The history sums
    are split by divide and conquer (Hairer, Lubich & Schlichte 1985):
    nodes run in leaves of ``_LEAF`` steps, and each step adds one
    contiguous dot over its own leaf's earlier slopes (the near field) to
    far-field sums read from two per-solve arrays; the corrector's starts
    from each node's closing-weight term.  After each leaf, the
    power-of-two block of slopes that ends there is added into the
    far-field sums of the equally long block that follows, by FFT
    convolution (:func:`_spread`).  Up to ``_FFT_SIZE`` nodes that makes a
    solve O(n log**2 n); wider blocks are cut into chunk pairs of
    ``_FFT_SIZE`` points, so past it the far field grows like
    n**2 / ``_FFT_SIZE``.  Grids of at most ``_LEAF`` nodes never reach an
    FFT.

    Past the first leaf, a step makes no numpy slice: its dots read views
    of the near-field weights and of a one-leaf slope buffer, built once
    per solve (at most about 0.45 MB, whatever the grid), and its value
    and predictor go into Python lists written out once per leaf.  The leaf's
    slopes are copied into the whole-grid slope array before each spread.
    """
    def march(grid, values, predictors):
        a = problem.order.value
        rhs, y0, step_size = problem.rhs, problem.y0, grid.step
        panels = grid.panel_count
        f0 = float(rhs(0.0, y0))
        far_c, rect_rev, trap_rev, kernels = _caputo_coefficients(a, panels, f0)
        span = rect_rev.shape[0]
        # step k of a leaf dots the last k near-field weights against the
        # leaf's first k slopes; every view it needs is built here, once
        rect_tails = [rect_rev[span - k:] for k in range(span + 1)]
        trap_tails = [trap_rev[span - k:] for k in range(span + 1)]
        leaf = np.empty(span)
        recent = [leaf[:k] for k in range(span + 1)]
        predictor_scale = h**a / gamma(a + 1.0)
        corrector_scale = h**a / gamma(a + 2.0)
        slopes = np.empty(panels)
        leaf[0] = f0
        far_p = np.zeros(grid.node_count)
        limit = BLOWUP_LIMIT
        for lo in range(0, grid.node_count, _LEAF):
            hi = min(lo + _LEAF, grid.node_count)
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
            steps = zip(
                ks, (step_size * np.arange(first, hi)).tolist(),
                far_p[first:hi].tolist(), far_c[first:hi].tolist(), *views,
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
            if hi < grid.node_count:
                slopes[lo:hi] = leaf
                leaves = hi // _LEAF
                _spread(kernels, slopes, far_p, far_c, hi,
                        _LEAF * (leaves & -leaves))

    return _run("caputo", problem, h, march)
