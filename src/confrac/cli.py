"""Command-line front end.

Subcommands: ``list`` (show built-in problems), ``solve`` (one run to CSV
or SVG), ``convergence`` (step-halving sweep to CSV), ``compare``
(side-by-side methods to CSV).  Exit codes: 0 success, 2 usage or domain
error, 3 solver blow-up.

Numbers are written with 17 significant digits so the text round-trips
doubles losslessly; repeated runs with the same options produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain
from typing import Sequence

import numpy as np

from .core import MIN_ORDER, UniformGrid, _node_blocks, as_alpha
from .errors import BlowUpError, ConfracError
from .problems import (
    METHODS,
    _exact_column,
    builtin_problems,
    get_problem,
    halving_orders,
    method_grid,
    refinement_errors,
    solve_named,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BLOWUP = 3

#: node stride between the exact-solution markers of an SVG
_MARKER_STRIDE = 90


def write_csv(header: Sequence[str], blocks, path: str) -> None:
    """Write a header line and then blocks of rows as CSV.

    A block is a tuple of equal-length columns, each a float64 array
    (cells written with ``%.17g``, 17 significant digits) or a list of str
    (cells written as they are; ``""`` is a blank field).  The row template
    is built once, from the first block's column kinds, so a column keeps
    its kind in every block.  Each block is formatted with one ``%`` and
    written as it arrives, so ``blocks`` may be a generator and only one
    block's text is held at a time.  Lines end with a single line feed.  A
    block that raises leaves a truncated file behind, so blocks must only
    slice values computed beforehand; the subcommands evaluate their
    closed forms before calling this.
    """
    template = None
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for block in blocks:
                if template is None:
                    template = ",".join(
                        "%.17g" if isinstance(column, np.ndarray) else "%s"
                        for column in block
                    ) + "\n"
                cells = [column.tolist() if isinstance(column, np.ndarray)
                         else column for column in block]
                rows = len(cells[0])
                fh.write((template * rows) % tuple(chain.from_iterable(zip(*cells))))
    except OSError as exc:
        raise ConfracError(f"cannot write {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# SVG rendering


_SVG_W, _SVG_H = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 24, 56
_CURVE_COLOR = "#1f77b4"
_MARKER_COLOR = "#d62728"


def _nice_ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """Round tick positions inside [lo, hi] (lo < hi) with their labels.

    The spacing is 1, 2 or 5 times a power of ten and cuts the span into at
    most six steps.  Ticks are ``k * step``, so the only one near 0 is
    exactly 0.0.  Labels take the fewest significant digits, 6 or more,
    that keep them apart.
    """
    span = hi - lo
    magnitude = 10.0 ** math.floor(math.log10(span / 6))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 5.0):
        if span / (mult * magnitude) <= 6:
            step = mult * magnitude
            break
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    ticks = (k * step for k in range(first, last + 1))
    ticks = [tick for tick in ticks if lo <= tick <= hi]
    # 17 significant digits tell any two distinct floats apart
    for digits in range(6, 18):
        labels = [f"{tick:.{digits}g}" for tick in ticks]
        if len(set(labels)) == len(labels):
            break
    return list(zip(ticks, labels))


def _write_points(fh, grid: UniformGrid, values: np.ndarray, px, py) -> None:
    """Write the polyline's ``x,y`` pixel pairs, one block of nodes at a time.

    Each block is formatted with one ``%`` over its interleaved pixel
    coordinates, the template sized to the block.  Kept apart from
    :func:`write_svg`: under tracemalloc an allocation costs time in
    proportion to the allocating function's length, and this loop makes
    several per point.
    """
    for lo, times in _node_blocks(grid):
        n = len(times)
        pairs = np.column_stack((px(times), py(values[lo:lo + n]))).ravel()
        if lo:
            fh.write(" ")
        fh.write(" ".join(["%.2f,%.2f"] * n) % tuple(pairs.tolist()))


def write_svg(
    grid: UniformGrid,
    values: np.ndarray,
    markers: Sequence[tuple[float, float]],
    path: str,
) -> None:
    """Render a solution column as a static 800x600 SVG.

    ``values`` at the nodes of ``grid`` is drawn as a polyline;
    ``markers``, ``(t, y)`` points of the exact solution, appear as hollow
    circles, matching the sparse-marker figure style.  Markers and axes
    are computed first; the polyline's node times and pixels are then
    computed and written one block of nodes at a time
    (:func:`~confrac.core._node_blocks`), so no array, list or string
    as long as the grid is built.
    """
    marker_ys = [y for _, y in markers]
    x_lo, x_hi = grid.node(0), grid.node(grid.panel_count)
    y_lo = min([float(values.min())] + marker_ys)
    y_hi = max([float(values.max())] + marker_ys)
    x_pad = 0.05 * (x_hi - x_lo)
    y_pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else max(0.5, 0.05 * abs(y_hi))
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    # px/py also take float64 arrays: the same IEEE operations in the same
    # order give the same bits as on Python floats
    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _SVG_H - _MARGIN_B - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    font = 'font-family="Helvetica,Arial,sans-serif" font-size="13"'

    for tick, label in _nice_ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_SVG_H - _MARGIN_B}" x2="{x:.2f}" '
            f'y2="{_SVG_H - _MARGIN_B + 6}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_SVG_H - _MARGIN_B + 20}" {font} '
            f'text-anchor="middle">{label}</text>'
        )
    for tick, label in _nice_ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 6}" y1="{y:.2f}" x2="{_MARGIN_L}" '
            f'y2="{y:.2f}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 10}" y="{y + 4:.2f}" {font} '
            f'text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_SVG_H - 12}" {font} '
        f'text-anchor="middle">t</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.2f}" {font} '
        f'text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.2f})">y</text>'
    )

    # everything after the polyline, which is streamed to the file in between
    tail = []
    for t, v in markers:
        tail.append(
            f'<circle cx="{px(t):.2f}" cy="{py(v):.2f}" r="4" fill="none" '
            f'stroke="{_MARKER_COLOR}" stroke-width="1.2"/>'
        )

    legend_x = _MARGIN_L + 14
    legend_y = _MARGIN_T + 18
    tail.append(
        f'<line x1="{legend_x}" y1="{legend_y}" x2="{legend_x + 28}" '
        f'y2="{legend_y}" stroke="{_CURVE_COLOR}" stroke-width="1.5"/>'
    )
    tail.append(
        f'<text x="{legend_x + 36}" y="{legend_y + 4}" {font}>'
        f"Numerical solution</text>"
    )
    tail.append(
        f'<circle cx="{legend_x + 14}" cy="{legend_y + 20}" r="4" '
        f'fill="none" stroke="{_MARKER_COLOR}" stroke-width="1.2"/>'
    )
    tail.append(
        f'<text x="{legend_x + 36}" y="{legend_y + 24}" {font}>'
        f"Exact solution</text>"
    )
    tail.append("</svg>")

    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(parts))
            fh.write('\n<polyline points="')
            _write_points(fh, grid, values, px, py)
            fh.write(f'" fill="none" stroke="{_CURVE_COLOR}" '
                     f'stroke-width="1.5"/>\n')
            fh.write("\n".join(tail))
            fh.write("\n")
    except OSError as exc:
        raise ConfracError(f"cannot write {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand implementations


def _row_blocks(grid: UniformGrid, *columns: np.ndarray):
    """CSV blocks: each block's node times, then its slice of every column."""
    for lo, times in _node_blocks(grid):
        yield (times, *(column[lo:lo + len(times)] for column in columns))


def cmd_list() -> int:
    """Print one line per built-in problem."""
    for named in builtin_problems():
        line = f"{named.id:<10} {named.equation:<16} {named.solution}"
        if named.domain_note is not None:
            line = f"{line}   {named.domain_note}"
        print(line)
    return EXIT_OK


def cmd_solve(
    problem: str,
    method: str,
    alpha: float,
    h: float,
    tau: float | None,
    output: str,
    format: str = "csv",
) -> int:
    """Run one solve and write its nodes, values and closed form as CSV or SVG."""
    if format not in ("csv", "svg"):
        raise ValueError(f"format must be csv or svg, got {format!r}")
    named = get_problem(problem)
    alpha = as_alpha(alpha)
    # both formats read only the grid and the values: the rest of the
    # trace, its predictors included, is let go before the closed form is
    # sampled
    trace = solve_named(named, method, alpha, h, tau)
    grid, values = trace.grid, trace.values
    del trace
    if format == "svg":
        times = map(grid.node, range(0, grid.node_count, _MARKER_STRIDE))
        markers = [(t, named.exact(t, alpha)) for t in times]
        write_svg(grid, values, markers, output)
        return EXIT_OK
    blocks = _row_blocks(grid, values, _exact_column(named.exact, alpha, grid))
    write_csv(["t", "y_num", "y_exact", "abs_err"],
              ((t, y, ref, np.abs(y - ref)) for t, y, ref in blocks), output)
    return EXIT_OK


def cmd_convergence(
    problem: str,
    method: str,
    alpha: float,
    tau: float | None,
    h0: float,
    levels: int,
    output: str,
) -> int:
    """Write the step-halving error table for one problem/method."""
    named = get_problem(problem)
    pairs = refinement_errors(named, method, as_alpha(alpha), tau, h0, levels)
    steps, errors = (np.array(column) for column in zip(*pairs))
    # the order column is all str, so blank cells and numbers share a template
    orders = ["" if order is None else "%.17g" % order
              for order in [None, *halving_orders(errors.tolist())]]
    write_csv(["h", "endpoint_abs_error", "estimated_order"],
              [(steps, errors, orders)], output)
    return EXIT_OK


def cmd_compare(
    problem: str,
    alpha: float,
    tau: float | None,
    h: float,
    methods: Sequence[str],
    output: str,
) -> int:
    """Run several methods on one problem and write them side by side."""
    if len(methods) < 1:
        raise ValueError("compare needs at least one method")
    if len(set(methods)) != len(methods):
        raise ValueError(f"duplicate method in {','.join(methods)}")
    named = get_problem(problem)
    alpha = as_alpha(alpha)
    grids = [method_grid(named, m, alpha, tau, h) for m in methods]
    # only the values are written: each trace, predictors included, is let
    # go as soon as its run returns
    values = [solve_named(named, m, alpha, h, tau).values for m in methods]
    exact = _exact_column(named.exact, alpha, grids[0])
    write_csv(["t", *(f"y_{m}" for m in methods), "y_exact"],
              _row_blocks(grids[0], *values, exact), output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument handling


#: default of an option that has none: leaving it out is a usage error
_REQUIRED = object()

#: what a converter that raises ValueError expects, for the error message
_EXPECTS = {float: "a number", int: "an integer"}

# (converter, default, help) of the options several subcommands take
_PROBLEM = (str, _REQUIRED, "built-in problem id")
_METHOD = (str, _REQUIRED, " | ".join(METHODS))
_ALPHA = (float, _REQUIRED, f"fractional order in [{MIN_ORDER!r}, 1]")
_TAU = (float, None, "horizon (problem default when omitted)")
_STEP = (float, _REQUIRED, "step size")
_OUTPUT = (str, _REQUIRED, "output file path")

#: per subcommand, its help and its options, keyed as the ``cmd_*``
#: parameters are; each key, with ``_`` written ``-``, is a flag.  Options
#: are resolved in table order, so when several are at fault the first
#: one's message is the one shown
_OPTIONS = {
    "solve": ("run one solve and write CSV or SVG", {
        "problem": _PROBLEM,
        "method": _METHOD,
        "alpha": _ALPHA,
        "h": _STEP,
        "tau": _TAU,
        "output": _OUTPUT,
        "format": (str, "csv", "csv (default) or svg"),
    }),
    "convergence": ("step-halving error sweep to CSV", {
        "problem": _PROBLEM,
        "method": _METHOD,
        "alpha": _ALPHA,
        "tau": _TAU,
        "h0": (float, _REQUIRED, "coarsest step size"),
        "levels": (int, _REQUIRED, "number of halvings (>= 2)"),
        "output": _OUTPUT,
    }),
    "compare": ("side-by-side methods to CSV", {
        "methods": (lambda value: tuple(m.strip() for m in value.split(",")
                                        if m.strip()),
                    _REQUIRED, "comma-separated method list"),
        "problem": _PROBLEM,
        "alpha": _ALPHA,
        "tau": _TAU,
        "h": _STEP,
        "output": _OUTPUT,
    }),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _options(args: argparse.Namespace) -> dict[str, object]:
    """The subcommand's options: its flags over the table's defaults."""
    options = {}
    for key, (convert, default, _) in _OPTIONS[args.command][1].items():
        value = getattr(args, key)
        if value is None and default is _REQUIRED:
            raise ValueError(f"missing required option {_flag(key)}")
        try:
            options[key] = default if value is None else convert(value)
        except ValueError:
            raise ValueError(f"{_flag(key)} expects {_EXPECTS[convert]}, "
                             f"got {value!r}") from None
    return options


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confrac",
        description="Predictor-corrector solvers for conformable fractional "
        "initial value problems.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.add_parser("list", help="list built-in problems")
    for command, (summary, table) in _OPTIONS.items():
        p = sub.add_parser(command, help=summary)
        for key, (_, _, text) in table.items():
            p.add_argument(_flag(key), dest=key, help=text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "list":
            return cmd_list()
        run = {"solve": cmd_solve, "convergence": cmd_convergence,
               "compare": cmd_compare}[args.command]
        return run(**_options(args))
    except BlowUpError as exc:
        print(f"confrac: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ConfracError, ValueError) as exc:
        print(f"confrac: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"confrac: i/o failure: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
