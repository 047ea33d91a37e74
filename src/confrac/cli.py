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
from typing import Sequence

import numpy as np

from .core import as_alpha
from .errors import BlowUpError, ConfracError
from .problems import (
    METHODS,
    _exact_column,
    _floats,
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

DEFAULT_MARKER_STRIDE = 90

#: polyline points are computed and written this many at a time, so no
#: string or list as long as the grid is ever held
_CHUNK = 4096


def write_csv(table, path: str) -> None:
    """Write a (header, rows) table as CSV, one row at a time.

    ``rows`` may be any iterable of tuples, a generator included: each row
    is formatted and written as it arrives, so no copy of the table is
    held.  One ``%``-template is built per table from the first row:
    ``%.17g`` (17 significant digits) for a float cell and ``%s`` for a
    str cell (empty string for a blank field), so every column must hold
    a single type, all float or all str.  Lines end with a single line
    feed.  A row that raises leaves a truncated file behind, so rows must
    only format values computed beforehand; the subcommands evaluate their
    closed forms before calling this.
    """
    header, rows = table
    rows = iter(rows)
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            first = next(rows, None)
            if first is None:
                return
            template = ",".join(
                "%s" if isinstance(cell, str) else "%.17g" for cell in first
            ) + "\n"
            fh.write(template % first)
            fh.writelines(map(template.__mod__, rows))
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


def write_svg(
    times: np.ndarray,
    values: np.ndarray,
    markers: np.ndarray,
    path: str,
    marker_stride: int,
) -> None:
    """Render a solution column as a static 800x600 SVG.

    ``values`` at the nodes ``times`` is drawn as a polyline; ``markers``,
    the exact solution at ``times[::marker_stride]`` (``marker_stride >=
    1``), appears as hollow circles, matching the sparse-marker figure
    style.  Markers and axes are computed first; the polyline's pixels are
    then computed and written ``_CHUNK`` points at a time, so no string or
    list as long as the grid is built.
    """
    marker_ys = markers.tolist()
    marker_points = list(zip(times[::marker_stride].tolist(), marker_ys))
    x_lo, x_hi = float(times[0]), float(times[-1])
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
    for t, v in marker_points:
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

    point = "%.2f,%.2f".__mod__
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(parts))
            fh.write('\n<polyline points="')
            for lo in range(0, len(times), _CHUNK):
                xs = px(times[lo:lo + _CHUNK]).tolist()
                ys = py(values[lo:lo + _CHUNK]).tolist()
                if lo:
                    fh.write(" ")
                fh.write(" ".join(map(point, zip(xs, ys))))
            fh.write(f'" fill="none" stroke="{_CURVE_COLOR}" '
                     f'stroke-width="1.5"/>\n')
            fh.write("\n".join(tail))
            fh.write("\n")
    except OSError as exc:
        raise ConfracError(f"cannot write {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand implementations


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
    marker_stride: int = DEFAULT_MARKER_STRIDE,
) -> int:
    """Run one solve and write its nodes, values and closed form as CSV or SVG."""
    if format not in ("csv", "svg"):
        raise ValueError(f"format must be csv or svg, got {format!r}")
    if marker_stride < 1:
        raise ValueError(f"marker stride must be >= 1, got {marker_stride}")
    named = get_problem(problem)
    alpha = as_alpha(alpha)
    # both formats read only times and values: the rest of the trace, its
    # predictors included, is let go before the node times are allocated
    trace = solve_named(named, method, alpha, h, tau)
    grid, values = trace.grid, trace.values
    del trace
    times = grid.nodes()
    if format == "svg":
        markers = _exact_column(named.exact, alpha, times[::marker_stride])
        write_svg(times, values, markers, output, marker_stride)
        return EXIT_OK
    columns = times, values, _exact_column(named.exact, alpha, times)
    rows = ((t, y, ref, abs(y - ref)) for t, y, ref in zip(*map(_floats, columns)))
    write_csv((["t", "y_num", "y_exact", "abs_err"], rows), output)
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
    orders = [None] + halving_orders([err for _, err in pairs])
    # the order column is all str, so blank cells and numbers share a template
    rows = ((h, err, "" if order is None else "%.17g" % order)
            for (h, err), order in zip(pairs, orders))
    write_csv((["h", "endpoint_abs_error", "estimated_order"], rows), output)
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
    times = grids[0].nodes()
    header = ["t", *(f"y_{m}" for m in methods), "y_exact"]
    columns = [times, *values, _exact_column(named.exact, alpha, times)]
    write_csv((header, zip(*map(_floats, columns))), output)
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
_ALPHA = (float, _REQUIRED, "fractional order in (0, 1]")
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
        "marker_stride": (int, DEFAULT_MARKER_STRIDE,
                          "node stride between exact-solution markers (svg)"),
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
