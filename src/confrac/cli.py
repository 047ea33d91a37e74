"""Command-line front end.

Subcommands: ``list`` (show built-in problems), ``solve`` (one run to CSV
or SVG), ``convergence`` (step-halving sweep to CSV), ``compare``
(side-by-side methods to CSV).  Exit codes: 0 success, 2 usage or domain
error, 3 solver blow-up.

Numbers are written with 17 significant digits so the text round-trips
doubles losslessly; repeated runs of the same spec produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import as_alpha
from .errors import BlowUpError, ConfracError
from .problems import (
    builtin_problems,
    get_problem,
    halving_orders,
    method_grid,
    refinement_errors,
    solve_named,
)
from .solvers import SolutionTrace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BLOWUP = 3

DEFAULT_MARKER_STRIDE = 90

#: rows and polyline points are converted to Python floats this many at a
#: time, so no list as long as the grid is ever held
_CHUNK = 4096


def _floats(column: np.ndarray):
    """The entries of a float64 array as Python floats, ``_CHUNK`` at a time."""
    return chain.from_iterable(column[lo:lo + _CHUNK].tolist()
                               for lo in range(0, len(column), _CHUNK))


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


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5 spacing."""
    span = hi - lo
    if not span > 0.0:
        return [lo]
    raw = span / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 5.0):
        if span / (mult * magnitude) <= target:
            step = mult * magnitude
            break
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    return [k * step for k in range(first, last + 1)]


def _tick_label(value: float) -> str:
    if abs(value) < 1e-12:
        return "0"
    return f"{value:.6g}"


def write_svg(
    trace: SolutionTrace,
    exact: Callable[[float], float] | None,
    path: str,
    marker_stride: int = DEFAULT_MARKER_STRIDE,
) -> None:
    """Render a trace as a static 800x600 SVG.

    The numeric solution is a polyline; the exact solution, when a sampler
    is given, appears as hollow circles at every ``marker_stride``-th node,
    matching the sparse-marker figure style.  Markers and axes are computed
    first; the polyline's pixels are then computed and written ``_CHUNK``
    points at a time, so no string or list as long as the grid is built.
    """
    if marker_stride < 1:
        raise ValueError(f"marker stride must be >= 1, got {marker_stride}")
    times = trace.times()
    values = trace.values
    marker_points: list[tuple[float, float]] = []
    if exact is not None:
        for i in range(0, len(times), marker_stride):
            marker_points.append((float(times[i]), float(exact(float(times[i])))))

    x_lo, x_hi = float(times[0]), float(times[-1])
    marker_ys = [y for _, y in marker_points]
    y_lo = min([float(values.min())] + marker_ys)
    y_hi = max([float(values.max())] + marker_ys)
    x_pad = 0.05 * (x_hi - x_lo) if x_hi > x_lo else 0.5
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

    for tick in _nice_ticks(x_lo, x_hi):
        if tick < x_lo or tick > x_hi:
            continue
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_SVG_H - _MARGIN_B}" x2="{x:.2f}" '
            f'y2="{_SVG_H - _MARGIN_B + 6}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_SVG_H - _MARGIN_B + 20}" {font} '
            f'text-anchor="middle">{_tick_label(tick)}</text>'
        )
    for tick in _nice_ticks(y_lo, y_hi):
        if tick < y_lo or tick > y_hi:
            continue
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 6}" y1="{y:.2f}" x2="{_MARGIN_L}" '
            f'y2="{y:.2f}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 10}" y="{y + 4:.2f}" {font} '
            f'text-anchor="end">{_tick_label(tick)}</text>'
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
    if marker_points:
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


def _exact_column(exact, alpha, times: np.ndarray) -> np.ndarray:
    """The closed form at every node, one call per node, as a float64 array.

    Filled before any output file is opened, so a closed form that raises
    on a late node leaves no partial file.
    """
    return np.fromiter((exact(t, alpha) for t in _floats(times)), float,
                       len(times))


def cmd_solve(
    problem_id: str,
    method: str,
    alpha: float,
    h: float,
    tau: float | None,
    output_path: str,
    fmt: str = "csv",
    marker_stride: int = DEFAULT_MARKER_STRIDE,
) -> int:
    """Run one solve and write its trace as CSV or SVG."""
    if fmt not in ("csv", "svg"):
        raise ValueError(f"format must be csv or svg, got {fmt!r}")
    if marker_stride < 1:
        raise ValueError(f"marker stride must be >= 1, got {marker_stride}")
    named = get_problem(problem_id)
    alpha = as_alpha(alpha)
    trace = solve_named(named, method, alpha, h, tau)
    if fmt == "svg":
        sampler = None
        if named.exact is not None:
            exact = named.exact
            sampler = lambda t: exact(t, alpha)  # noqa: E731
        write_svg(trace, sampler, output_path, marker_stride)
        return EXIT_OK
    times = trace.times()
    if named.exact is not None:
        header = ["t", "y_num", "y_exact", "abs_err"]
        columns = times, trace.values, _exact_column(named.exact, alpha, times)
        rows = ((t, y, ref, abs(y - ref))
                for t, y, ref in zip(*map(_floats, columns)))
    else:
        header = ["t", "y_num"]
        rows = zip(_floats(times), _floats(trace.values))
    write_csv((header, rows), output_path)
    return EXIT_OK


def cmd_convergence(
    problem_id: str,
    method: str,
    alpha: float,
    tau: float | None,
    h0: float,
    levels: int,
    output_path: str,
) -> int:
    """Write the step-halving error table for one problem/method."""
    named = get_problem(problem_id)
    pairs = refinement_errors(named, method, as_alpha(alpha), tau, h0, levels)
    orders = [None] + halving_orders([err for _, err in pairs])
    # the order column is all str, so blank cells and numbers share a template
    rows = ((h, err, "" if order is None else "%.17g" % order)
            for (h, err), order in zip(pairs, orders))
    write_csv((["h", "endpoint_abs_error", "estimated_order"], rows), output_path)
    return EXIT_OK


def cmd_compare(
    problem_id: str,
    alpha: float,
    tau: float | None,
    h: float,
    methods: Sequence[str],
    output_path: str,
) -> int:
    """Run several methods on one problem and write them side by side."""
    if len(methods) < 1:
        raise ValueError("compare needs at least one method")
    if len(set(methods)) != len(methods):
        raise ValueError(f"duplicate method in {','.join(methods)}")
    named = get_problem(problem_id)
    alpha = as_alpha(alpha)
    for m in methods:
        method_grid(named, m, alpha, tau, h)
    traces = [solve_named(named, m, alpha, h, tau) for m in methods]
    header = ["t"] + [f"y_{m}" for m in methods]
    times = traces[0].times()
    columns = [times] + [trace.values for trace in traces]
    if named.exact is not None:
        header.append("y_exact")
        columns.append(_exact_column(named.exact, alpha, times))
    write_csv((header, zip(*map(_floats, columns))), output_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument handling


def _read_spec_file(path: str) -> dict[str, str]:
    """Parse a key = value manifest; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read spec file {path!r}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        values[key] = value
    return values


def _resolve(args: argparse.Namespace, keys: Sequence[str]) -> dict[str, str | None]:
    """Merge CLI flags over spec-file values; flags win."""
    from_file: dict[str, str] = {}
    if getattr(args, "spec", None):
        from_file = _read_spec_file(args.spec)
        unknown = sorted(set(from_file) - set(keys))
        if unknown:
            raise ValueError(
                f"spec file sets keys not used by this command: {', '.join(unknown)}"
            )
    merged: dict[str, str | None] = {}
    for key in keys:
        flag_value = getattr(args, key, None)
        merged[key] = flag_value if flag_value is not None else from_file.get(key)
    return merged


def _require(merged: dict[str, str | None], key: str) -> str:
    value = merged.get(key)
    if value is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return value


def _to_float(name: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"--{name} expects a number, got {value!r}") from None


def _to_int(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"--{name} expects an integer, got {value!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confrac",
        description="Predictor-corrector solvers for conformable fractional "
        "initial value problems.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    sub.add_parser("list", help="list built-in problems")

    solve = sub.add_parser("solve", help="run one solve and write CSV or SVG")
    convergence = sub.add_parser(
        "convergence", help="step-halving error sweep to CSV"
    )
    compare = sub.add_parser("compare", help="side-by-side methods to CSV")

    for p in (solve, convergence, compare):
        p.add_argument("--problem", help="built-in problem id")
        p.add_argument("--alpha", help="fractional order in (0, 1]")
        p.add_argument("--tau", help="horizon (problem default when omitted)")
        p.add_argument("--output", help="output file path")
        p.add_argument("--spec", help="key = value manifest; flags override it")
    for p in (solve, convergence):
        p.add_argument("--method", help="classical | conformable | caputo")
    solve.add_argument("--h", help="step size")
    solve.add_argument("--format", help="csv (default) or svg")
    solve.add_argument("--marker-stride", dest="marker_stride",
                       help="node stride between exact-solution markers (svg)")
    convergence.add_argument("--h0", help="coarsest step size")
    convergence.add_argument("--levels", help="number of halvings (>= 2)")
    compare.add_argument("--h", help="step size")
    compare.add_argument("--methods", help="comma-separated method list")
    return parser


def _run_solve(args: argparse.Namespace) -> int:
    merged = _resolve(
        args,
        ("problem", "method", "alpha", "h", "tau", "output", "format",
         "marker_stride"),
    )
    tau = merged.get("tau")
    stride = merged.get("marker_stride")
    return cmd_solve(
        problem_id=_require(merged, "problem"),
        method=_require(merged, "method"),
        alpha=_to_float("alpha", _require(merged, "alpha")),
        h=_to_float("h", _require(merged, "h")),
        tau=None if tau is None else _to_float("tau", tau),
        output_path=_require(merged, "output"),
        fmt=merged.get("format") or "csv",
        marker_stride=DEFAULT_MARKER_STRIDE
        if stride is None
        else _to_int("marker-stride", stride),
    )


def _run_convergence(args: argparse.Namespace) -> int:
    merged = _resolve(
        args, ("problem", "method", "alpha", "tau", "h0", "levels", "output")
    )
    tau = merged.get("tau")
    return cmd_convergence(
        problem_id=_require(merged, "problem"),
        method=_require(merged, "method"),
        alpha=_to_float("alpha", _require(merged, "alpha")),
        tau=None if tau is None else _to_float("tau", tau),
        h0=_to_float("h0", _require(merged, "h0")),
        levels=_to_int("levels", _require(merged, "levels")),
        output_path=_require(merged, "output"),
    )


def _run_compare(args: argparse.Namespace) -> int:
    merged = _resolve(args, ("problem", "alpha", "tau", "h", "methods", "output"))
    tau = merged.get("tau")
    methods = tuple(
        m.strip() for m in _require(merged, "methods").split(",") if m.strip()
    )
    return cmd_compare(
        problem_id=_require(merged, "problem"),
        alpha=_to_float("alpha", _require(merged, "alpha")),
        tau=None if tau is None else _to_float("tau", tau),
        h=_to_float("h", _require(merged, "h")),
        methods=methods,
        output_path=_require(merged, "output"),
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "list":
            return cmd_list()
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "convergence":
            return _run_convergence(args)
        return _run_compare(args)
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
