"""Workload definitions and the independent checks applied to every output.

A workload is a fixed list of ``confrac`` CLI invocations.  Every output an
invocation writes is checked here without trusting anything the CLI
computed about itself: closed forms are re-evaluated with numpy, grids are
rebuilt from the step, and the SVG is parsed as XML.  A check returns a
:class:`Verdict`; its ``error`` feeds the ``max_abs_error`` metric.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

#: closed forms, written independently of ``confrac.problems``
CLOSED_FORMS = {
    "example1": lambda t, a: np.exp(t ** (a + 1.0) / (a + 1.0)),
    "example2": lambda t, a: np.tan(t**a / a),
    "example3": lambda t, a: 1.0 / (1.0 + t**a),
}

#: the CLI draws an exact-solution marker at every 90th node by default
MARKER_STRIDE = 90

#: largest vertical gap, in pixels, allowed between an exact-solution marker
#: and the numeric polyline at the same node; a visible misplot fails
SVG_MARKER_GAP_PX = 0.5

#: the CSV's ``y_exact`` column may differ from numpy's closed form by
#: last-place rounding of ``math`` versus numpy, nothing more
Y_EXACT_RTOL = 1e-12


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    error: float | None = None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Solve:
    """One ``confrac solve`` run; the strings are passed to the CLI verbatim.

    ``max_error`` is 2x the largest |y_num - closed form| measured at the
    seed commit, so an accuracy loss of more than 2x counts as a failure.
    """

    problem: str
    alpha: str
    tau: str
    h: str
    format: str
    max_error: float

    @property
    def name(self) -> str:
        return f"solve-{self.problem}-a{self.alpha}-tau{self.tau}-h{self.h}.{self.format}"

    @property
    def nodes(self) -> int:
        return round(float(self.tau) / float(self.h)) + 1

    def args(self, output: str) -> list[str]:
        args = ["solve", "--problem", self.problem, "--method", "conformable",
                "--alpha", self.alpha, "--tau", self.tau, "--h", self.h,
                "--output", output]
        if self.format == "svg":
            args += ["--format", "svg"]
        return args

    def check(self, data: bytes) -> Verdict:
        if self.format == "csv":
            return check_solution_csv(data, self)
        return check_solution_svg(data, self)


@dataclass(frozen=True)
class Ladder:
    """One ``confrac convergence --method caputo`` step-halving run.

    The CLI's ``endpoint_abs_error`` column is the distance of the Caputo
    endpoint to the *conformable* closed form (see NOTES.md), so the check
    uses self-convergence: successive endpoint differences must shrink with
    observed orders inside ``order_band``, and the Richardson-extrapolated
    limit of the distances must lie within one finest-level difference of
    ``limit``.  Both are frozen at the seed commit: the orders pin the rate
    of convergence, the limit pins what it converges to.
    """

    problem: str
    alpha: str
    tau: str
    h0: str
    levels: int
    order_band: tuple[float, float]
    limit: float

    @property
    def name(self) -> str:
        return f"convergence-caputo-{self.problem}-a{self.alpha}-h0{self.h0}-L{self.levels}.csv"

    @property
    def nodes(self) -> int:
        first = round(float(self.tau) / float(self.h0))
        return sum(first * 2**k + 1 for k in range(self.levels))

    def args(self, output: str) -> list[str]:
        return ["convergence", "--problem", self.problem, "--method", "caputo",
                "--alpha", self.alpha, "--tau", self.tau, "--h0", self.h0,
                "--levels", str(self.levels), "--output", output]

    def check(self, data: bytes) -> Verdict:
        return check_caputo_ladder(data, self)


PAPER_FIGURES = tuple(
    Solve(problem, alpha, tau, "0.001", fmt, max_error)
    for problem, alpha, tau, max_error in (
        ("example1", "0.5", "2", 1.2e-5),
        ("example2", "0.5", "0.5", 1.2e-3),
        ("example3", "0.7", "2", 2.5e-5),
    )
    for fmt in ("svg", "csv")
)

WORKLOADS = {
    # The stepping loop and its scalar coefficient calls dominate; CSV
    # evaluates the closed form at every node and writes 17 digits, SVG
    # samples every 90th node, so the two formats load the CLI differently.
    "long-solve": (
        Solve("example1", "0.5", "2", "2e-5", "csv", 4.6e-9),
        Solve("example1", "0.5", "2", "2e-5", "svg", 4.6e-9),
    ),
    # O(n^2) Caputo history dot products dominate; output and per-step
    # coefficient calls are negligible, so conformable-only changes should
    # not move it and a faster convolution should.
    "caputo-ladder": (
        Ladder("example1", "0.5", "2", "0.04", 10, (1.23, 1.54), 33.39932681),
    ),
    # The README's three plot configurations: short grids where interpreter
    # start-up and imports dominate each run.
    "paper-figures": PAPER_FIGURES,
}

#: sha256 of every output at the seed commit; a mismatch is reported as
#: byte drift, not as a failure, because an explained output change is
#: allowed
REFERENCE_SHA256 = {
    "convergence-caputo-example1-a0.5-h00.04-L10.csv":
        "07616d5011b597c77cf61119105cdedaf793f9d598c1970f6e36225b885d4156",
    "solve-example1-a0.5-tau2-h0.001.csv":
        "740bc1c86e20c8941dad593cd3808a9fd787a192cce20427f00fc95bee580b52",
    "solve-example1-a0.5-tau2-h0.001.svg":
        "29141e0a2e4ae5eed3715d3be95048b9e95e7b6091cfee7615b84ad36493cfab",
    "solve-example1-a0.5-tau2-h2e-5.csv":
        "31982c33e4cd4777714a1742e9476bf3d302230ba142f4742d6575c093c6b2ed",
    "solve-example1-a0.5-tau2-h2e-5.svg":
        "198622948a9678e22416254cb91deeab1fe7faa1ab1cc8fe588a0a50d1b0c885",
    "solve-example2-a0.5-tau0.5-h0.001.csv":
        "f5691826eb760fd4dc7baf0d40084235951406ea862219f3f8d9cce26b1b6c8d",
    "solve-example2-a0.5-tau0.5-h0.001.svg":
        "34435f045b31b99e3a8315c40d4e49dfe17f00575051282afde8fcea521d1107",
    "solve-example3-a0.7-tau2-h0.001.csv":
        "8750e30bc3aadcba7dc471af5f550bc680e44f967807223385b0988fd0e40383",
    "solve-example3-a0.7-tau2-h0.001.svg":
        "2fce447b3983cd3540e08216de03020f24b0a8f2ba49bf193aad04b765fa6da5",
}


def _split_csv(data: bytes, header: str, rows: int) -> list[list[str]] | Verdict:
    """Split a CLI CSV into rows of fields, or say why it is malformed."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return Verdict(False, "not ASCII")
    if not text.endswith("\n"):
        return Verdict(False, "no final line feed (truncated)")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        return Verdict(False, f"header {lines[0]!r} != {header!r}")
    if len(lines) - 1 != rows:
        return Verdict(False, f"{len(lines) - 1} data rows, expected {rows}")
    fields = [line.split(",") for line in lines[1:]]
    width = header.count(",") + 1
    if any(len(row) != width for row in fields):
        return Verdict(False, f"a row does not have {width} fields")
    return fields


def _floats(fields: list[list[str]]) -> np.ndarray | Verdict:
    try:
        return np.array(fields, dtype=float)
    except ValueError as exc:
        return Verdict(False, f"unparseable number: {exc}")


def check_solution_csv(data: bytes, solve: Solve) -> Verdict:
    fields = _split_csv(data, "t,y_num,y_exact,abs_err", solve.nodes)
    if isinstance(fields, Verdict):
        return fields
    table = _floats(fields)
    if isinstance(table, Verdict):
        return table
    t, y_num, y_exact, abs_err = table.T
    if not np.all(np.isfinite(table)):
        return Verdict(False, "non-finite value")
    if not np.array_equal(t, float(solve.h) * np.arange(solve.nodes)):
        return Verdict(False, "t column is not the uniform grid")
    exact = CLOSED_FORMS[solve.problem](t, float(solve.alpha))
    if not np.allclose(y_exact, exact, rtol=Y_EXACT_RTOL, atol=0.0):
        return Verdict(False, "y_exact column disagrees with the closed form")
    if not np.array_equal(abs_err, np.abs(y_num - y_exact)):
        return Verdict(False, "abs_err column is not |y_num - y_exact|")
    error = float(np.max(np.abs(y_num - exact)))
    if not error <= solve.max_error:
        return Verdict(False, f"max |y_num - exact| {error:.3e} > {solve.max_error:.1e}", error)
    return Verdict(True, error=error)


def _points(polyline: ET.Element) -> np.ndarray:
    pairs = [p.split(",") for p in polyline.get("points", "").split()]
    return np.array(pairs, dtype=float).reshape(len(pairs), 2)


def check_solution_svg(data: bytes, solve: Solve) -> Verdict:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return Verdict(False, f"malformed SVG: {exc}")
    ns = "{http://www.w3.org/2000/svg}"
    if root.tag != f"{ns}svg":
        return Verdict(False, f"root element is {root.tag!r}")
    polylines = root.findall(f"{ns}polyline")
    if len(polylines) != 1:
        return Verdict(False, f"{len(polylines)} polylines, expected 1")
    try:
        points = _points(polylines[0])
    except ValueError as exc:
        return Verdict(False, f"bad polyline points: {exc}")
    if len(points) != solve.nodes:
        return Verdict(False, f"{len(points)} polyline points, expected {solve.nodes}")
    if not np.all(np.isfinite(points)) or np.any(np.diff(points[:, 0]) < 0):
        return Verdict(False, "polyline is not a finite curve over increasing t")
    marker_nodes = range(0, solve.nodes, MARKER_STRIDE)
    # the last circle is the legend's
    circles = root.findall(f"{ns}circle")[:-1]
    if len(circles) != len(marker_nodes):
        return Verdict(False, f"{len(circles)} markers, expected {len(marker_nodes)}")
    try:
        markers = np.array([(float(c.get("cx")), float(c.get("cy"))) for c in circles])
    except (TypeError, ValueError):
        return Verdict(False, "a marker has no numeric position")
    on_curve = points[list(marker_nodes)]
    if not np.array_equal(markers[:, 0], on_curve[:, 0]):
        return Verdict(False, "markers are not at every 90th node")
    gap = float(np.max(np.abs(markers[:, 1] - on_curve[:, 1])))
    if not gap <= SVG_MARKER_GAP_PX:
        return Verdict(False, f"marker sits {gap:.2f} px off the curve")
    return Verdict(True)


def check_caputo_ladder(data: bytes, ladder: Ladder) -> Verdict:
    fields = _split_csv(data, "h,endpoint_abs_error,estimated_order", ladder.levels)
    if isinstance(fields, Verdict):
        return fields
    # the coarsest level has no order, so its third field is blank
    table = _floats([row[:2] for row in fields])
    if isinstance(table, Verdict):
        return table
    h, distance = table.T
    if not np.array_equal(h, float(ladder.h0) / 2.0 ** np.arange(ladder.levels)):
        return Verdict(False, "h column is not the halving ladder")
    if not np.all(np.isfinite(distance)):
        return Verdict(False, "non-finite endpoint distance")
    # Every Caputo endpoint lies above the conformable closed form E (the
    # traced run verifies this from the solves themselves), so
    # distance = y_h - E and successive differences of the distance are
    # the self-convergence differences |y_h - y_{h/2}|.
    steps = np.diff(distance)
    diffs = np.abs(steps)
    if not np.all(diffs[1:] < diffs[:-1]):
        return Verdict(False, "endpoint differences do not shrink")
    orders = np.log2(diffs[:-1] / diffs[1:])
    lo, hi = ladder.order_band
    if not (np.all(orders >= lo) and np.all(orders <= hi)):
        return Verdict(False, f"orders {orders.min():.3f}..{orders.max():.3f} leave [{lo}, {hi}]")
    # Differences alone miss an error that is the same at every level (a
    # wrong scale or offset that converges at the right rate), so the
    # extrapolated limit is anchored too.
    limit = distance[-1] + steps[-1] / (2.0 ** orders[-1] - 1.0)
    if not abs(limit - ladder.limit) <= diffs[-1]:
        return Verdict(False, f"extrapolated limit {limit:.9g} is more than {diffs[-1]:.2e} "
                              f"from {ladder.limit:.10g}")
    return Verdict(True, error=float(diffs[-1]))


def check_list(data: bytes) -> Verdict:
    ids = [line.split()[0] for line in data.decode("ascii", "replace").splitlines()
           if line.strip()]
    if ids != ["expkernel", "example1", "example2", "example3"]:
        return Verdict(False, f"list printed {ids}")
    return Verdict(True)
