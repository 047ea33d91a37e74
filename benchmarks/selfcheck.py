#!/usr/bin/env python3
"""Show that the benchmark's output checks count corrupted outputs as failures.

    python3 benchmarks/selfcheck.py

Runs the CLI once for a paper-figures CSV and SVG and for the Caputo
ladder, checks that the genuine outputs pass, then that each corrupted copy
fails.  Prints every metric the benchmark reports, with its unit.  Exits 0
when every case behaves as expected, 1 otherwise, 2 without a source tree.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from run import END_TO_END, PER_LAYER, SRC, WORK, Runner
from workloads import PAPER_FIGURES, WORKLOADS


def _replace_line(data: bytes, index: int, edit) -> bytes:
    lines = data.split(b"\n")
    lines[index] = edit(lines[index].decode()).encode()
    return b"\n".join(lines)


def _bump_y_num(line: str) -> str:
    fields = line.split(",")
    fields[1] = f"{np.nextafter(float(fields[1]), np.inf):.17g}"
    return ",".join(fields)


def _shift_y_num_consistently(line: str) -> str:
    # moves y_num by 1e-4 and patches abs_err to match, so only the
    # independent closed form can notice
    t, y_num, y_exact, _ = (float(f) for f in line.split(","))
    y_num += 1e-4
    return ",".join(f"{v:.17g}" for v in (t, y_num, y_exact, abs(y_num - y_exact)))


def _drop_point(svg: bytes) -> bytes:
    head, sep, rest = svg.partition(b'points="')
    first, _, points = rest.partition(b" ")
    return head + sep + points


def _drop_marker(svg: bytes) -> bytes:
    start = svg.index(b"<circle")
    return svg[:start] + svg[svg.index(b"\n", start) + 1:]


def _bump_level(line: str, by: float = 1e-3) -> str:
    h, err, order = line.split(",")
    return ",".join((h, f"{float(err) + by:.17g}", order))


def _shift_every_level(ladder: bytes) -> bytes:
    # the same offset at every level cancels in every difference and order
    lines = ladder.split(b"\n")
    body = [_bump_level(line.decode(), 1e-2).encode() for line in lines[1:-1]]
    return b"\n".join([lines[0], *body, lines[-1]])


def main() -> int:
    if not (SRC / "confrac" / "__init__.py").is_file():
        print(f"selfcheck: no confrac source tree at {SRC}", file=sys.stderr)
        return 2
    csv = next(s for s in PAPER_FIGURES if s.problem == "example1" and s.format == "csv")
    svg = next(s for s in PAPER_FIGURES if s.problem == "example1" and s.format == "svg")
    ladder = WORKLOADS["caputo-ladder"][0]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=WORK)
    try:
        outputs = {}
        with Runner(Path(workdir), time.perf_counter()) as runner:
            for inv in (csv, svg, ladder):
                outcome = runner.cli(*inv.args(inv.name))
                if outcome.exit_code != 0:
                    print(f"selfcheck: {inv.name} exited {outcome.exit_code}", file=sys.stderr)
                    return 1
                outputs[inv] = (runner.workdir / inv.name).read_bytes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    c, s, l = outputs[csv], outputs[svg], outputs[ladder]
    cases = [
        ("genuine CSV", csv, c, True),
        ("genuine SVG", svg, s, True),
        ("genuine Caputo ladder", ladder, l, True),
        ("CSV truncated mid-line", csv, c[:-40], False),
        ("CSV missing its last row", csv, c[: c.rindex(b"\n", 0, -1) + 1], False),
        ("one y_num perturbed by one ulp", csv, _replace_line(c, 1000, _bump_y_num), False),
        ("one y_num off by 1e-4, abs_err patched", csv,
         _replace_line(c, 1000, _shift_y_num_consistently), False),
        ("SVG missing one polyline point", svg, _drop_point(s), False),
        ("SVG missing one marker", svg, _drop_marker(s), False),
        ("SVG truncated (not well-formed)", svg, s[:-10], False),
        ("ladder finest level perturbed", ladder, _replace_line(l, -2, _bump_level), False),
        ("ladder shifted by 1e-2 at every level", ladder, _shift_every_level(l), False),
    ]
    all_ok = True
    for label, inv, data, should_pass in cases:
        verdict = inv.check(data)
        ok = verdict.ok == should_pass
        all_ok &= ok
        outcome = "passes" if verdict.ok else f"fails ({verdict.reason})"
        print(f"{'ok  ' if ok else 'BAD '} {label}: {outcome}")

    print("metrics reported with --trace 0:")
    for name, (unit, meaning) in END_TO_END.items():
        print(f"  {name:<24} {unit:<6} {meaning}")
    print("metrics reported with --trace 1:")
    for name, (unit, meaning) in PER_LAYER.items():
        print(f"  {name:<24} {unit:<6} {meaning}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
