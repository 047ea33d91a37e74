"""The benchmark's in-process replay must keep working against the package.

``benchmarks/traced.py`` wraps module-level names of ``confrac`` to record
per-layer spans; renaming or inlining one of them would silently empty the
trace.  These tests replay small workloads through it, unmodified, and
require the traced run to write exactly the bytes the untraced run writes.
"""

import importlib
from pathlib import Path

import pytest

import confrac.cli  # noqa: F401  (the replay resolves every layer through cf)
import confrac as cf

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def tooling(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("traced"), importlib.import_module("workloads")


def _replay_both(traced, invocation, tmp_path):
    plain, spanned = tmp_path / "plain", tmp_path / "traced"
    traced.replay(cf, invocation, str(plain))
    tracer = traced.Tracer()
    solves = traced.replay(cf, invocation, str(spanned), tracer)
    assert spanned.read_bytes() == plain.read_bytes()
    return tracer, solves


def test_traced_solve_matches_untraced(tooling, tmp_path):
    traced, workloads = tooling
    solve = workloads.Solve("example1", "0.5", "2", "0.01", "csv", 1e-3)
    tracer, solves = _replay_both(traced, solve, tmp_path)
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "problems.solve_named", "solvers.solve_conformable_pc",
            "core.make_grid", "cli.write_csv"} <= names
    assert [(s.kind, s.panels) for s in solves] == [("conformable", 200)]
    assert tracer.counters["problems.rhs"][0] > 0
    assert tracer.counters["problems.exact"][0] == solve.nodes
    assert traced.replay_coefficients(cf, tracer, solves) == 3 * 200


def test_traced_ladder_matches_untraced(tooling, tmp_path):
    traced, workloads = tooling
    # order band and limit only feed Ladder.check, which is not called here
    ladder = workloads.Ladder("example1", "0.5", "2", "0.04", 3, (0.0, 0.0), 0.0)
    tracer, solves = _replay_both(traced, ladder, tmp_path)
    names = {span[0] for span in tracer.spans}
    assert {"problems.refinement_errors", "problems.NamedProblem.caputo_problem",
            "solvers.solve_caputo_pc"} <= names
    assert [(s.kind, s.panels) for s in solves] == [
        ("caputo", 50), ("caputo", 100), ("caputo", 200)]
    assert tracer.counters["problems.rhs"][0] > 0


def test_traced_ladder_through_fft_matches_untraced(tooling, tmp_path):
    traced, workloads = tooling
    # 1,001 and 2,001 nodes: the second level runs past one 1,024-step leaf,
    # so its history sums go through the FFT kernels
    ladder = workloads.Ladder("example1", "0.5", "2", "0.002", 2, (0.0, 0.0), 0.0)
    tracer, solves = _replay_both(traced, ladder, tmp_path)
    assert "solvers.solve_caputo_pc" in {span[0] for span in tracer.spans}
    assert [(s.kind, s.panels) for s in solves] == [("caputo", 1000), ("caputo", 2000)]
