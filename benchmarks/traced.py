"""In-process replay of a workload through confrac's own CLI code.

The replay calls ``confrac.cli.main`` with each invocation's arguments, so
it runs exactly the code the ``confrac`` subprocesses run and its outputs
must equal theirs byte for byte.  Inside :func:`instrumented` the public
functions that code resolves at module level are wrapped for the duration
of the call: each call into a layer becomes a span (name, start, end,
parent), and the right-hand side and closed form -- which the solver and
the writers call back per node -- run through counting wrappers whose time
is charged to the enclosing span.  Outside it the same call runs bare,
which gives the untraced time the tracing overhead is measured against.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import ExitStack, contextmanager
from typing import NamedTuple
from unittest import mock

clock = time.perf_counter


class Tracer:
    """Spans held in memory as ``[name, start, end, parent, callback_s]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, clock(), None, parent, 0.0])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = clock()

    def spanned(self, name: str, fn):
        """Wrap a public function: every call becomes one span."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name: str, fn):
        """Wrap a per-node callback: count calls and time them."""
        counter = self.counters.setdefault(name, [0, 0.0])
        spans, open_spans = self.spans, self._open

        def wrapper(*args):
            start = clock()
            value = fn(*args)
            elapsed = clock() - start
            counter[0] += 1
            counter[1] += elapsed
            if open_spans:
                spans[open_spans[-1]][4] += elapsed
            return value

        return wrapper

    def durations(self, prefix: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0].startswith(prefix))

    def self_time(self, prefix: str) -> float:
        """Duration of the matching spans minus child spans and callbacks."""
        total = 0.0
        for index, (name, start, end, _, callback_s) in enumerate(self.spans):
            if name.startswith(prefix):
                children = sum(s[2] - s[1] for s in self.spans if s[3] == index)
                total += end - start - children - callback_s
        return total

    def top_level(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] is None)


class SolveRecord(NamedTuple):
    """One solver call seen by :func:`instrumented`."""

    kind: str  # "conformable" or "caputo"
    panels: int
    alpha: float
    endpoint_t: float
    endpoint: float

    @property
    def history_madds(self) -> int:
        # conformable: two running sums per step; Caputo step k: predictor
        # dot of length k plus corrector dot of length k - 1
        return 2 * self.panels if self.kind == "conformable" else self.panels**2


@contextmanager
def instrumented(cf, tracer: Tracer):
    """Wrap the names the CLI resolves; yields the list of solves it makes."""
    cli, problems, solvers = cf.cli, cf.problems, cf.solvers
    named_problem = problems.NamedProblem
    solves: list[SolveRecord] = []

    def counting_exact(named):
        if named.exact is None:
            return named
        return dataclasses.replace(named, exact=tracer.counted("problems.exact", named.exact))

    def counting_rhs(build):
        def wrapper(self, *args, **kwargs):
            base = build(self, *args, **kwargs)
            return dataclasses.replace(base, rhs=tracer.counted("problems.rhs", base.rhs))

        return wrapper

    def recorded(kind, solve):
        def wrapper(problem, h, *args):
            trace = solve(problem, h, *args)
            last = trace.grid.panel_count
            solves.append(SolveRecord(kind, last, problem.order.value,
                                      float(trace.grid.node(last)), trace.endpoint))
            return trace

        return wrapper

    get_problem = cli.get_problem
    wrappers = [
        (cli, "get_problem", "problems.get_problem",
         lambda problem_id: counting_exact(get_problem(problem_id))),
        (cli, "as_alpha", "core.as_alpha", cli.as_alpha),
        (cli, "solve_named", "problems.solve_named", cli.solve_named),
        (cli, "refinement_errors", "problems.refinement_errors", cli.refinement_errors),
        (cli, "write_csv", "cli.write_csv", cli.write_csv),
        (cli, "write_svg", "cli.write_svg", cli.write_svg),
        (named_problem, "problem", "problems.NamedProblem.problem",
         counting_rhs(named_problem.problem)),
        (named_problem, "caputo_problem", "problems.NamedProblem.caputo_problem",
         counting_rhs(named_problem.caputo_problem)),
        (problems, "solve_conformable_pc", "solvers.solve_conformable_pc",
         recorded("conformable", problems.solve_conformable_pc)),
        (problems, "solve_caputo_pc", "solvers.solve_caputo_pc",
         recorded("caputo", problems.solve_caputo_pc)),
        (solvers, "make_grid", "core.make_grid", solvers.make_grid),
    ]
    with ExitStack() as stack:
        for owner, attribute, span, fn in wrappers:
            stack.enter_context(mock.patch.object(owner, attribute, tracer.spanned(span, fn)))
        yield solves


def replay(cf, invocation, path: str, tracer: Tracer | None = None) -> list[SolveRecord]:
    """Run one invocation through ``confrac.cli.main``, traced when given a tracer."""
    argv = invocation.args(path)
    if tracer is None:
        solves, code = [], cf.cli.main(argv)
    else:
        with instrumented(cf, tracer) as solves, tracer.span("cli.main"):
            code = cf.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"confrac.cli.main exited {code} on {invocation.name}")
    return solves


def replay_coefficients(cf, tracer: Tracer, solves: list[SolveRecord]) -> int:
    """Call the public coefficient functions exactly as the solves consume them.

    The conformable step asks for the trapezoid tail, rectangle and trapezoid
    coefficients at every step; the Caputo step asks for the tail only.  The
    time is an outside estimate of the quadrature share of the solve.
    """
    q = cf.quadrature
    rect, trap, tail = q.rectangle_coefficient, q.trapezoid_coefficient, q.trapezoid_tail_coefficient
    evals = 0
    for solve in solves:
        a = solve.alpha
        with tracer.span("quadrature.coefficients"):
            if solve.kind == "conformable":
                for step in range(1, solve.panels + 1):
                    tail(step - 1, a)
                    rect(step, a)
                    trap(step, a)
                evals += 3 * solve.panels
            else:
                for step in range(1, solve.panels + 1):
                    tail(step - 1, a)
                evals += solve.panels
    return evals
