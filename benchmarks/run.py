#!/usr/bin/env python3
"""confrac benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (nothing needs installing; the
children import ``confrac`` from ``src/``):

    python3 benchmarks/run.py --workload long-solve --seed 1 --seconds 40 --trace 0
    python3 benchmarks/selfcheck.py

``--trace 0`` runs the workload's ``confrac`` subprocesses one at a time,
over and over for ``--seconds``, checks every output and reports the
end-to-end metrics.  ``--trace 1`` also replays each pass in-process
through the public functions of every layer, with spans, and reports the
per-layer metrics.  ``--seed`` only orders the invocations within a pass:
the inputs are fixed.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record (spans,
hashes, environment) goes to ``.bench_work/results/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import CLOSED_FORMS, REFERENCE_SHA256, WORKLOADS, Ladder, Verdict, check_list, sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: (unit, what it measures); every one is reported with --trace 0
END_TO_END = {
    "wall_s": ("s", "median wall time of one pass over the workload's CLI invocations"),
    "setup_s": ("s", "median wall time of `confrac list` in a fresh interpreter"),
    "peak_rss_mb": ("MB", "median over passes of the largest child max-RSS"),
    "max_abs_error": ("1", "largest |y_num - closed form|; caputo-ladder: finest |y_h - y_h/2|"),
    "pass_ratio": ("ratio", "1 - failed/attempted invocations"),
}

#: (unit, the end-to-end metric and workload it should move); --trace 1
PER_LAYER = {
    "core.grid_nodes": ("count", "work count: the base of every per-node ratio"),
    "quadrature.coeff_evals": ("count", "wall_s on long-solve; ~0 on caputo-ladder"),
    "quadrature.coeff_s": ("s", "wall_s on long-solve (outside estimate of the quadrature share of solvers.solve_s)"),
    "quadrature.ns_per_coeff": ("ns", "wall_s on long-solve (outside estimate)"),
    "solvers.steps": ("count", "wall_s on long-solve and caputo-ladder"),
    "solvers.solve_s": ("s", "wall_s on long-solve and caputo-ladder"),
    "solvers.self_s": ("s", "wall_s on long-solve and caputo-ladder (solve_s - problems.rhs_s)"),
    "solvers.ns_per_step": ("ns", "wall_s on long-solve and caputo-ladder (solve_s / steps)"),
    "solvers.history_madds": ("count", "wall_s on caputo-ladder (computed from n: 2/step conformable, n^2 Caputo)"),
    "problems.rhs_calls": ("count", "wall_s on long-solve"),
    "problems.rhs_s": ("s", "wall_s on long-solve"),
    "problems.exact_calls": ("count", "wall_s on long-solve (one closed-form call per CSV row)"),
    "problems.exact_s": ("s", "wall_s on long-solve"),
    "cli.format_s": ("s", "wall_s and peak_rss_mb on long-solve"),
    "cli.output_bytes": ("bytes", "wall_s and peak_rss_mb on long-solve"),
    "cli.startup_s": ("s", "setup_s on every workload; most of wall_s on paper-figures"),
    "cli.numpy_import_s": ("s", "setup_s on every workload; most of wall_s on paper-figures"),
    "trace.unattributed_s": ("s", "replay time outside every top-level span (patching and glue)"),
    "trace.overhead_s": ("s", "traced replay wall minus untraced replay wall"),
}

#: a run must exit within 180 s; nothing new starts after this, which leaves
#: room for a traced replay already under way (about 8 s on long-solve)
RUN_DEADLINE_S = 150.0
INVOCATION_TIMEOUT_S = 120.0
#: `confrac list` runs this many times in a row before the first pass and
#: again after the last, so no workload invocation runs just before a sample
SETUP_BLOCK = 8
#: pause before the closing set-up block, after the last pass's outputs are
#: deleted, so their write-back and the last child's exit have settled
SETUP_SETTLE_S = 1.0
MIN_NUMPY_SAMPLES = 5

NUMPY_PROBE = (
    "import time; t = time.perf_counter(); import numpy; "
    "print(time.perf_counter() - t)"
)
WHERE_PROBE = "import confrac, numpy; print(confrac.__file__)"


class SetupError(Exception):
    """The checkout cannot run the benchmark (no source tree, wrong import)."""


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


class Runner:
    """Runs Python children one at a time from a work dir, via ``spawn.py``.

    The children import ``confrac`` from ``src/``; the launcher keeps the
    benchmark's own memory out of their max-RSS.  Use as a context manager:
    leaving it closes the launcher and waits for it to exit.
    """

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.deadline = started + RUN_DEADLINE_S
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def python(self, *args: str) -> Outcome:
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        request = {"argv": [sys.executable, *args], "cwd": str(self.workdir),
                   "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": min(INVOCATION_TIMEOUT_S, self.deadline - time.perf_counter())}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise SetupError("the child launcher exited")
        reply = json.loads(reply)
        return Outcome(reply["wall_s"], reply["rss_kb"] / 1024.0, reply["exit"],
                       reply["timed_out"], out_path.read_bytes(), err_path.read_bytes())

    def cli(self, *args: str) -> Outcome:
        return self.python("-m", "confrac.cli", *args)


@dataclass
class Tally:
    """Everything one run observed, kept for the metrics and the record."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    pass_walls: list = field(default_factory=list)
    pass_rss: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    checked: dict = field(default_factory=dict)
    invocations: list = field(default_factory=list)

    def verdict(self, name: str, verdict: Verdict) -> bool:
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.failures.append(f"{name}: {verdict.reason}")
        return verdict.ok


def sample_setup(runner: Runner, tally: Tally) -> None:
    """Time SETUP_BLOCK runs of `confrac list`, one after the other."""
    for _ in range(SETUP_BLOCK):
        if runner.expired():
            return
        outcome = runner.cli("list")
        if outcome.exit_code != 0:
            verdict = Verdict(False, _exit_reason(outcome))
        else:
            verdict = check_list(outcome.stdout)
        if tally.verdict("list", verdict):
            tally.setup.append(outcome.wall_s)


def _exit_reason(outcome: Outcome) -> str:
    if outcome.timed_out:
        return "timed out"
    tail = outcome.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
    return f"exit {outcome.exit_code}: {' '.join(tail)}"


def cli_pass(runner: Runner, tally: Tally, invocations, rng: random.Random) -> dict:
    """One pass over the workload's invocations in a seeded order."""
    order = list(invocations)
    rng.shuffle(order)
    wall, rss, outputs = 0.0, 0.0, {}
    for inv in order:
        path = runner.workdir / inv.name
        path.unlink(missing_ok=True)
        outcome = runner.cli(*inv.args(inv.name))
        wall += outcome.wall_s
        rss = max(rss, outcome.rss_mb)
        digest = None
        if outcome.exit_code != 0:
            verdict = Verdict(False, _exit_reason(outcome))
        elif not path.is_file():
            verdict = Verdict(False, "no output file")
        else:
            data = path.read_bytes()
            outputs[inv.name] = data
            digest = sha256(data)
            tally.hashes.setdefault(inv.name, set()).add(digest)
            # identical bytes get the identical verdict; parse each once
            key = (inv.name, digest)
            if key not in tally.checked:
                tally.checked[key] = inv.check(data)
            verdict = tally.checked[key]
        tally.verdict(inv.name, verdict)
        if verdict.error is not None:
            tally.errors.append(verdict.error)
        tally.invocations.append({"name": inv.name, "wall_s": outcome.wall_s,
                                  "rss_mb": outcome.rss_mb, "exit": outcome.exit_code,
                                  "ok": verdict.ok, "sha256": digest})
        if runner.expired():
            break
    tally.pass_walls.append(wall)
    tally.pass_rss.append(rss)
    return outputs


def quantiles(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    summary = {"n": len(ordered), "median": statistics.median(ordered)}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        summary.update(q1=q1, q3=q3)
    if len(ordered) >= 11:
        index = len(ordered) - 11
        summary[f"p{100.0 * (index + 1) / len(ordered):.0f}"] = ordered[index]
    return summary


def drift(tally: Tally) -> dict:
    """Outputs whose bytes differ from the seed commit's; reported, never failed."""
    return {name: sorted(digests) for name, digests in tally.hashes.items()
            if digests != {REFERENCE_SHA256.get(name)}}


# ---------------------------------------------------------------------------
# traced run


def import_confrac():
    sys.path.insert(0, str(SRC))
    import confrac.cli  # noqa: F401  (loads every layer)

    confrac = sys.modules["confrac"]
    if Path(confrac.__file__).resolve().parent != SRC / "confrac":
        raise SetupError(f"confrac imported from {confrac.__file__}, not {SRC}")
    return confrac


def traced_pass(cf, runner: Runner, tally: Tally, invocations, cli_outputs: dict) -> dict:
    """Replay one pass untraced, then traced; compare with the CLI's bytes."""
    from traced import Tracer, replay, replay_coefficients

    untraced_start = time.perf_counter()
    for inv in invocations:
        replay(cf, inv, str(runner.workdir / f"bare-{inv.name}"))
    untraced = time.perf_counter() - untraced_start

    tracer = Tracer()
    solves, output_bytes = [], 0
    traced_start = time.perf_counter()
    for inv in invocations:
        path = runner.workdir / f"traced-{inv.name}"
        made = replay(cf, inv, str(path), tracer)
        solves += made
        data = path.read_bytes()
        output_bytes += len(data)
        verdict = Verdict(data == cli_outputs.get(inv.name), "in-process bytes differ from the CLI's")
        if verdict.ok and isinstance(inv, Ladder):
            # the ladder check reads distances to the closed form as
            # signed differences; that holds only with every endpoint above it
            exact = CLOSED_FORMS[inv.problem]
            verdict = Verdict(all(s.endpoint > exact(s.endpoint_t, s.alpha) for s in made),
                              "a Caputo endpoint lies below the closed form the check assumes")
        tally.verdict(f"replay {inv.name}", verdict)
    traced = time.perf_counter() - traced_start
    top_level = tracer.top_level()

    evals = replay_coefficients(cf, tracer, solves)
    rhs_calls, rhs_s = tracer.counters.get("problems.rhs", [0, 0.0])
    exact_calls, exact_s = tracer.counters.get("problems.exact", [0, 0.0])
    steps = sum(s.panels for s in solves)
    coeff_s = tracer.durations("quadrature.")
    solve_s = tracer.durations("solvers.")
    layer = {
        "core.grid_nodes": steps + len(solves),
        "quadrature.coeff_evals": evals,
        "quadrature.coeff_s": coeff_s,
        "quadrature.ns_per_coeff": 1e9 * coeff_s / evals,
        "solvers.steps": steps,
        "solvers.solve_s": solve_s,
        "solvers.self_s": tracer.self_time("solvers."),
        "solvers.ns_per_step": 1e9 * solve_s / steps,
        "solvers.history_madds": sum(s.history_madds for s in solves),
        "problems.rhs_calls": rhs_calls,
        "problems.rhs_s": rhs_s,
        "problems.exact_calls": exact_calls,
        "problems.exact_s": exact_s,
        "cli.format_s": tracer.self_time("cli."),
        "cli.output_bytes": output_bytes,
        "trace.unattributed_s": traced - top_level,
        "trace.overhead_s": traced - untraced,
    }
    return {"layer": layer, "spans": tracer.spans,
            "untraced_s": untraced, "traced_s": traced}


# ---------------------------------------------------------------------------
# environment record


def _openblas_threads():
    """Thread count the loaded OpenBLAS will use, or None when not found."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "nodes": {inv.name: inv.nodes for inv in WORKLOADS[workload]},
    }


# ---------------------------------------------------------------------------
# running a workload


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    if not (SRC / "confrac" / "__init__.py").is_file():
        raise SetupError(f"no confrac source tree at {SRC}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        with Runner(workdir, started) as runner:
            where = runner.python("-c", WHERE_PROBE)  # also warms the pyc and page caches
            imported = Path(where.stdout.decode().strip() or ".").resolve()
            if where.exit_code != 0 or imported.parent != SRC / "confrac":
                raise SetupError(f"children import confrac from {imported}, not {SRC}")
            cf = import_confrac() if trace else None
            invocations = WORKLOADS[workload]
            rng = random.Random(seed)
            tally = Tally()
            sample_setup(runner, tally)
            # time kept for the closing set-up block
            reserve = SETUP_SETTLE_S + SETUP_BLOCK * (statistics.median(tally.setup)
                                                      if tally.setup else 0.0)
            traced, numpy_imports, cycle = [], [], 0.0
            # a new pass starts only if one more like the last still fits
            while not tally.pass_walls or (time.perf_counter() - started + cycle + reserve
                                           < seconds and not runner.expired()):
                cycle_start = time.perf_counter()
                outputs = cli_pass(runner, tally, invocations, rng)
                if trace and not runner.expired():
                    try:
                        traced.append(traced_pass(cf, runner, tally, invocations, outputs))
                    except Exception as exc:  # a broken replay is a failure, not a crash
                        tally.verdict("replay", Verdict(False, f"{type(exc).__name__}: {exc}"))
                cycle = time.perf_counter() - cycle_start
            for path in workdir.iterdir():
                path.unlink()
            time.sleep(SETUP_SETTLE_S)
            sample_setup(runner, tally)
            while trace and len(numpy_imports) < MIN_NUMPY_SAMPLES and not runner.expired():
                probe = runner.python("-c", NUMPY_PROBE)
                if tally.verdict("numpy import", Verdict(probe.exit_code == 0, _exit_reason(probe))):
                    numpy_imports.append(float(probe.stdout))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def median(values):
        return statistics.median(values) if values else None

    if trace:
        metrics = {name: median([t["layer"][name] for t in traced])
                   for name in (traced[0]["layer"] if traced else ())}
        metrics["cli.startup_s"] = median(tally.setup)
        metrics["cli.numpy_import_s"] = median(numpy_imports)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": median(tally.pass_walls),
            "setup_s": median(tally.setup),
            "peak_rss_mb": median(tally.pass_rss),
            "max_abs_error": max(tally.errors) if tally.errors else None,
            "pass_ratio": 1.0 - tally.failed / max(tally.attempted, 1),
        }
        units = END_TO_END
    metrics = {name: metrics.get(name) for name in units}
    return {
        "result": {
            "correct": tally.failed == 0 and all(v is not None for v in metrics.values()),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name][0]}
                        for name, value in metrics.items()},
        },
        "record": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "elapsed_s": time.perf_counter() - started,
            "environment": environment(workload),
            "wall_s": quantiles(tally.pass_walls),
            "setup_s": quantiles(tally.setup) if tally.setup else None,
            "failures": tally.failures,
            "drift": drift(tally),
            "sha256": {name: sorted(d) for name, d in tally.hashes.items()},
            "invocations": tally.invocations,
            "traced_passes": [{k: v for k, v in t.items() if k != "spans"} for t in traced],
            "spans": [t["spans"] for t in traced],
        },
    }


def report(outcome: dict) -> None:
    """Print every metric by name with its unit, then the record's summary."""
    result, record = outcome["result"], outcome["record"]
    table = PER_LAYER if record["trace"] else END_TO_END
    print(f"confrac benchmark  workload={record['workload']}  seed={record['seed']}  "
          f"trace={int(record['trace'])}  elapsed={record['elapsed_s']:.1f}s")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<24} {shown:>14} {entry['unit']:<6} {table[name][1]}")
    print(f"  wall_s per pass: {json.dumps(record['wall_s'])}")
    print(f"  setup_s samples: {json.dumps(record['setup_s'])}")
    print(f"  attempted={result['attempted']} failed={result['failed']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name, digests in record["drift"].items():
        print(f"  drift: {name} sha256 {', '.join(d[:16] for d in digests)} "
              f"differs from the seed reference")
    print(f"  environment: {json.dumps(record['environment'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(outcome, indent=1, default=list))
    report(outcome)
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
