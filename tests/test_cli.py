import argparse
import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from confrac import cli, problems
from confrac.core import UniformGrid


#: the refusals of an order below core.MIN_ORDER and of a horizon within
#: the grid's slack of example2's asymptote
FLOOR_MESSAGE = "fractional order must lie in [1e-09, 1]"
HORIZON_MESSAGE = "is not below the domain limit 0.6168502750680849"


def run_cli(*argv):
    return cli.main(list(argv))


def _child_env():
    """The caller's environment with this checkout's ``src`` first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# ---------------------------------------------------------------- list


def test_list_output(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 4
    assert lines[0].startswith("expkernel")
    assert any("domain limit" in ln for ln in lines)


def test_list_is_byte_stable(capsys):
    run_cli("list")
    first = capsys.readouterr().out
    run_cli("list")
    assert capsys.readouterr().out == first


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "confrac.cli", "list"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "example2" in proc.stdout


_FFT_PROBE = (
    "import sys\n"
    "from confrac.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy.fft' in sys.modules)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize("argv,loads_fft", [
    (["list"], False),
    (["solve", "--method", "conformable", "--alpha", "0.5"], False),
    (["solve", "--method", "classical", "--alpha", "1"], False),
    # control: a Caputo grid past one 1,024-step leaf does use the FFT
    (["solve", "--method", "caputo", "--alpha", "0.5"], True),
    # 1,024 nodes fill one leaf exactly and need no FFT
    (["solve", "--method", "caputo", "--alpha", "0.5", "--tau", "1.023"], False),
])
def test_only_long_caputo_runs_load_fft(argv, loads_fft, tmp_path):
    if argv[0] == "solve":
        # defaults first: a later flag overrides an earlier one
        argv = [argv[0], "--problem", "example1", "--tau", "2", "--h", "0.001",
                "--output", str(tmp_path / "run.csv"), *argv[1:]]
    proc = subprocess.run([sys.executable, "-c", _FFT_PROBE, *argv],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loads_fft)


# ---------------------------------------------------------------- solve


def test_solve_csv(tmp_path):
    out = tmp_path / "run.csv"
    code = run_cli(
        "solve", "--problem", "example1", "--method", "conformable",
        "--alpha", "0.5", "--h", "0.001", "--tau", "2", "--output", str(out),
    )
    assert code == 0
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == "t,y_num,y_exact,abs_err"
    assert lines[-1] == ""  # single trailing newline
    assert len(lines) == 2003  # header + 2001 rows + trailing empty
    # abs_err column round-trips bit-exactly against the other two
    for row in lines[1:4]:
        t, y_num, y_exact, abs_err = (float(v) for v in row.split(","))
        assert abs_err == abs(y_num - y_exact)


def test_solve_csv_reruns_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = (
        "solve", "--problem", "expkernel", "--method", "caputo",
        "--alpha", "0.7", "--h", "0.01", "--tau", "1",
    )
    run_cli(*args, "--output", str(a))
    run_cli(*args, "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_solve_svg_markers(tmp_path):
    out = tmp_path / "fig.svg"
    code = run_cli(
        "solve", "--problem", "example1", "--method", "conformable",
        "--alpha", "0.5", "--h", "0.001", "--tau", "2",
        "--output", str(out), "--format", "svg",
    )
    assert code == 0
    text = out.read_text()
    assert text.count("<circle") == 24  # 23 sampled markers + 1 legend swatch
    assert 'viewBox="0 0 800 600"' in text
    assert "Numerical solution" in text and "Exact solution" in text


def test_svg_tick_labels_on_a_tiny_range(tmp_path):
    out = tmp_path / "tiny.svg"
    assert run_cli(
        "solve", "--problem", "example3", "--method", "conformable",
        "--alpha", "0.5", "--tau", "2e-12", "--h", "2e-14",
        "--output", str(out), "--format", "svg",
    ) == 0
    text = out.read_text()
    # the x tick labels, then the x axis title
    labels = re.findall(r'text-anchor="middle">([^<]*)</text>', text)
    assert labels == ["0", "5e-13", "1e-12", "1.5e-12", "2e-12", "t"]
    # the y ticks 0.999999, 0.9999995 and 1 need a seventh digit apart
    labels = re.findall(r'text-anchor="end">([^<]*)</text>', text)
    assert labels == ["0.999999", "0.9999995", "1"]


@pytest.mark.parametrize("argv,exact_calls", [
    (["solve", "--method", "conformable"], 101),
    (["solve", "--method", "conformable", "--format", "svg"], 2),
    (["compare", "--methods", "conformable,caputo"], 101),
], ids=["solve-csv", "solve-svg", "compare"])
def test_csv_lets_the_trace_go_before_the_closed_form(
    argv, exact_calls, tmp_path, monkeypatch
):
    # every output reads only times and values, so each trace, predictors
    # and all, must be freed before the closed form is sampled
    refs, alive = [], []
    solve_named = cli.solve_named
    named = problems.get_problem("example1")

    def watched_solve(*args):
        trace = solve_named(*args)
        refs.append(weakref.ref(trace))
        return trace

    def watched_exact(t, alpha):
        alive.append(any(ref() is not None for ref in refs))
        return named.exact(t, alpha)

    monkeypatch.setattr(cli, "solve_named", watched_solve)
    monkeypatch.setattr(cli, "get_problem", lambda problem_id: dataclasses.replace(
        named, exact=watched_exact))
    assert run_cli(
        *argv, "--problem", "example1", "--alpha", "0.5", "--h", "0.01",
        "--tau", "1", "--output", str(tmp_path / "run.out"),
    ) == 0
    assert len(refs) == (2 if argv[0] == "compare" else 1)
    assert len(alive) == exact_calls and not any(alive)


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "conformable"],
    ["solve", "--method", "conformable", "--format", "svg"],
    ["compare", "--methods", "conformable,caputo"],
], ids=["solve-csv", "solve-svg", "compare"])
def test_cli_never_builds_a_whole_grid_node_time_array(argv, tmp_path, monkeypatch):
    # node times are made one block at a time: no output holds an array of
    # every node's time
    def no_nodes(grid):
        raise AssertionError(f"nodes() built all {grid.node_count} node times")

    monkeypatch.setattr(UniformGrid, "nodes", no_nodes)
    assert run_cli(
        *argv, "--problem", "example1", "--alpha", "0.5", "--h", "0.01",
        "--tau", "1", "--output", str(tmp_path / "run.out"),
    ) == 0


#: what a 200,001-node solve may hold beyond the 16 bytes per node of its
#: two float64 arrays (values and predictors while it steps, values and the
#: CSV's closed-form column after).  Both formats measured 0.69 MB, the
#: solver's coefficient block; a whole-grid node-time array adds 1.6 MB
_SLACK = 2**20


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_solve_memory_is_the_solvers_arrays(fmt, tmp_path):
    out = tmp_path / f"run.{fmt}"
    argv = ["solve", "--problem", "example1", "--method", "conformable",
            "--alpha", "0.5", "--tau", "2", "--format", fmt, "--output", str(out)]
    # a small run first, so imports and caches are not counted
    assert run_cli(*argv, "--h", "0.01") == 0
    nodes = 200_001
    tracemalloc.start()
    try:
        assert run_cli(*argv, "--h", "1e-5") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * nodes + _SLACK, peak


# ---------------------------------------------------------------- convergence


def test_convergence_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = run_cli(
        "convergence", "--problem", "example1", "--method", "conformable",
        "--alpha", "0.5", "--tau", "2", "--h0", "0.04", "--levels", "5",
        "--output", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,endpoint_abs_error,estimated_order"
    assert len(lines) == 6
    assert lines[1].endswith(",")  # no order on the first level
    orders = [float(ln.split(",")[2]) for ln in lines[2:]]
    assert all(p > 1.0 for p in orders)


# ---------------------------------------------------------------- compare


def test_compare_classical_and_conformable_agree_at_order_one(tmp_path):
    out = tmp_path / "cmp.csv"
    code = run_cli(
        "compare", "--problem", "example1", "--alpha", "1", "--tau", "2",
        "--h", "0.01", "--methods", "classical,conformable",
        "--output", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,y_classical,y_conformable,y_exact"
    gaps = [
        abs(float(r.split(",")[1]) - float(r.split(",")[2]))
        for r in lines[1:]
    ]
    assert max(gaps) < 5e-4


def test_compare_conformable_and_caputo_differ(tmp_path):
    out = tmp_path / "cmp.csv"
    run_cli(
        "compare", "--problem", "example1", "--alpha", "0.5", "--tau", "2",
        "--h", "0.01", "--methods", "conformable,caputo",
        "--output", str(out),
    )
    lines = out.read_text().splitlines()
    last = lines[-1].split(",")
    assert abs(float(last[1]) - float(last[2])) > 1e-2


def test_compare_rejects_bad_method_lists(tmp_path):
    out = tmp_path / "cmp.csv"
    base = (
        "compare", "--problem", "example1", "--alpha", "0.5", "--tau", "1",
        "--h", "0.01", "--output", str(out),
    )
    assert run_cli(*base, "--methods", "conformable,conformable") == 2
    assert run_cli(*base, "--methods", "conformable,rk4") == 2
    assert run_cli(*base, "--methods", "") == 2


# ---------------------------------------------------------------- byte stability

#: sha256 of each output as the writers produced it before they were
#: vectorised; any change to a byte of CSV or SVG output shows here
_FROZEN_SHA256 = {
    ("solve", "example1", "0.5", "2", "csv"):
        "740bc1c86e20c8941dad593cd3808a9fd787a192cce20427f00fc95bee580b52",
    ("solve", "example1", "0.5", "2", "svg"):
        "29141e0a2e4ae5eed3715d3be95048b9e95e7b6091cfee7615b84ad36493cfab",
    ("solve", "example2", "0.5", "0.5", "csv"):
        "f5691826eb760fd4dc7baf0d40084235951406ea862219f3f8d9cce26b1b6c8d",
    ("solve", "example2", "0.5", "0.5", "svg"):
        "34435f045b31b99e3a8315c40d4e49dfe17f00575051282afde8fcea521d1107",
    ("solve", "example3", "0.7", "2", "csv"):
        "8750e30bc3aadcba7dc471af5f550bc680e44f967807223385b0988fd0e40383",
    ("solve", "example3", "0.7", "2", "svg"):
        "2fce447b3983cd3540e08216de03020f24b0a8f2ba49bf193aad04b765fa6da5",
    # first order cell blank, the rest numbers
    ("convergence", "example1", "0.5", "2", "csv"):
        "45df955dcec0d5c2ff61c4a506cdd42a0e21438f5d490b6dda901a679a1cdb06",
    ("compare", "example1", "1", "2", "csv"):
        "922e6ae61ba487423213789ddf3e14e2c21305e99032304408dc064148bb242b",
}


def test_outputs_are_byte_stable(tmp_path):
    for (command, problem, alpha, tau, fmt), digest in _FROZEN_SHA256.items():
        out = tmp_path / f"{command}-{problem}.{fmt}"
        args = [command, "--problem", problem, "--alpha", alpha, "--tau", tau,
                "--output", str(out)]
        if command == "solve":
            # the README's three plot configurations
            args += ["--method", "conformable", "--h", "0.001", "--format", fmt]
        elif command == "convergence":
            args += ["--method", "conformable", "--h0", "0.04", "--levels", "5"]
        else:
            args += ["--h", "0.01", "--methods", "classical,conformable,caputo"]
        assert run_cli(*args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, out.name


@pytest.mark.parametrize("command", [
    "solve-csv", "solve-svg", "compare", "convergence"])
def test_chunk_length_does_not_change_bytes(command, tmp_path, monkeypatch):
    # 2,001 nodes: two chunks by default, 286 chunks of 7
    command, _, fmt = command.partition("-")
    args = [command, "--problem", "example1", "--alpha", "0.5", "--tau", "2"]
    if command == "solve":
        args += ["--h", "0.001", "--method", "conformable", "--format", fmt]
    elif command == "compare":
        args += ["--h", "0.001", "--methods", "conformable,caputo"]
    else:
        # 9 rows, more than one chunk of 7 (the table is one CSV block)
        args += ["--method", "conformable", "--h0", "0.04", "--levels", "9"]
    outputs = []
    for chunk in (problems._CHUNK, 7):
        # node-time blocks: the closed-form slices, the CSV blocks and the
        # SVG polyline chunks
        monkeypatch.setattr(problems, "_CHUNK", chunk)
        out = tmp_path / f"{chunk}.out"
        assert run_cli(*args, "--output", str(out)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_csv_block_boundaries_do_not_change_bytes(tmp_path):
    # a float column and a str column, blank cells included, cut into
    # blocks at every length: the same bytes as one block
    numbers = np.array([0.1, 2.0, -3.5e-300, 1 / 3, 7.0])
    labels = ["", "a", "", "1.5", "z"]
    outputs = set()
    for length in range(1, 6):
        blocks = [(numbers[lo:lo + length], labels[lo:lo + length])
                  for lo in range(0, 5, length)]
        out = tmp_path / f"{length}.csv"
        cli.write_csv(["x", "label"], blocks, str(out))
        outputs.add(out.read_bytes())
    assert outputs == {b"x,label\n0.10000000000000001,\n2,a\n"
                       b"-3.5000000000000002e-300,\n0.33333333333333331,1.5\n7,z\n"}


# ---------------------------------------------------------------- exit codes


def test_usage_error_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # horizon past the example2 pole
    assert run_cli(
        "solve", "--problem", "example2", "--method", "conformable",
        "--alpha", "0.5", "--h", "0.001", "--tau", "0.7", "--output", out,
    ) == 2
    # unknown problem id
    assert run_cli(
        "solve", "--problem", "mystery", "--method", "conformable",
        "--alpha", "0.5", "--h", "0.01", "--tau", "1", "--output", out,
    ) == 2
    # alpha outside (0, 1]
    assert run_cli(
        "solve", "--problem", "example1", "--method", "conformable",
        "--alpha", "0", "--h", "0.01", "--tau", "1", "--output", out,
    ) == 2
    # too few refinement levels
    assert run_cli(
        "convergence", "--problem", "example1", "--method", "conformable",
        "--alpha", "0.5", "--tau", "2", "--h0", "0.04", "--levels", "1",
        "--output", out,
    ) == 2
    # more than MAX_NODES nodes: one solve, and a ladder's finest level
    assert run_cli(
        "solve", "--problem", "example1", "--method", "conformable",
        "--alpha", "0.5", "--h", "5e-324", "--tau", "2", "--output", out,
    ) == 2
    assert run_cli(
        "convergence", "--problem", "example1", "--method", "conformable",
        "--alpha", "0.5", "--tau", "2", "--h0", "0.04", "--levels", "40",
        "--output", out,
    ) == 2
    # missing required flag
    assert run_cli(
        "solve", "--problem", "example1", "--method", "conformable",
        "--alpha", "0.5", "--tau", "1", "--output", out,
    ) == 2
    # unparseable numeric
    assert run_cli(
        "solve", "--problem", "example1", "--method", "conformable",
        "--alpha", "half", "--h", "0.01", "--tau", "1", "--output", out,
    ) == 2
    capsys.readouterr()


def test_no_arguments_prints_usage(capsys):
    assert run_cli() == 2
    captured = capsys.readouterr()
    assert "usage" in (captured.out + captured.err).lower()


def test_unwritable_output_path(tmp_path, capsys):
    for fmt in ("csv", "svg"):
        missing_dir = tmp_path / "no" / "such" / "dir" / f"x.{fmt}"
        assert run_cli(
            "solve", "--problem", "example1", "--method", "conformable",
            "--alpha", "0.5", "--h", "0.01", "--tau", "1", "--format", fmt,
            "--output", str(missing_dir),
        ) == 2
        # reported as one line by the writer, not as a traceback
        err = capsys.readouterr().err
        assert err.startswith(f"confrac: cannot write {str(missing_dir)!r}: ")
        assert err.count("\n") == 1


def test_caputo_node_ceiling_exit_code(tmp_path, capsys):
    # inside MAX_NODES, but past the Caputo ceiling, which bounds the
    # solver's whole-grid tables and sums: refused before any work
    out = str(tmp_path / "x.csv")
    assert run_cli(
        "solve", "--problem", "example1", "--method", "caputo",
        "--alpha", "0.5", "--h", "4e-7", "--tau", "2", "--output", out,
    ) == 2
    assert "Caputo solver takes at most" in capsys.readouterr().err
    # finest level 6,553,601 nodes
    assert run_cli(
        "convergence", "--problem", "example1", "--method", "caputo",
        "--alpha", "0.5", "--tau", "2", "--h0", "0.04", "--levels", "18",
        "--output", out,
    ) == 2
    assert "Caputo solver takes at most" in capsys.readouterr().err


def test_compare_checks_every_method_before_solving(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("compare solved before checking every method")

    monkeypatch.setattr(cli, "solve_named", no_solve)
    out = str(tmp_path / "x.csv")
    base = ("compare", "--problem", "example1", "--alpha", "0.5", "--tau", "2",
            "--output", out)
    # the second method's grid is over the Caputo ceiling (5,000,001 nodes)
    assert run_cli(*base, "--h", "4e-7", "--methods", "conformable,caputo") == 2
    assert "Caputo solver takes at most" in capsys.readouterr().err
    assert run_cli(*base, "--h", "0.01", "--methods", "conformable,bogus") == 2
    assert "unknown method 'bogus'" in capsys.readouterr().err
    assert run_cli(*base, "--h", "0.01", "--methods", "conformable,classical") == 2
    assert "classical scheme requires order 1, got 0.5" in capsys.readouterr().err
    # an order below the floor is refused before the first method's run
    assert run_cli("compare", "--problem", "example3", "--alpha", "1e-310",
                   "--tau", "2", "--h", "0.001", "--methods", "caputo,conformable",
                   "--output", out) == 2
    assert f"{FLOOR_MESSAGE}, got 1e-310" in capsys.readouterr().err


def test_closed_form_failure_leaves_no_partial_csv(tmp_path, capsys):
    # the horizon sits below example2's asymptote, but the grid's last node
    # would round onto it, where the closed form would raise at the final row
    out = tmp_path / "edge.csv"
    assert run_cli(
        "solve", "--problem", "example2", "--method", "conformable",
        "--alpha", "0.5", "--tau", "0.6168502750680848",
        "--h", "0.0006168502750680849", "--output", str(out),
    ) == 2
    assert HORIZON_MESSAGE in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("solve", "--method", "caputo", "--h", "0.1"),
    ("compare", "--methods", "caputo", "--h", "0.1"),
    ("convergence", "--method", "caputo", "--h0", "0.1", "--levels", "2"),
])
def test_overflowing_closed_form_exits_2(command, tmp_path, capsys):
    # exp(t**a / a) passes the float range at every node past 0 at a = 0.001
    out = tmp_path / "x.csv"
    assert run_cli(*command, "--problem", "expkernel", "--alpha", "0.001",
                   "--tau", "2", "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("confrac: exp(t**a / a) overflows at t = ")
    assert "Traceback" not in err
    assert not out.exists()


def test_last_node_on_asymptote_is_refused_before_solving(
    tmp_path, monkeypatch, capsys
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a grid whose last node is on the asymptote")

    monkeypatch.setattr(problems, "solve_conformable_pc", no_solve)
    edge = ("--problem", "example2", "--method", "conformable", "--alpha", "0.5",
            "--tau", "0.6168502750680848")
    h = "0.0006168502750680849"
    for fmt in ("csv", "svg"):
        out = tmp_path / f"edge.{fmt}"
        assert run_cli("solve", *edge, "--h", h, "--format", fmt,
                       "--output", str(out)) == 2
        assert HORIZON_MESSAGE in capsys.readouterr().err
        assert not out.exists()
    # the ladder's finest level, h0 / 2, ends on the same node
    out = tmp_path / "edge-ladder.csv"
    assert run_cli("convergence", *edge, "--h0", h, "--levels", "2",
                   "--output", str(out)) == 2
    assert HORIZON_MESSAGE in capsys.readouterr().err
    assert not out.exists()


def test_order_below_the_floor_is_refused_before_solving(
    tmp_path, monkeypatch, capsys
):
    # the rectangle coefficients lose all their digits here: the solve
    # wrote y_num = 1 at every node, where the closed form reaches 7.389
    def no_solve(*args, **kwargs):
        raise AssertionError("solved at an order below the floor")

    monkeypatch.setattr(problems, "solve_conformable_pc", no_solve)
    out = tmp_path / "tiny.csv"
    assert run_cli("solve", "--problem", "example1", "--method", "conformable",
                   "--alpha", "1e-300", "--h", "0.1", "--tau", "2",
                   "--output", str(out)) == 2
    assert capsys.readouterr().err == f"confrac: {FLOOR_MESSAGE}, got 1e-300\n"
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["0.3", "0.7"])
def test_default_horizon_takes_round_steps(alpha, tmp_path):
    # no --tau: example2 defaults to 90% of its domain limit, floored to
    # one significant digit (0.07 at order 0.3, 1 at 0.7)
    assert run_cli(
        "solve", "--problem", "example2", "--method", "conformable",
        "--alpha", alpha, "--h", "0.001", "--output", str(tmp_path / "x.csv"),
    ) == 0


def test_blow_up_exit_code(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    code = run_cli(
        "solve", "--problem", "expkernel", "--method", "classical",
        "--alpha", "1", "--h", "0.5", "--tau", "40", "--output", out,
    )
    assert code == 3
    assert "blew up at step" in capsys.readouterr().err


# ---------------------------------------------------------------- option table

_SHARED_FLAGS = {
    "--problem": "built-in problem id",
    "--alpha": "fractional order in [1e-09, 1]",
    "--tau": "horizon (problem default when omitted)",
    "--output": "output file path",
}

#: each subcommand's help and its flags with their help strings
_SUBCOMMANDS = {
    "list": ("list built-in problems", {}),
    "solve": ("run one solve and write CSV or SVG", {
        **_SHARED_FLAGS,
        "--method": "classical | conformable | caputo",
        "--h": "step size",
        "--format": "csv (default) or svg",
    }),
    "convergence": ("step-halving error sweep to CSV", {
        **_SHARED_FLAGS,
        "--method": "classical | conformable | caputo",
        "--h0": "coarsest step size",
        "--levels": "number of halvings (>= 2)",
    }),
    "compare": ("side-by-side methods to CSV", {
        **_SHARED_FLAGS,
        "--h": "step size",
        "--methods": "comma-separated method list",
    }),
}


def test_subcommand_flags_and_help_are_pinned():
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    summaries = {a.dest: a.help for a in sub._choices_actions}
    assert list(sub.choices) == list(_SUBCOMMANDS)
    for command, (summary, flags) in _SUBCOMMANDS.items():
        actions = sub.choices[command]._actions
        assert summaries[command] == summary
        assert {a.option_strings[0]: a.help for a in actions
                if a.dest != "help"} == flags, command


@pytest.mark.parametrize("argv,message", [
    (["solve", "--method", "conformable", "--alpha", "0.5"],
     "missing required option --h"),
    (["solve", "--method", "conformable", "--alpha", "half", "--h", "0.01"],
     "--alpha expects a number, got 'half'"),
    (["solve", "--method", "conformable", "--alpha", "5e-324", "--h", "0.1"],
     f"{FLOOR_MESSAGE}, got 5e-324"),
    (["convergence", "--method", "conformable", "--alpha", "0.5", "--h0", "0.04",
      "--levels", "five"], "--levels expects an integer, got 'five'"),
    (["compare", "--alpha", "0.5", "--h", "0.01"],
     "missing required option --methods"),
    (["solve", "--method", "conformable", "--alpha", "0.5", "--h", "0.01",
      "--format", "pdf"], "format must be csv or svg, got 'pdf'"),
    (["solve", "--method", "conformable", "--alpha", "0.5", "--h", "0.01",
      "--format", ""], "format must be csv or svg, got ''"),
    (["convergence", "--method", "conformable", "--alpha", "1e-310", "--h0", "0.1",
      "--levels", "3"], f"{FLOOR_MESSAGE}, got 1e-310"),
    (["convergence", "--method", "conformable", "--alpha", "0.5", "--h0", "0.1",
      "--levels", "1000000000"],
     "1000000000 levels of halving leave no positive step from h0 = 0.1"),
    (["convergence", "--method", "conformable", "--alpha", "0.5", "--h0", "-0.1",
      "--levels", "3"], "3 levels of halving leave no positive step from h0 = -0.1"),
])
def test_option_error_messages(argv, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--problem", "example1", "--tau", "1",
                   "--output", str(out)) == 2
    assert capsys.readouterr().err == f"confrac: {message}\n"
    assert not out.exists()
