"""Acceptance suite: one verdict line per shipped guarantee.

Run ``pytest -v -s tests/test_acceptance.py`` to see the verdicts.  Every
tolerance here was frozen only after an independent oracle run (high-
precision arithmetic, Richardson refinement, or closed forms) confirmed
the margin; the measured margins sit two or more decades below the
asserted bounds.

Criterion 10c is known-red: the half-order constant-source baseline is
integrated exactly by the corrector (its weight sum telescopes), so its
endpoint errors are rounding noise with no decreasing trend to measure.
The check is asserted as stated rather than weakened; see README.md.
"""

import contextlib
import io
import math
import random
import time

import numpy as np
import pytest

import confrac as cf
from confrac import cli
from confrac.errors import DomainError, OrderUndefinedError


def _verdict(tag, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    line = f"criterion {tag}: {mark}"
    if detail:
        line += f" — {detail}"
    print(line)


# ------------------------------------------------------------------ 1


def test_criterion_01_weight_sum_identities():
    start = time.perf_counter()
    worst = 0.0
    for a in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        for n in (0, 1, 10, 100, 10_000):
            rect = math.fsum(cf.rectangle_weights(n, a))
            want = (n + 1.0) ** a
            worst = max(worst, abs(rect - want) / want)
            trap = math.fsum(cf.trapezoid_weights(n, a))
            want = (a + 1.0) * (n + 1.0) ** a
            worst = max(worst, abs(trap - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict("01 weight-sum identities", ok,
             f"worst rel err {worst:.3e}, {elapsed:.2f}s")
    assert ok


# ------------------------------------------------------------------ 2


def test_criterion_02_order_one_weight_reduction():
    ok = True
    for n in range(0, 1001):
        rect = cf.rectangle_weights(n, 1.0)
        if not np.array_equal(rect, np.ones(n + 1)):
            ok = False
            break
        trap = cf.trapezoid_weights(n, 1.0)
        expected = np.full(n + 2, 2.0)
        expected[0] = expected[-1] = 1.0
        if not np.array_equal(trap, expected):
            ok = False
            break
    _verdict("02 order-one weight reduction", ok,
             "bit-for-bit over n = 0 .. 1000")
    assert ok


# ------------------------------------------------------------------ 3


def test_criterion_03_linear_integrand_exactness():
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(20):
        a_coef = rng.uniform(-5, 5)
        b_coef = rng.uniform(-5, 5)
        alpha = rng.uniform(0.05, 1.0)
        tau = rng.uniform(0.3, 3.0)
        n = rng.randint(0, 400)
        h = tau / (n + 1)
        samples = [a_coef + b_coef * j * h for j in range(n + 2)]
        got = cf.integrate_trapezoid(samples, h, alpha)
        ref = (a_coef * tau**alpha / alpha
               + b_coef * tau ** (alpha + 1) / (alpha + 1))
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-30))
    ok = worst <= 1e-12
    _verdict("03 linear integrand exactness", ok,
             f"worst rel err {worst:.3e} over 20 seeded tuples")
    assert ok


# ------------------------------------------------------------------ 4


def test_criterion_04_constant_slope_solver_exactness():
    worst = 0.0
    for a in (0.3, 0.7, 1.0):
        problem = cf.InitialValueProblem(
            rhs=lambda t, y: 2.5, y0=1.25, horizon=2.0,
            order=cf.Alpha(a),
        )
        trace = cf.solve_conformable_pc(problem, 0.01)
        t = trace.times()
        want = 1.25 + 2.5 * t**a / a
        worst = max(worst, float(np.max(np.abs(trace.values - want)
                                        / np.abs(want))))
    ok = worst <= 1e-12
    _verdict("04 constant-slope solver exactness", ok,
             f"worst rel err {worst:.3e}")
    assert ok


# ------------------------------------------------------------------ 5-7


def _trace_against_exact(pid, alpha, tau):
    named = cf.get_problem(pid)
    start = time.perf_counter()
    trace = cf.solve_named(named, "conformable", alpha, 0.001, horizon=tau)
    elapsed = time.perf_counter() - start
    exact = np.array([named.exact(t, alpha) for t in trace.times()])
    err = float(np.max(np.abs(trace.values - exact)))
    threshold = 0.005 * float(exact.max() - exact.min())
    return err, threshold, elapsed


def test_criterion_05_example1_plot_level_agreement():
    err, threshold, elapsed = _trace_against_exact("example1", 0.5, 2.0)
    ok = err <= threshold and elapsed < 5.0
    _verdict("05 example1 trace at plot resolution", ok,
             f"max abs err {err:.3e} <= {threshold:.4f}, {elapsed:.2f}s")
    assert ok


def test_criterion_06_example2_plot_level_agreement_and_domain_guard():
    err, threshold, elapsed = _trace_against_exact("example2", 0.5, 0.5)
    rejected = False
    try:
        cf.solve_named(cf.get_problem("example2"), "conformable", 0.5,
                       0.001, horizon=0.7)
    except DomainError:
        rejected = True
    ok = err <= threshold and rejected and elapsed < 5.0
    _verdict("06 example2 trace + pole rejection", ok,
             f"max abs err {err:.3e} <= {threshold:.4f}, "
             f"horizon 0.7 rejected: {rejected}")
    assert ok


def test_criterion_07_example3_plot_level_agreement():
    err, threshold, elapsed = _trace_against_exact("example3", 0.7, 2.0)
    ok = err <= threshold and elapsed < 5.0
    _verdict("07 example3 trace at plot resolution", ok,
             f"max abs err {err:.3e} <= {threshold:.4f}, {elapsed:.2f}s")
    assert ok


# ------------------------------------------------------------------ 8


def test_criterion_08_accumulator_equivalence():
    problem = cf.get_problem("example1").problem(0.5, 2.0)
    start = time.perf_counter()
    fast = cf.solve_conformable_pc(problem, 2e-4)  # 10^4 panels
    slow = cf.solve_conformable_pc_direct(problem, 2e-4)
    elapsed = time.perf_counter() - start
    rel = float(np.max(np.abs(fast.values - slow.values)
                       / np.maximum(np.abs(slow.values), 1e-30)))
    ok = rel <= 1e-12 and elapsed < 2.0
    _verdict("08 accumulator equivalence", ok,
             f"worst rel gap {rel:.3e} over 10001 nodes, {elapsed:.2f}s")
    assert ok


# ------------------------------------------------------------------ 9


def test_criterion_09_convergence_orders():
    named = cf.get_problem("example1")
    conf_errors = [e for _, e in
                   cf.refinement_errors(named, "conformable", 0.5, 2.0,
                                        0.04, 5)]
    conf_orders = cf.empirical_order(named, "conformable", 0.5, 2.0, 0.04, 5)
    monotone = all(conf_errors[i] > conf_errors[i + 1]
                   for i in range(len(conf_errors) - 1))
    class_orders = cf.empirical_order(named, "classical", 1.0, 2.0, 0.04, 5)
    ok = (monotone and all(p > 1.0 for p in conf_orders)
          and all(1.8 <= p <= 2.2 for p in class_orders))
    _verdict("09 convergence orders", ok,
             "conformable " + str([f"{p:.3f}" for p in conf_orders])
             + ", classical " + str([f"{p:.3f}" for p in class_orders]))
    assert ok


# ------------------------------------------------------------------ 10


#: constant unit source with the fractional power-law closed form
_UNIT_SOURCE = cf.NamedProblem(
    id="unitsource",
    description="constant unit source",
    equation="D_a y = 1",
    solution="y(t) = t^a / gamma(a+1)",
    y0=0.0,
    family=lambda t, y, a: 1.0,
    exact=lambda t, a: t ** float(a) / cf.gamma(float(a) + 1.0),
)


def test_criterion_10a_caputo_baseline_matches_closed_form():
    trace = cf.solve_caputo_pc(_UNIT_SOURCE.caputo_problem(0.5, 1.0), 0.02)
    t = trace.times()
    want = 2.0 * np.sqrt(t / math.pi)
    err = float(np.max(np.abs(trace.values - want)))
    ok = err <= 1e-12
    _verdict("10a caputo constant-source baseline", ok,
             f"max abs err {err:.3e} against 2*sqrt(t/pi)")
    assert ok


def test_criterion_10b_caputo_weights_collapse_at_order_one():
    ok = True
    for n in (0, 1, 2, 10, 100, 1000):
        predictor, corrector = cf.caputo_weights(n, 1.0)
        expected = np.full(n + 2, 2.0)
        expected[0] = expected[-1] = 1.0
        if not (np.array_equal(predictor, np.ones(n + 1))
                and np.array_equal(corrector, expected)):
            ok = False
            break
    _verdict("10b caputo weight reduction at order one", ok,
             "cumulative rectangle/trapezoid forms, bit-for-bit")
    assert ok


def test_criterion_10c_caputo_halving_study():
    # Stated check: endpoint error decreases monotonically under h-halving
    # from h = 0.02 and the empirical order is >= 1.  The baseline is
    # integrated exactly (corrector weight sum telescopes to the closed
    # form), so the errors below are rounding noise around 1e-15 and the
    # check cannot pass.  Asserted as stated; see README.md.
    errors = [e for _, e in
              cf.refinement_errors(_UNIT_SOURCE, "caputo", 0.5, 1.0,
                                   0.02, 5)]
    monotone = all(errors[i] > errors[i + 1]
                   for i in range(len(errors) - 1))
    try:
        orders = cf.empirical_order(_UNIT_SOURCE, "caputo", 0.5, 1.0,
                                    0.02, 5)
        order_ok = all(p >= 1.0 for p in orders)
        note = "orders " + str([f"{p:.2f}" for p in orders])
    except OrderUndefinedError as exc:
        order_ok = False
        note = f"no measurable order ({exc})"
    ok = monotone and order_ok
    _verdict("10c caputo halving study", ok,
             f"endpoint errors {[f'{e:.2e}' for e in errors]}; {note}")
    assert ok, (
        "endpoint errors are at rounding level because the scheme is exact "
        "for a constant source; a decreasing-error study needs a problem "
        "the corrector does not integrate exactly (see README.md)"
    )


# ------------------------------------------------------------------ 11


def test_criterion_11_operator_identities():
    # derivative of the running integral returns the integrand
    inv_worst = 0.0
    for g in (math.cos, math.exp):
        for t in (0.25, 0.5, 1.0):
            val = cf.conformable_derivative_numeric(
                lambda s: cf.conformable_integral_numeric(g, s, 0.5, 4096),
                t, 0.5, 1e-5,
            )
            inv_worst = max(inv_worst, abs(val - g(t)))
    # integral of the derivative returns the increment y(t) - y(0)
    fund_worst = 0.0
    a = 0.5
    for t in (0.25, 0.5, 1.0):
        val = cf.conformable_integral_numeric(
            lambda x: x ** (1 - a) * (-math.sin(x)), t, a, 4096
        )
        fund_worst = max(fund_worst, abs(val - (math.cos(t) - 1.0)))
    # nine-entry derivative rule table at the default step
    rule_worst = 0.0
    for a in (0.5, 0.8):
        for t in (0.7, 1.3):
            errs = [
                abs(cf.conformable_derivative_numeric(
                    lambda s: s**3, t, a) - 3 * t ** (3 - a)),
                abs(cf.conformable_derivative_numeric(
                    lambda s: 7.5, t, a)),
                abs(cf.conformable_derivative_numeric(
                    lambda s: math.exp(1.3 * s), t, a)
                    - 1.3 * t ** (1 - a) * math.exp(1.3 * t)),
                abs(cf.conformable_derivative_numeric(
                    lambda s: math.sin(2 * s), t, a)
                    - 2 * t ** (1 - a) * math.cos(2 * t)),
                abs(cf.conformable_derivative_numeric(
                    lambda s: math.cos(2 * s), t, a)
                    + 2 * t ** (1 - a) * math.sin(2 * t)),
                abs(cf.conformable_derivative_numeric(
                    lambda s: s**a / a, t, a) - 1.0),
                abs(cf.conformable_derivative_numeric(
                    lambda s: math.sin(s**a / a), t, a)
                    - math.cos(t**a / a)),
                abs(cf.conformable_derivative_numeric(
                    lambda s: math.cos(s**a / a), t, a)
                    + math.sin(t**a / a)),
                abs(cf.conformable_derivative_numeric(
                    lambda s: math.exp(s**a / a), t, a)
                    - math.exp(t**a / a)),
            ]
            rule_worst = max(rule_worst, max(errs))
    ok = inv_worst <= 1e-4 and fund_worst <= 1e-6 and rule_worst <= 5e-8
    _verdict("11 operator identity suite", ok,
             f"inversion {inv_worst:.3e} <= 1e-4, "
             f"fundamental {fund_worst:.3e} <= 1e-6, "
             f"rule table {rule_worst:.3e} <= 5e-8")
    assert ok


# ------------------------------------------------------------------ 12


def test_criterion_12_cli_contract(tmp_path):
    def run(*argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, err.getvalue()

    def capture_list():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["list"])
        return code, out.getvalue()

    checks = []

    code_a, list_a = capture_list()
    code_b, list_b = capture_list()
    checks.append(code_a == 0 and code_b == 0 and list_a == list_b)

    solve = ("solve", "--problem", "example1", "--method", "conformable",
             "--alpha", "0.5", "--h", "0.001", "--tau", "2")
    pa, pb = tmp_path / "s1.csv", tmp_path / "s2.csv"
    checks.append(run(*solve, "--output", str(pa))[0] == 0)
    checks.append(run(*solve, "--output", str(pb))[0] == 0)
    checks.append(pa.read_bytes() == pb.read_bytes())

    conv = ("convergence", "--problem", "example1", "--method",
            "conformable", "--alpha", "0.5", "--tau", "2", "--h0", "0.04",
            "--levels", "5")
    ca, cb = tmp_path / "c1.csv", tmp_path / "c2.csv"
    checks.append(run(*conv, "--output", str(ca))[0] == 0)
    checks.append(run(*conv, "--output", str(cb))[0] == 0)
    checks.append(ca.read_bytes() == cb.read_bytes())

    comp = ("compare", "--problem", "example1", "--alpha", "1", "--tau",
            "2", "--h", "0.01", "--methods", "classical,conformable")
    ma, mb = tmp_path / "m1.csv", tmp_path / "m2.csv"
    checks.append(run(*comp, "--output", str(ma))[0] == 0)
    checks.append(run(*comp, "--output", str(mb))[0] == 0)
    checks.append(ma.read_bytes() == mb.read_bytes())

    code, message = run("solve", "--problem", "mystery", "--method",
                        "conformable", "--alpha", "0.5", "--h", "0.01",
                        "--tau", "1", "--output", str(tmp_path / "x.csv"))
    checks.append(code == 2 and message != "")

    code, message = run("solve", "--problem", "expkernel", "--method",
                        "classical", "--alpha", "1", "--h", "0.5",
                        "--tau", "40", "--output", str(tmp_path / "y.csv"))
    checks.append(code == 3 and "blew up" in message)

    ok = all(checks)
    _verdict("12 CLI contract", ok,
             "byte-identical reruns for list/solve/convergence/compare; "
             "exit codes 0, 2, 3 exercised")
    assert ok, checks
