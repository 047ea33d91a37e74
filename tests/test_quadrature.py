import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import confrac as cf
from confrac import quadrature
from confrac.core import MAX_NODES, MIN_ORDER
from confrac.errors import AlphaRangeError, DomainError, GridError
from confrac.quadrature import _coefficient_block, coefficient_tables, product_scales

mp.mp.dps = 50

ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


# ---------------------------------------------------------------- coefficient values


def test_rectangle_weights_classical():
    assert cf.rectangle_weights(3, 1.0).tolist() == [1.0] * 4


def test_rectangle_weights_half_order():
    got = cf.rectangle_weights(2, 0.5)
    assert got == pytest.approx([1.0, 0.41421356, 0.31783725], abs=1e-8)


def test_trapezoid_weights_classical():
    assert cf.trapezoid_weights(3, 1.0).tolist() == [1, 2, 2, 2, 1]


def test_trapezoid_weights_half_order():
    got = cf.trapezoid_weights(2, 0.5)
    expected = [
        1.0,
        2.0**1.5 - 2.0,                      # 0.82842712...
        1.0 - 2.0 * 2.0**1.5 + 3.0**1.5,     # 0.53929817...
        1.5 * 3.0**0.5 + 2.0**1.5 - 3.0**1.5,  # closing weight, 0.23035091...
    ]
    assert got == pytest.approx(expected, abs=1e-13)


def test_tail_coefficient_first_panel_equals_alpha():
    for a in ALPHAS:
        assert cf.trapezoid_tail_coefficient(0, a) == pytest.approx(a, rel=1e-14)


@pytest.mark.parametrize("a", (MIN_ORDER, 0.05, 0.5, 1.0))
def test_trapezoid_entry_zero_is_one(a):
    # the second difference with the power at index -1 read as 0
    assert cf.trapezoid_coefficient(0, a) == 1.0
    assert coefficient_tables(3, a)[1][0] == 1.0


def test_interior_coefficients_do_not_depend_on_panel_count():
    for a in (0.3, 0.8):
        w_small = cf.trapezoid_weights(40, a)
        w_large = cf.trapezoid_weights(50, a)
        # everything but the closing coefficient is shared bit-for-bit
        assert np.array_equal(w_small[:41], w_large[:41])


@pytest.mark.parametrize("bad_index", [-1, -5])
def test_negative_indices_rejected(bad_index):
    with pytest.raises(ValueError):
        cf.rectangle_coefficient(bad_index, 0.5)
    with pytest.raises(ValueError):
        cf.trapezoid_coefficient(bad_index, 0.5)
    with pytest.raises(ValueError):
        cf.trapezoid_tail_coefficient(bad_index, 0.5)


# ---------------------------------------------------------------- sum identities


@pytest.mark.parametrize("a", ALPHAS)
@pytest.mark.parametrize("n", [0, 1, 10, 100, 10000])
def test_weight_sums_match_closed_forms(a, n):
    rect = math.fsum(cf.rectangle_weights(n, a).tolist())
    assert rect == pytest.approx((n + 1.0) ** a, rel=1e-12)
    trap = math.fsum(cf.trapezoid_weights(n, a).tolist())
    assert trap == pytest.approx((a + 1.0) * (n + 1.0) ** a, rel=1e-12)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    a=st.floats(min_value=0.01, max_value=1.0),
    n=st.integers(min_value=0, max_value=300),
)
def test_weight_sum_identity_property(a, n):
    trap = math.fsum(cf.trapezoid_weights(n, a).tolist())
    assert trap == pytest.approx((a + 1.0) * (n + 1.0) ** a, rel=1e-12)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    a=st.floats(min_value=0.01, max_value=1.0),
    j=st.integers(min_value=1, max_value=100000),
)
def test_coefficients_are_positive(a, j):
    assert cf.rectangle_coefficient(j, a) > 0.0
    assert cf.trapezoid_coefficient(j, a) > 0.0
    assert cf.trapezoid_tail_coefficient(j, a) > 0.0


# ---------------------------------------------------------------- extended-precision oracle


def _rect_mp(j, a):
    return mp.mpf(j + 1) ** mp.mpf(a) - mp.mpf(j) ** mp.mpf(a)


def _trap_mp(j, a):
    if j == 0:
        return mp.mpf(1)
    b = mp.mpf(a) + 1
    return mp.mpf(j - 1) ** b - 2 * mp.mpf(j) ** b + mp.mpf(j + 1) ** b


def _tail_mp(n, a):
    b = mp.mpf(a) + 1
    return (
        (mp.mpf(a) + 1) * mp.mpf(n + 1) ** mp.mpf(a)
        + mp.mpf(n) ** b
        - mp.mpf(n + 1) ** b
    )


@pytest.mark.parametrize("a", (0.1, 0.5, 0.9, 0.999))
def test_coefficients_match_extended_precision(a):
    # indices straddle the naive/series switchover at 128
    for j in (1, 2, 10, 100, 126, 127, 128, 129, 500, 1000, 10000, 100000):
        for ours, reference in (
            (cf.rectangle_coefficient(j, a), _rect_mp(j, a)),
            (cf.trapezoid_coefficient(j, a), _trap_mp(j, a)),
            (cf.trapezoid_tail_coefficient(j, a), _tail_mp(j, a)),
        ):
            rel = abs((mp.mpf(ours) - reference) / reference)
            assert rel < 1e-9, (a, j, ours)


@pytest.mark.parametrize("a", (MIN_ORDER, 1e-6))
def test_series_coefficients_match_extended_precision_at_tiny_orders(a):
    # the series' first binomial C(a + 1, 2) is formed from a itself;
    # formed from the rounded a + 1 it lost 8.3e-8 at a = 1e-9
    for j in (128, 129, 1000, 100_000, 10**7 - 1):
        _, trap, tail = _coefficient_block(j, j + 1, a)
        for ours, reference in (
            (cf.trapezoid_coefficient(j, a), _trap_mp(j, a)),
            (cf.trapezoid_tail_coefficient(j, a), _tail_mp(j, a)),
            (float(trap[0]), _trap_mp(j, a)),
            (float(tail[0]), _tail_mp(j, a)),
        ):
            rel = abs((mp.mpf(ours) - reference) / reference)
            assert rel <= 1e-14, (a, j, float(rel))


@pytest.mark.parametrize("a", (0.05, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0))
def test_coefficient_tables_match_scalar_functions(a):
    n = 100_001
    rect, trap, tail = coefficient_tables(n, a)
    indices = range(n + 1)
    assert np.array_equal(rect, [cf.rectangle_coefficient(j, a) for j in indices])
    assert np.array_equal(trap, [cf.trapezoid_coefficient(j, a) for j in indices])
    assert np.array_equal(
        tail, [cf.trapezoid_tail_coefficient(j, a) for j in indices]
    )


#: block edges around the series switchover (128) and the conformable
#: solver's block length (4096)
_BLOCK_EDGES = (0, 1, 127, 128, 129, 4095, 4096, 4097, 8193)


@pytest.mark.parametrize("a", (0.3, 0.5, 0.9, 1.0))
def test_coefficient_blocks_match_tables(a):
    tables = coefficient_tables(_BLOCK_EDGES[-1], a)
    for lo in _BLOCK_EDGES:
        for hi in sorted({lo + 1, *(e for e in _BLOCK_EDGES if e > lo)}):
            block = _coefficient_block(lo, hi, a)
            for whole, part in zip(tables, block):
                assert np.array_equal(whole[lo:hi], part), (a, lo, hi)


def test_coefficient_tables_memory_is_their_outputs():
    # three tables of 8 bytes per index; the series temporaries are those
    # of one block
    n = 200_000
    tracemalloc.start()
    try:
        coefficient_tables(n, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * (n + 1) + 2**20, peak


class _Allocated(Exception):
    """Raised by the patched allocators: the call got past its size check."""


@pytest.mark.parametrize("table", [coefficient_tables, cf.rectangle_weights,
                                   cf.trapezoid_weights, cf.caputo_weights])
def test_coefficient_tables_refuse_more_indices_than_grid_nodes(table, monkeypatch):
    # 24 bytes per index: a real n of 10**9 would ask for 24 GB, so both
    # allocators fail if reached and no table is ever built
    def allocate(*args, **kwargs):
        raise _Allocated

    monkeypatch.setattr(np, "empty", allocate)
    monkeypatch.setattr(quadrature, "_coefficient_block", allocate)
    with pytest.raises(GridError, match=f"below {MAX_NODES}, got {MAX_NODES}"):
        table(MAX_NODES, 0.5)
    with pytest.raises(_Allocated):
        table(MAX_NODES - 1, 0.5)


@pytest.mark.parametrize("a", (0.1, 0.5, 0.9))
def test_caputo_interior_weights_match_extended_precision(a):
    # the corrector reads the trapezoid interior coefficients backwards, so
    # they carry the same cancellation risk at large j
    n = 100_000
    _, corrector = cf.caputo_weights(n, a)
    for j in (200, 1000, 10_000, 100_000):
        reference = _trap_mp(j, a)
        rel = abs((mp.mpf(float(corrector[n + 1 - j])) - reference) / reference)
        assert rel <= 1e-14, (a, j, float(rel))


def test_series_path_agrees_with_naive_at_switchover():
    for a in (0.1, 0.5, 0.9):
        beta = a + 1.0
        for j in (128, 129, 200):
            naive = (j - 1.0) ** beta - 2.0 * float(j) ** beta + (j + 1.0) ** beta
            ours = cf.trapezoid_coefficient(j, a)
            assert ours == pytest.approx(naive, rel=1e-9)


# ---------------------------------------------------------------- scales


def test_weight_scales():
    a = 0.5
    rect_scale, trap_scale = product_scales(a, 0.1)
    assert rect_scale == pytest.approx(0.1**a / a, rel=1e-15)
    assert trap_scale == pytest.approx(0.1**a / (a * (a + 1)), rel=1e-15)
    assert cf.rectangle_weights(4, a).size == 5
    assert cf.trapezoid_weights(4, a).size == 6
    for bad_step in (0.0, math.inf):
        with pytest.raises(ValueError):
            product_scales(a, bad_step)
    # orders so small that h**a / a would overflow are refused as orders
    for tiny in (5e-324, 1e-310):
        with pytest.raises(AlphaRangeError):
            cf.integrate_rectangle([1.0, 1.0], 0.1, tiny)


# ---------------------------------------------------------------- integration


def test_integrate_rectangle_constant_exact():
    for n in (0, 5, 40):
        h = 1.0 / (n + 1)
        got = cf.integrate_rectangle([3.0] * (n + 1), h, 0.5)
        assert got == pytest.approx(3.0 * 1.0**0.5 / 0.5, rel=1e-13)


def test_integrate_rectangle_classical_left_sum():
    samples = [0.0, 0.25, 0.5, 0.75]
    assert cf.integrate_rectangle(samples, 0.25, 1.0) == pytest.approx(0.375)


def test_integrate_rectangle_single_panel():
    got = cf.integrate_rectangle([4.0], 0.5, 0.5)
    assert got == pytest.approx(4.0 * 0.5**0.5 / 0.5, rel=1e-14)


def test_integrate_trapezoid_linear_samples():
    n, tau, a = 9, 1.0, 0.5
    h = tau / (n + 1)
    samples = [2.0 + 3.0 * j * h for j in range(n + 2)]
    expected = 2.0 * tau**a / a + 3.0 * tau ** (a + 1) / (a + 1)
    assert cf.integrate_trapezoid(samples, h, a) == pytest.approx(expected, rel=1e-13)


def test_integrate_trapezoid_classical_quadratic():
    # classical trapezoid of x^2 on two panels of width 0.5
    got = cf.integrate_trapezoid([0.0, 0.25, 1.0], 0.5, 1.0)
    assert got == pytest.approx(0.375)


def test_integrate_rejects_mismatched_weights():
    with pytest.raises(ValueError):
        cf.integrate_rectangle([], 0.1, 0.5)  # no node at all
    with pytest.raises(ValueError):
        cf.integrate_trapezoid([], 0.1, 0.5)
    with pytest.raises(ValueError):
        cf.integrate_trapezoid([1.0], 0.1, 0.5)  # single sample has no panel


# ---------------------------------------------------------------- gamma


def test_gamma_exact_points():
    assert cf.gamma(1.0) == 1.0
    assert cf.gamma(5.0) == 24.0
    assert cf.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan")])
def test_gamma_rejects_non_positive(bad):
    with pytest.raises(DomainError):
        cf.gamma(bad)


def test_gamma_recurrence():
    for x in np.linspace(0.1, 9.0, 45):
        assert cf.gamma(x + 1.0) == pytest.approx(x * cf.gamma(float(x)), rel=1e-12)


def test_gamma_against_extended_precision():
    for x in np.linspace(0.05, 10.0, 40):
        reference = mp.gamma(mp.mpf(float(x)))
        rel = abs((mp.mpf(cf.gamma(float(x))) - reference) / reference)
        assert rel < 1e-14


def test_gamma_against_integral_definition():
    # independent route: numerically integrate t^(x-1) e^-t
    for x in (0.5, 1.5, 2.5, 5.0):
        reference, _ = quad(lambda t: t ** (x - 1) * math.exp(-t), 0, np.inf)
        assert cf.gamma(x) == pytest.approx(reference, rel=1e-8)
