"""Truncated power series arithmetic.

Oracles: closed-form coefficient sequences (geometric series, exp of a
logarithm), round-trip identities that pair ts_exp with ts_log and
ts_mul with hand convolution, and the dense full-triangle loop that the
double bv_exp_wg must reproduce while reading only its live w-band; its
full band is in turn the reference for the column-limited band.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cyclemeter import series
from cyclemeter.errors import ResourceError, UsageError
from cyclemeter.series import (DOUBLE, EXACT, TruncatedSeries, bv_exp_wg, ts_exp,
                               ts_log, ts_mul)


def harmonic_log_series(theta, order):
    # g(t) = theta * log(1/(1-t)) truncated: coefficients theta/k.
    coeffs = [Fraction(0)] + [Fraction(theta) / k for k in range(1, order + 1)]
    return TruncatedSeries(coeffs, EXACT)


def test_exp_of_two_log_gives_integers():
    # exp(2 log(1/(1-t))) = (1-t)^{-2} = sum (n+1) t^n.
    g = harmonic_log_series(2, 12)
    h = ts_exp(g)
    assert list(h.coeffs) == [Fraction(n + 1) for n in range(13)]


def test_exp_of_log_is_geometric():
    g = harmonic_log_series(1, 9)
    h = ts_exp(g)
    assert list(h.coeffs) == [Fraction(1)] * 10


def test_exp_double_matches_exact():
    g_exact = harmonic_log_series(Fraction(1, 3), 20)
    g_double = TruncatedSeries([float(c) for c in g_exact.coeffs], DOUBLE)
    h_exact = ts_exp(g_exact).coeffs
    h_double = ts_exp(g_double).coeffs
    for n in range(21):
        assert abs(h_double[n] - float(h_exact[n])) <= 1e-13 * float(h_exact[n])


def test_log_exp_round_trip():
    coeffs = [Fraction(0)]
    state = 17
    for _ in range(15):
        state = (state * 48271) % 2147483647
        coeffs.append(Fraction(state % 19 - 9, (state % 7) + 1))
    g = TruncatedSeries(coeffs, EXACT)
    assert list(ts_log(ts_exp(g)).coeffs) == coeffs


def test_mul_matches_hand_convolution():
    a = TruncatedSeries([1, 2, 3], EXACT)
    b = TruncatedSeries([4, 0, 5], EXACT)
    prod = ts_mul(a, b)
    # (1 + 2t + 3t^2)(4 + 5t^2) truncated at t^2.
    assert list(prod.coeffs) == [Fraction(4), Fraction(8), Fraction(17)]


def test_mul_double():
    a = TruncatedSeries([1.0, 2.0, 3.0], DOUBLE)
    b = TruncatedSeries([4.0, 0.0, 5.0], DOUBLE)
    prod = ts_mul(a, b)
    assert prod.coeffs[2] == pytest.approx(17.0, abs=0)


def test_exp_requires_zero_constant_term():
    with pytest.raises(UsageError):
        ts_exp(TruncatedSeries([1, 1], EXACT))


def test_log_requires_unit_constant_term():
    with pytest.raises(UsageError):
        ts_log(TruncatedSeries([2, 1], EXACT))


def test_mul_rejects_mixed_kinds():
    a = TruncatedSeries([1, 1], EXACT)
    b = TruncatedSeries([1.0, 1.0], DOUBLE)
    with pytest.raises(UsageError):
        ts_mul(a, b)


def test_bivariate_unit_weights_row_two():
    # exp(w log(1/(1-t))): t^2 coefficient is w/2 + w^2/2.
    g = harmonic_log_series(1, 4)
    rows = bv_exp_wg(g)
    assert rows[2][1] == Fraction(1, 2)
    assert rows[2][2] == Fraction(1, 2)
    assert rows[2][0] == 0


def test_bivariate_rows_sum_to_univariate():
    # Setting w = 1 recovers exp(g).
    g = harmonic_log_series(Fraction(3, 2), 8)
    rows = bv_exp_wg(g)
    h = ts_exp(g).coeffs
    for n in range(9):
        assert sum(rows[n]) == h[n]


def test_bivariate_w_degree_bound():
    g = harmonic_log_series(2, 6)
    rows = bv_exp_wg(g)
    assert len(rows[3]) == 4
    assert rows[6][6] == Fraction(2, 1) ** 6 / Fraction(720)


def test_bivariate_double_matches_exact():
    g_exact = harmonic_log_series(Fraction(5, 4), 12)
    g_double = TruncatedSeries([float(c) for c in g_exact.coeffs], DOUBLE)
    be = bv_exp_wg(g_exact)
    bd = bv_exp_wg(g_double)
    for n in range(13):
        for k in range(n + 1):
            ref = float(be[n][k])
            assert abs(bd[n][k] - ref) <= 1e-12 * max(1.0, abs(ref))


def weight_series(theta, order):
    # g(t) = sum_m theta_m t^m / m for a weight rule theta(m), as doubles.
    return TruncatedSeries([0.0] + [theta(m) / m for m in range(1, order + 1)], DOUBLE)


def dense_bv_exp_wg(*gs):
    # The full-triangle recurrence of exp(sum_j w^j gs[j-1]): the w^j term
    # of every row reads all columns of the rows n-k, k >= j.
    n_max = gs[0].order
    arr = np.zeros((n_max + 1, n_max + 1))
    arr[0, 0] = 1.0
    for n in range(1, n_max + 1):
        for j, g in enumerate(gs, 1):
            kg = np.arange(n_max + 1) * np.asarray(g.coeffs)
            if j <= n:
                arr[n, j : n + 1] += kg[n : j - 1 : -1].dot(arr[0 : n - j + 1, 0 : n - j + 1]) / n
    return arr


@pytest.mark.parametrize("theta", [
    lambda m: 0.5, lambda m: 1.0, lambda m: 2.0,
    lambda m: 1.0 + 1.0 / m**2,
    lambda m: float(m % 2 == 0),  # odd rows vanish whole
], ids=["ewens-1/2", "ewens-1", "ewens-2", "theta-shift", "even-only"])
def test_bivariate_double_band_matches_dense(theta):
    # bv_exp_wg reads only the w-columns that are nonzero so far; past the
    # double range the top columns underflow to 0, so that band is narrow.
    g = weight_series(theta, 600)
    ref = dense_bv_exp_wg(g)
    got = bv_exp_wg(g)
    assert got.shape == ref.shape
    assert np.all(got[ref == 0] == 0)
    err = np.abs(got - ref)
    normal = np.abs(ref) >= np.finfo(float).tiny
    assert np.all(err[normal] <= 1e-13 * np.abs(ref[normal]))
    assert np.all(err[~normal] <= 1e-300)


@pytest.mark.parametrize("theta", [
    lambda m: 0.5, lambda m: 1.0, lambda m: 2.0,
    lambda m: 1.0 + 1.0 / m**2,
    lambda m: float(m % 2 == 0),
], ids=["ewens-1/2", "ewens-1", "ewens-2", "theta-shift", "even-only"])
def test_bivariate_double_column_limit_matches_full_band(theta):
    # No w-degree below the limit reads one above it, so the capped array
    # is the full band's leading columns; 40 is about the width a report
    # certifies at these n.  Rows 0..600 of the order-1000 band are the
    # order-600 band.
    full = bv_exp_wg(weight_series(theta, 1000))
    for n_max in (600, 1000):
        g = weight_series(theta, n_max)
        for cols in (1, 2, 40):
            got = bv_exp_wg(g, cols=cols)
            assert got.shape == (n_max + 1, cols)
            ref = full[: n_max + 1, :cols]
            assert np.all(got[ref == 0] == 0)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_bivariate_double_refuses_an_array_over_budget(monkeypatch):
    # The full (N + 1)^2 array at N = 40000 is 12.8 GB; it is refused
    # before anything is allocated, while a 40-column band passes.
    g = weight_series(lambda m: 1.0, 40000)

    def no_alloc(*args, **kwargs):
        raise RuntimeError("reached np.zeros")

    monkeypatch.setattr(np, "zeros", no_alloc)
    with pytest.raises(ResourceError, match="byte budget"):
        bv_exp_wg(g)
    side = math.isqrt(series.BAND_BYTES_MAX // 8)
    with pytest.raises(ResourceError):
        bv_exp_wg(weight_series(lambda m: 1.0, side))
    for h, cols in ((g, 40), (weight_series(lambda m: 1.0, side - 1), None)):
        with pytest.raises(RuntimeError, match="reached np.zeros"):
            bv_exp_wg(h, cols=cols)
    with pytest.raises(UsageError, match="cols must be"):
        bv_exp_wg(g, cols=0)


@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_exp_double_matches_ewens_product(theta):
    # exp(theta log(1/(1-t))) has h_n = h_{n-1} (n - 1 + theta) / n; the
    # product's own rounding is at most n * eps relative.
    n_max = 20000
    h = ts_exp(weight_series(lambda m: theta, n_max)).coeffs
    prod = 1.0
    for n in range(1, n_max + 1):
        prod *= (n - 1 + theta) / n
        assert abs(h[n] - prod) <= 1e-11 * prod
    assert h[0] == 1.0


@pytest.mark.parametrize("theta", [1 / 3, 0.5], ids=["1/3", "1/2"])
def test_log_exp_round_trip_double(theta):
    # For theta <= 1/2, h_n decays and the log recurrence barely cancels.
    g = weight_series(lambda m: theta, 5000)
    back = ts_log(ts_exp(g)).coeffs
    assert back[0] == 0.0
    for a, b in zip(back[1:], g.coeffs[1:]):
        assert abs(a - b) <= 1e-13 * b


def poly_part(b, j, order):
    # b * sum_i t^{ij} / i^j: the w^j part of an exp-polynomial log-series.
    coeffs = [0.0] * (order + 1)
    for i in range(1, order // j + 1):
        coeffs[i * j] = b / i**j
    return TruncatedSeries(coeffs, DOUBLE)


@pytest.mark.parametrize("parts", [
    {1: 1.0, 2: 0.25}, {1: 0.5, 3: 2.0}, {1: 4.0, 2: -0.005}, {1: 1 / 3, 2: 0.5, 5: 1 / 7},
], ids=["b2", "b3-gap", "negative-b2", "b2-b5"])
def test_bivariate_higher_degrees_band_matches_dense(parts):
    # Each w^j term reads the live band of the rows it reaches, shifted by j.
    order = 400
    gs = [poly_part(parts.get(j, 0.0), j, order) for j in range(1, max(parts) + 1)]
    ref = dense_bv_exp_wg(*gs)
    got = bv_exp_wg(*gs)
    assert got.shape == ref.shape
    assert np.all(got[ref == 0] == 0)
    normal = np.abs(ref) >= 1e-250
    err = np.abs(got - ref)
    assert np.all(err[normal] <= 1e-12 * np.abs(ref[normal]))
    assert np.all(err[~normal] <= 1e-250)
    for cols in (2, 7):  # a w^j term past the limit is skipped, a shorter one clipped
        capped = bv_exp_wg(*gs, cols=cols)
        assert np.all(np.abs(capped - got[:, :cols]) <= 1e-13 * np.abs(got[:, :cols]))


def test_bivariate_higher_degrees_exact_rows():
    # exp(w t + w^2 t^3/3): row n is sum_c w^{n-c} / ((n-3c)! c! 3^c), by
    # counting the (w t)-terms and the (w^2 t^3/3)-terms of a product.
    g1 = TruncatedSeries([0, 1] + [0] * 8, EXACT)
    g2 = TruncatedSeries([0, 0, 0, Fraction(1, 3)] + [0] * 6, EXACT)
    rows = bv_exp_wg(g1, g2)
    for n in range(10):
        want = [Fraction(0)] * (n + 1)
        for c in range(n // 3 + 1):
            want[n - c] += Fraction(1, math.factorial(n - 3 * c) * math.factorial(c) * 3**c)
        assert rows[n] == tuple(want)
    with pytest.raises(UsageError, match="w\\^2 series must vanish below t\\^2"):
        bv_exp_wg(g1, g1)
    with pytest.raises(UsageError):
        bv_exp_wg(g1, TruncatedSeries([0, 0, 1], EXACT))
