"""Truncated power series arithmetic.

Oracles: closed-form coefficient sequences (geometric series, exp of a
logarithm), round-trip identities that pair ts_exp with ts_log and
ts_mul with hand convolution, and the dense full-triangle loop that the
double bv_exp_wg must reproduce while reading only its live w-band.
"""

from fractions import Fraction

import numpy as np
import pytest

from cyclemeter.errors import UsageError
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


def dense_bv_exp_wg(g):
    # The full-triangle recurrence: every row reads all n earlier columns.
    n_max = g.order
    kg = np.arange(n_max + 1) * np.asarray(g.coeffs)
    arr = np.zeros((n_max + 1, n_max + 1))
    arr[0, 0] = 1.0
    for n in range(1, n_max + 1):
        arr[n, 1 : n + 1] = kg[n:0:-1].dot(arr[0:n, 0:n]) / n
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
