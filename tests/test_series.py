"""Truncated power series arithmetic.

Oracles: closed-form coefficient sequences (geometric series, exp of a
logarithm), round-trip identities that pair ts_exp with ts_log and
ts_mul with hand convolution, and the dense full-triangle loop that the
double bv_exp_wg must reproduce while reading only its live w-band; its
full band is in turn the reference for the column-limited band.  Double
K_n rows of bv_exp_wg up to the cut _EXACT_DOUBLE_MAX_N must be the exact
results on the same double inputs, each rounded once, and past it run on
numpy.  Double h_n run the float kernel at every order, within 1e-13 of the
exact kernel on the same binary weights, and its one-term case gives the
generic dot's bits.  Double K_n laws within that kernel's budget run its
band twin _float_rows, within 1e-13 of the exact rows and of the numpy band.
"""

import math
import operator
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemeter import measure, series
from cyclemeter.asymptotics import ewens_family
from cyclemeter.catalog import KINDS, build_family
from cyclemeter.diagnostics import clt_report, mod_poisson_report
from cyclemeter.errors import ResourceError, UsageError
from cyclemeter.measure import (WeightSequence, _at, normalization_constants, total_cycles_pmf,
                                total_cycles_pmf_many)
from cyclemeter.series import (DOUBLE, EXACT, TruncatedSeries, _exact_h, _float_h, bv_exp_wg,
                               ts_exp, ts_log, ts_mul)


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


_CUT = series._EXACT_DOUBLE_MAX_N
# one parameter set per catalog kind (a new kind fails with KeyError)
_KIND_PARAMS = {
    "ewens": {"theta": "1/3"},
    "theta-shift": {"theta": "1"},
    "polylog": {"delta": "-1/2"},
    "exp-weight": {"c": "1", "theta_exp": "1"},
    "alpha-exp": {"alpha": "1/2"},
    "spatial": {"eps": "1,2"},
    "exp-poly": {"theta": "1/2", "b2": "1/4", "b3": "1/7"},
}


def rounded(value: Fraction) -> float:
    # value rounded once to a double, +-inf past the double range
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def plain_exp(coeffs) -> list:
    # n h_n = sum_k k g_k h_{n-k}, term by term on Fractions of the inputs
    h = [Fraction(1)]
    for n in range(1, len(coeffs)):
        h.append(sum(k * Fraction(coeffs[k]) * h[n - k] for k in range(1, n + 1)) / n)
    return h


# exp-poly with b2 < 0: log-series parts of both signs, F_m(c) > 0 up to order 60
_SIGNED_EXP_POLY = [("exp-poly", {"theta": "2", "b2": "-1/200"}),
                    ("exp-poly", {"theta": "2", "b2": "-1/5", "b3": "1/7"})]


@pytest.mark.parametrize("kind, params", [*_KIND_PARAMS.items(), *_SIGNED_EXP_POLY])
def test_exact_exp_is_the_plain_recurrence(kind, params):
    # every catalog family, on its exact rule or its doubles' binary values
    g = _at(build_family(kind, params).weights.log_series(60, EXACT))
    assert list(ts_exp(g).coeffs) == plain_exp(g.coeffs)


@pytest.mark.parametrize("kind, params", [*_SIGNED_EXP_POLY, ("ewens", {"theta": "1e-300"})])
def test_small_double_exp_is_the_plain_recurrence_rounded_once(kind, params):
    # the float kernel, within 1e-13 of the exact recurrence on the same binary
    # values; theta = 1e-300 puts its binary denominator 2^1049 into every h_n's
    g = _at(build_family(kind, params).weights.log_series(_CUT, DOUBLE))
    assert_close(ts_exp(g).coeffs, [rounded(c) for c in plain_exp(g.coeffs)])


@pytest.mark.parametrize("kind", KINDS)
def test_small_double_series_round_the_exact_ones_once(kind, monkeypatch):
    # At the cut, on the doubles' binary values: the K_n band bit for bit
    # the exact result rounded once, and within 1e-13 of the numpy band;
    # h_n, on the float kernel, within 1e-13 of the exact result.
    weights = build_family(kind, _KIND_PARAMS[kind]).weights
    parts = weights.log_series(_CUT, DOUBLE)
    exact = [TruncatedSeries(part.coeffs, EXACT) for part in parts]
    rows = bv_exp_wg(*parts)
    assert rows == [[rounded(v) for v in row] + [0.0] * (_CUT - n)
                    for n, row in enumerate(bv_exp_wg(*exact))]
    assert bv_exp_wg(*parts, cols=5) == [row[:5] for row in rows]
    assert_close(ts_exp(_at(parts)).coeffs, [rounded(c) for c in plain_exp(_at(parts).coeffs)])
    law = total_cycles_pmf(weights, _CUT, DOUBLE)
    monkeypatch.setattr(series, "_EXACT_DOUBLE_MAX_N", -1)  # the numpy band only
    for k, p in total_cycles_pmf(weights, _CUT, DOUBLE).items():
        if p > 1e-300:
            assert abs(law[k] - p) <= 1e-13 * p, k


@pytest.mark.parametrize("kind", KINDS)
def test_double_series_past_the_cut_run_numpy_rows_and_the_float_h(kind, monkeypatch):
    # Past the cut the K_n rows stay on numpy and h_n runs the float kernel on k*g_k.
    parts = build_family(kind, _KIND_PARAMS[kind]).weights.log_series(_CUT + 1, DOUBLE)
    g = _at(parts)
    rows, h = bv_exp_wg(*parts), ts_exp(g)
    assert isinstance(rows, np.ndarray)
    assert h.coeffs == tuple(series._float_h([k * c for k, c in enumerate(g.coeffs)]))
    monkeypatch.setattr(series, "_EXACT_DOUBLE_MAX_N", -1)
    assert np.array_equal(rows, bv_exp_wg(*parts)) and h == ts_exp(g)


def test_small_double_series_overflow_to_inf_as_numpy_does(monkeypatch):
    # exp(8 sum_m e^{17.6 m} t^m / m) has h_40 = e^704 C(47, 7) ~ 2^1041 from
    # finite inputs, as the Chernoff bound of a clt report meets it.  numpy
    # overflows there too, and in more w-degrees, whose dot products pass
    # the double range before the division by n.  A non-finite input keeps
    # the numpy kernels.  Past the cut, exp(8 sum_m e^{12 m} t^m / m) has
    # h_n = e^{12 n} C(n + 7, 7): h_57 ~ e^704.5 is finite, h_58 ~ e^716.7 is
    # not, and its Python dots overflow where the float kernel's numpy loop does.
    g = weight_series(lambda m: 8 * math.exp(17.6 * m), 40)
    h, rows = ts_exp(g).coeffs, bv_exp_wg(g)
    assert math.isfinite(h[39]) and h[40] == math.inf
    assert isinstance(rows, list) and math.inf in rows[40]
    past = [8 * math.exp(12 * m) if m else 0.0 for m in range(60)]
    python_h = series._float_h(past)
    assert math.isfinite(python_h[57]) and python_h[58] == math.inf
    with np.errstate(all="ignore"):
        assert isinstance(bv_exp_wg(TruncatedSeries((*g.coeffs[:-1], math.inf), DOUBLE)),
                          np.ndarray)
        monkeypatch.setattr(series, "_PY_PRODUCTS_PER_ORDER", 0)  # the numpy loop
        numpy_h = series._float_h(past)
        monkeypatch.setattr(series, "_EXACT_DOUBLE_MAX_N", -1)
        ref_h, ref_rows = ts_exp(g).coeffs, bv_exp_wg(g)
    assert [math.isinf(v) for v in h] == [math.isinf(v) for v in ref_h]
    assert [math.isinf(v) for v in python_h] == [math.isinf(v) for v in numpy_h]
    for a, b in zip(python_h, numpy_h):
        assert a == b or abs(a - b) <= 1e-13 * b
    rows = np.array(rows)
    assert np.all(np.isinf(ref_rows)[np.isinf(rows)]) and not np.isnan(ref_rows).any()
    both = np.isfinite(ref_rows)
    assert np.all(np.abs(rows[both] - ref_rows[both]) <= 1e-13 * np.abs(ref_rows[both]))


def plain_rows(gs) -> list:
    # n H_n(w) = sum_j sum_k k g_{j,k} w^j H_{n-k}(w), term by term on Fractions
    rows = [[Fraction(1)]]
    for n in range(1, len(gs[0].coeffs)):
        row = [Fraction(0)] * (n + 1)
        for j, g in enumerate(gs, 1):
            for k in range(j, n + 1):
                c = k * Fraction(g.coeffs[k])
                for i, v in enumerate(rows[n - k], j):
                    row[i] += c * v
        rows.append([v / n for v in row])
    return [tuple(row) for row in rows]


@pytest.mark.parametrize("above", [0, 1, 3])
@pytest.mark.parametrize("kind, params", [*_KIND_PARAMS.items(), *_SIGNED_EXP_POLY])
def test_exact_rows_are_the_plain_recurrence(kind, params, above):
    # every catalog family and tail above b, whether its terms are summed or not
    parts = build_family(kind, params).weights.log_series(40, EXACT, above=above)
    assert list(bv_exp_wg(*parts)) == plain_rows(parts)
    assert list(ts_exp(_at(parts)).coeffs) == plain_exp(_at(parts).coeffs)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(head=st.lists(_RATIONALS, max_size=5), tail=_RATIONALS, above=st.integers(0, 4),
       square=st.one_of(st.none(), _RATIONALS), order=st.integers(1, 24))
def test_eventually_constant_terms_are_the_plain_recurrence(head, tail, above, square, order):
    # k g_k = head, then tail for ever, zero up to above: the kernels pick the
    # summed first differences whenever they have fewer nonzero terms
    kg = ([0] * above + head + [tail] * order)[:order]
    g = TruncatedSeries([0] + [Fraction(c) / k for k, c in enumerate(kg, 1)], EXACT)
    gs = (g,) if square is None else (
        g, TruncatedSeries([0, 0] + [square / k for k in range(2, order + 1)], EXACT))
    assert list(bv_exp_wg(*gs)) == plain_rows(gs)
    assert list(ts_exp(g).coeffs) == plain_exp(g.coeffs)


def rising(x, n: int):
    return math.prod(x + i for i in range(n))


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(2)])
def test_ewens_k_law_at_200_is_the_rising_factorial(theta):
    # E[w^K_n] = (theta w)^(n) / (theta)^(n): the coefficients of prod_{i<n} (theta w + i)
    n = 200
    poly = [Fraction(1)]
    for i in range(n):
        poly = [a * i + b * theta for a, b in zip([*poly, 0], [0, *poly])]
    law = total_cycles_pmf(WeightSequence.constant(theta), n)
    assert [law[k] for k in range(1, n + 1)] == [c / rising(theta, n) for c in poly[1:]]


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(2)])
def test_ewens_h_at_2000_is_the_rising_factorial(theta):
    n = 2000
    h = normalization_constants(WeightSequence.constant(theta), n)
    assert h[n] == rising(theta, n) / math.factorial(n)


def test_summed_ewens_rows_hold_no_more_memory(monkeypatch):
    # The prefix sums are kept only while a term reads them: the rows peak as
    # the plain terms do, though they run O(n^2) products, not O(n^3).  (n = 120:
    # traced, the plain O(n^3) reference takes about 11 s at n = 200.)
    parts = WeightSequence.constant(Fraction(1, 2)).log_series(120, EXACT)

    def peak() -> tuple:
        tracemalloc.start()
        try:
            rows = series._exact_rows(parts)
            return rows, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    summed, summed_peak = peak()
    assert series._terms([k * c for k, c in enumerate(parts[0].coeffs)])[0]
    monkeypatch.setattr(series, "_terms", lambda a: (False, {k: c for k, c in enumerate(a) if c}))
    plain, plain_peak = peak()
    assert summed == plain
    assert summed_peak <= 1.05 * plain_peak


def exact_h_of(a) -> list:
    # the exact kernel's h_n on the binary values of the weights a_k, rounded once
    g = TruncatedSeries([0] + [Fraction(c) / k for k, c in enumerate(a) if k], EXACT)
    return [rounded(Fraction(v, q)) for v, q in _exact_h(g)]


def assert_close(got, want, tol=1e-13):
    assert len(got) == len(want)
    for n, (x, y) in enumerate(zip(got, want)):
        assert x == y or abs(x - y) <= tol * y, n


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)],
                         ids=["1/2", "1", "2", "3"])
def test_double_ewens_h_to_20000_is_the_rising_factorial(theta):
    # One summed term, n h_n = theta (h_0 + ... + h_{n-1}), run on Python floats:
    # within 1e-13 of h_n = theta^(n) / n! (checked at n < 100 and every 20th n).
    n_max = 20000
    h = normalization_constants(WeightSequence.constant(theta), n_max, DOUBLE)
    p, q = theta.as_integer_ratio()
    num = den = 1
    for n in range(1, n_max + 1):
        num *= p + (n - 1) * q
        den *= q * n
        if n < 100 or n % 20 == 0:
            assert abs(h[n] - num / den) <= 1e-13 * (num / den), n


@pytest.mark.parametrize("kind, n_max", [(kind, n) for n in (200, _CUT) for kind in KINDS],
                         ids=[*KINDS, *(f"{kind}-{_CUT}" for kind in KINDS)])
def test_double_h_is_the_exact_kernel_on_the_same_binary_weights(kind, n_max):
    # A WeightSequence's own theta_k, k*g_k for exp-poly: one float kernel at every order.
    weights = build_family(kind, _KIND_PARAMS[kind]).weights
    h = normalization_constants(weights, n_max, DOUBLE)
    if isinstance(weights, WeightSequence):
        a = [0.0] + [weights.theta(k) for k in range(1, n_max + 1)]
    else:
        a = [k * c for k, c in enumerate(_at(weights.log_series(n_max, DOUBLE)).coeffs)]
    assert_close(h, exact_h_of(a))


_DYADIC = st.integers(0, 1 << 10).map(lambda i: i / 64)


@settings(max_examples=40, deadline=None)
@given(head=st.lists(_DYADIC, max_size=8), tail=_DYADIC, order=st.integers(1, 300))
def test_float_h_is_the_exact_kernel_rounded(head, tail, order):
    # Nonnegative weights, a random head and then a constant tail: summed
    # differences wherever they are fewer and all >= 0, so a head that
    # decreases takes the plain form.  Both inner loops, whichever the order picks.
    a = ([0.0] + head + [tail] * order)[: order + 1]
    if any(y < x for x, y in zip(a, a[1:])):
        assert not series._terms(a, rounded=True)[0]
    want = exact_h_of(a)
    for budget in (0, series._PY_PRODUCTS_PER_ORDER, order):  # numpy, as chosen, Python
        with mock.patch.object(series, "_PY_PRODUCTS_PER_ORDER", budget):
            assert_close(_float_h(a), want)


@pytest.mark.parametrize("spike", [1e10, 1.0])
def test_a_spike_keeps_the_plain_form(spike):
    # theta_1 = spike, theta_k = spike * 1e-10 after: the difference at k = 2 is < 0,
    # and summed differences would cancel.  At spike 1, h_n falls to about
    # 1e-10 e / n, and the summed form would lose six digits; at 1e10, h_n
    # overflows from n = 35 on.
    a = [0.0, spike] + [spike * 1e-10] * 299
    assert series._terms(a, rounded=True) == (False, {k: c for k, c in enumerate(a) if c})
    with np.errstate(all="ignore"):
        assert_close(_float_h(a), exact_h_of(a))


def exact_rows_of(parts) -> list:
    # _exact_rows on the binary values of each part's recurrence weights a_k = k g_k
    return series._exact_rows(tuple(
        TruncatedSeries([0] + [Fraction(c) / k for k, c in enumerate(a) if k], EXACT)
        for a in parts))


@pytest.mark.parametrize("a, n_max", [
    ([1 / 3], 150), ([0.5], 400), ([2.0], 400),
    # an increasing head, then a constant tail: four summed terms, and a plain w^2 part
    ([0.5, 0.75, 1.5, 2.0], 400),
    # a head that falls takes the plain form
    ([3.0, 0.25, 1.0], 60),
], ids=["ewens-1/3", "ewens-1/2", "ewens-2", "rising-head", "falling-head"])
@pytest.mark.parametrize("cols", [None, 40, 7])
def test_float_rows_are_the_exact_rows_rounded(a, n_max, cols, monkeypatch):
    # The float band kernel against the exact one on the same binary weights:
    # every kept row, full or truncated, within 1e-13 relative on atoms above 1e-300.
    parts = [[0.0] + (a + [a[-1]] * n_max)[:n_max]]
    if len(a) > 1:
        parts.append([0.0, 0.0, 0.25, 0.0, 0.5] + [0.0] * (n_max - 4))  # two plain terms
    monkeypatch.setattr(series, "_PY_PRODUCTS_PER_ORDER", n_max * n_max)  # whatever the band
    cols = n_max + 1 if cols is None else cols
    keep = [1, 7, n_max // 3, n_max]
    rows = series._float_rows(parts, cols, keep)
    assert sorted(rows) == keep
    exact = exact_rows_of(parts)
    for n in keep:
        nums, q = exact[n]
        want = [rounded(Fraction(v, q)) for v in nums[:cols]]
        assert len(rows[n]) == len(want) == min(n + 1, cols)
        for i, (got, w) in enumerate(zip(rows[n], want)):
            assert got == w or (w <= 1e-300 and got <= 1e-300) or abs(got - w) <= 1e-13 * w, (n, i)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("keep_k", [None, 0])
def test_float_rows_are_the_numpy_band(kind, keep_k, monkeypatch):
    # Every catalog kind, full and certified columns: the Python kernel at any
    # budget against bv_exp_wg's numpy rows at budget 0.
    weights = build_family(kind, _KIND_PARAMS[kind]).weights
    monkeypatch.setattr(series, "_EXACT_DOUBLE_MAX_N", -1)
    laws = []
    for budget in (10**9, 0):
        monkeypatch.setattr(series, "_PY_PRODUCTS_PER_ORDER", budget)
        laws.append(total_cycles_pmf_many(weights, [20, 90], DOUBLE, keep_k))
    for n in (20, 90):
        python, numpy = laws[0][n], laws[1][n]
        assert python.support() == numpy.support()
        for k in numpy.support():
            if numpy[k] > 1e-300:
                assert abs(python[k] - numpy[k]) <= 1e-13 * numpy[k], (n, k)


def test_band_routing_follows_the_budget(monkeypatch):
    # The mod-poisson band (Ewens 2, all 501 columns to n = 500) reads about 250
    # products per order and keeps numpy's rows; the certified columns of the
    # Ewens 1 clt report fit the budget at n = 20000 and never reach bv_exp_wg.
    returned = []

    def spy(*args, **kwargs):
        returned.append(bv_exp_wg(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(measure, "bv_exp_wg", spy)
    mod_poisson_report(ewens_family(2), [100, 300, 500], [0.5])
    assert len(returned) == 1 and isinstance(returned[0], np.ndarray)
    assert series._float_rows([[0.0] + [2.0] * 500], 501, [500]) is None
    clt_report(ewens_family(1), [100, 20000])
    assert len(returned) == 1


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 1e-300])
@pytest.mark.parametrize("k", [1, 3])
def test_one_summed_term_is_the_generic_dot_bit_for_bit(theta, k):
    # a_j = theta from j = k on: one summed term, n h_n = theta X_{n-k}, on a scalar
    # running sum; the dot over the last k prefix sums gives the same bits.
    n_max = 20000
    c = [0.0] * (k - 1) + [theta]
    hs, xs = [1.0], [1.0]
    for n in range(1, n_max + 1):
        h = sum(map(operator.mul, c, reversed(xs))) / n
        hs.append(h)
        xs.append(xs[-1] + h)
        del xs[:-k]
    assert _float_h([0.0] * k + [theta] * (n_max + 1 - k)) == hs
