"""Truncated formal power series over exact rationals or doubles.

Everything downstream works with series truncated at a fixed order N:
a series is its coefficient vector (a_0, ..., a_N) and every operation
discards terms of order > N.  Two scalar kinds are supported:

* ``"exact"``  -- fractions.Fraction coefficients, no rounding anywhere;
* ``"double"`` -- float coefficients with numpy-backed recurrences that
  read forward slices and, in bv_exp_wg, only the live w-band: the leading
  columns nonzero in some earlier row.  K_n concentrates near theta log n,
  so past the double range the band is narrow and a row costs O(n * k_live).

Binary operations require equal order and equal kind; callers pick the
backend explicitly and keep it.  This module is also the one place that
knows the kinds: check_kind validates a name, to_kind converts a value
(to_kind(0, kind) is the zero of a kind; to_fraction is its exact case),
pmf_tol is the mass tolerance of a law in that kind, and auto_kind makes
the default choice.

The exponential and logarithm use the standard coefficient recurrences
obtained by differentiating H = exp(G):

    n * H_n = sum_{k=1}^{n} k * G_k * H_{n-k}        (G_0 = 0, H_0 = 1)

which is also the workhorse for the bivariate exp(w * G(t)) needed for
cycle-count generating functions: the coefficient of t^n there is a
polynomial in w of degree at most n, and bv_exp_wg returns one row of
w-coefficients per t-order: tuples of length n + 1 (exact) or the rows
of one square array, zero past degree n (double).

The exact recurrences run on Python ints: each row (the scalar h_n, or
the w-coefficients of [t^n]) is a list of integer numerators over one
reduced denominator, and Fractions are built only from the finished rows.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Sequence, Union

from .errors import UsageError

EXACT = "exact"
DOUBLE = "double"
_KINDS = (EXACT, DOUBLE)

# The default backend is exact only up to this order: exact numerators and
# denominators grow with n, so exact K_n laws cost about 170x the double
# ones at n = 200 and 1200x at n = 400 (Ewens 1/2).
_AUTO_EXACT_MAX_N = 200

Scalar = Union[Fraction, float]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


def to_fraction(value) -> Fraction:
    """value as an exact rational: a rational, a float (its exact binary
    value) or a numeric string; anything else is a UsageError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (numbers.Rational, float, str)):
        return Fraction(value)
    raise UsageError(f"cannot interpret {value!r} as an exact rational")


def check_kind(kind: str) -> None:
    """Raise UsageError unless kind names a scalar kind."""
    _require(kind in _KINDS, f"backend must be 'exact' or 'double', got {kind!r}")


def to_kind(value, kind: str) -> Scalar:
    """value as a scalar of the given kind: Fraction (exact) or float."""
    return to_fraction(value) if kind == EXACT else float(value)


def pmf_tol(kind: str):
    """Mass tolerance of a law in this kind: exact laws sum to 1 exactly."""
    return 0 if kind == EXACT else 1e-9


def auto_kind(exact_rule: bool, n_max: int) -> str:
    """Default backend: exact when the weights have an exact rule and the
    largest order is small enough for rational arithmetic."""
    return EXACT if exact_rule and n_max <= _AUTO_EXACT_MAX_N else DOUBLE


class TruncatedSeries:
    """Coefficient vector a_0..a_N of a power series truncated at order N."""

    __slots__ = ("coeffs", "kind")

    def __init__(self, coeffs: Sequence[Scalar], kind: str):
        check_kind(kind)
        _require(len(coeffs) >= 1, "need at least the order-0 coefficient")
        if kind == EXACT:
            self.coeffs = tuple(to_fraction(c) for c in coeffs)
        else:
            self.coeffs = tuple(float(c) for c in coeffs)
        self.kind = kind

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.kind == other.kind and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order}, kind={self.kind})"


def _check_pair(a: TruncatedSeries, b: TruncatedSeries) -> None:
    _require(isinstance(a, TruncatedSeries) and isinstance(b, TruncatedSeries),
             "operands must be TruncatedSeries")
    _require(a.kind == b.kind, f"mixed scalar kinds {a.kind!r} and {b.kind!r}")
    _require(a.order == b.order, f"mixed orders {a.order} and {b.order}")


def ts_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    _check_pair(a, b)
    n = a.order
    if a.kind == DOUBLE:
        import numpy as np
        prod = np.convolve(np.asarray(a.coeffs), np.asarray(b.coeffs))[: n + 1]
        return TruncatedSeries(prod.tolist(), DOUBLE)
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = b.coeffs[j]
            if bj:
                out[i + j] += ai * bj
    return TruncatedSeries(out, EXACT)


def ts_exp(g: TruncatedSeries) -> TruncatedSeries:
    """exp(g) for a series with vanishing constant term.

    Uses n*H_n = sum_k k*g_k*H_{n-k}; exact in the rational backend.
    """
    _require(isinstance(g, TruncatedSeries), "operand must be a TruncatedSeries")
    _require(g.coeffs[0] == 0, "ts_exp needs a vanishing constant term")
    n_max = g.order
    if g.kind == DOUBLE:
        import numpy as np
        kg = np.arange(n_max + 1, dtype=float) * np.asarray(g.coeffs)
        hr = np.zeros(n_max + 1)  # hr[N - j] = h_j: h_{n-1}..h_0 is hr[N-n+1:]
        hr[n_max] = 1.0
        for n in range(1, n_max + 1):
            hr[n_max - n] = kg[1 : n + 1].dot(hr[n_max - n + 1 :]) / n
        return TruncatedSeries(hr[::-1].tolist(), DOUBLE)
    return TruncatedSeries([Fraction(nums[0], q) for nums, q in _exact_rows(g, 0)], EXACT)


def ts_log(h: TruncatedSeries) -> TruncatedSeries:
    """log(h) for a series with constant term 1; inverse of ts_exp."""
    _require(isinstance(h, TruncatedSeries), "operand must be a TruncatedSeries")
    _require(h.coeffs[0] == 1, "ts_log needs constant term exactly 1")
    n_max = h.order
    if h.kind == DOUBLE:
        import numpy as np
        hr = np.asarray(h.coeffs[::-1])  # hr[N - j] = h_j, as in ts_exp
        g = np.zeros(n_max + 1)
        kg = np.zeros(n_max + 1)
        for n in range(1, n_max + 1):
            conv = kg[1:n].dot(hr[n_max - n + 1 : n_max])
            g[n] = hr[n_max - n] - conv / n
            kg[n] = n * g[n]
        return TruncatedSeries(g.tolist(), DOUBLE)
    g = [Fraction(0)] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(1, n):
            if g[k]:
                acc += k * g[k] * h.coeffs[n - k]
        g[n] = h.coeffs[n] - acc / n
    return TruncatedSeries(g, EXACT)


def bv_exp_wg(g: TruncatedSeries):
    """exp(w * g(t)) truncated at t-order N, exact in w.

    Row n holds the w-coefficients of [t^n], in the shape the module
    docstring gives.  Same recurrence as ts_exp with every use of g_k
    carrying one factor of w, so row n is built from shifted earlier rows:

        n * H_n(w) = sum_k k*g_k * w * H_{n-k}(w)
    """
    _require(isinstance(g, TruncatedSeries), "operand must be a TruncatedSeries")
    _require(g.coeffs[0] == 0, "bv_exp_wg needs a vanishing constant term")
    n_max = g.order
    if g.kind == DOUBLE:
        import numpy as np
        kg = np.arange(n_max + 1, dtype=float) * np.asarray(g.coeffs)
        arr = np.zeros((n_max + 1, n_max + 1))
        arr[0, 0] = 1.0
        width = 1  # columns >= width are exact zeros in rows 0..n-1
        for n in range(1, n_max + 1):
            s = kg[n:0:-1].dot(arr[0:n, 0:width])  # S[k] = sum_j kg[j] * arr[n-j, k]
            arr[n, 1 : width + 1] = s / n
            if arr[n, width] != 0:  # row n can open only column width
                width += 1
        return arr
    return [tuple(Fraction(v, q) for v in nums) for nums, q in _exact_rows(g, 1)]


def _exact_rows(g: TruncatedSeries, shift: int) -> list:
    """Rows n = 0..N of exp(w^shift * g) as (numerators, q), Python ints
    with [t^n] = sum_i numerators[i] w^i / q.  With k*g_k = a_k/d_k, row n
    lies over L = lcm_k d_k*q_{n-k}; one gcd pass divides out what n*L
    shares with its numerators."""
    # keep only nonzero terms of g; tails of sparse polynomials stay cheap
    terms = [(k, (k * gk).numerator, (k * gk).denominator)
             for k, gk in enumerate(g.coeffs) if k and gk]
    rows = [([1], 1)]
    for n in range(1, len(g.coeffs)):
        live = [(a, d, rows[n - k]) for k, a, d in terms if k <= n]
        big = math.lcm(*[d * q for _, d, (_, q) in live])
        acc = [0] * (shift * n + 1)
        for a, d, (prev, q) in live:
            c = a * (big // (d * q))
            for i, v in enumerate(prev, shift):
                acc[i] += c * v
        div = math.gcd(n * big, *acc)
        rows.append(([v // div for v in acc], n * big // div))
    return rows
