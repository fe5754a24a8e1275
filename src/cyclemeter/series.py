"""Truncated formal power series over exact rationals or doubles.

Everything downstream works with series truncated at a fixed order N:
a series is its coefficient vector (a_0, ..., a_N) and every operation
discards terms of order > N.  Two scalar kinds are supported:

* ``"exact"``  -- fractions.Fraction coefficients, no rounding anywhere;
* ``"double"`` -- float coefficients with numpy-backed recurrences, so
  orders up to a few thousand stay fast.

Binary operations require equal order and equal kind; callers pick the
backend explicitly and keep it.  This module is also the one place that
knows the kinds: check_kind validates a name, to_kind converts a value
(to_kind(0, kind) is the zero of a kind), pmf_tol is the mass tolerance
of a law in that kind, and auto_kind makes the default choice.

The exponential and logarithm use the standard coefficient recurrences
obtained by differentiating H = exp(G):

    n * H_n = sum_{k=1}^{n} k * G_k * H_{n-k}        (G_0 = 0, H_0 = 1)

which is also the workhorse for the bivariate exp(w * G(t)) needed for
cycle-count generating functions: the coefficient of t^n there is a
polynomial in w of degree at most n, and bv_exp_wg returns one row of
w-coefficients per t-order: tuples of length n + 1 (exact) or the rows
of one square array, zero past degree n (double).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import UsageError

EXACT = "exact"
DOUBLE = "double"
_KINDS = (EXACT, DOUBLE)

# The default backend is exact only up to this order: exact kernels cost
# far more per coefficient and their rationals grow with n.
_AUTO_EXACT_MAX_N = 200

Scalar = Union[Fraction, float]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


def _as_exact(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def check_kind(kind: str) -> None:
    """Raise UsageError unless kind names a scalar kind."""
    _require(kind in _KINDS, f"backend must be 'exact' or 'double', got {kind!r}")


def to_kind(value, kind: str) -> Scalar:
    """value as a scalar of the given kind: Fraction (exact) or float."""
    return _as_exact(value) if kind == EXACT else float(value)


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
            self.coeffs = tuple(_as_exact(c) for c in coeffs)
        else:
            self.coeffs = tuple(float(c) for c in coeffs)
        self.kind = kind

    @classmethod
    def exact(cls, coeffs: Sequence) -> "TruncatedSeries":
        return cls(coeffs, EXACT)

    @classmethod
    def double(cls, coeffs: Sequence) -> "TruncatedSeries":
        return cls(coeffs, DOUBLE)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Scalar:
        _require(0 <= n <= self.order, f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

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
        kg = np.arange(n_max + 1, dtype=float) * np.asarray(g.coeffs)
        h = np.zeros(n_max + 1)
        h[0] = 1.0
        for n in range(1, n_max + 1):
            h[n] = kg[1 : n + 1].dot(h[n - 1 :: -1]) / n
        return TruncatedSeries(h.tolist(), DOUBLE)
    # keep only nonzero terms of g; tails of sparse polynomials stay cheap
    terms = [(k, k * gk) for k, gk in enumerate(g.coeffs) if k and gk]
    h = [Fraction(0)] * (n_max + 1)
    h[0] = Fraction(1)
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k, kgk in terms:
            if k > n:
                break
            acc += kgk * h[n - k]
        h[n] = acc / n
    return TruncatedSeries(h, EXACT)


def ts_log(h: TruncatedSeries) -> TruncatedSeries:
    """log(h) for a series with constant term 1; inverse of ts_exp."""
    _require(isinstance(h, TruncatedSeries), "operand must be a TruncatedSeries")
    _require(h.coeffs[0] == 1, "ts_log needs constant term exactly 1")
    n_max = h.order
    if h.kind == DOUBLE:
        hv = np.asarray(h.coeffs)
        g = np.zeros(n_max + 1)
        kg = np.zeros(n_max + 1)
        for n in range(1, n_max + 1):
            conv = kg[1:n].dot(hv[n - 1 : 0 : -1]) if n > 1 else 0.0
            g[n] = hv[n] - conv / n
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
        kg = np.arange(n_max + 1, dtype=float) * np.asarray(g.coeffs)
        arr = np.zeros((n_max + 1, n_max + 1))
        arr[0, 0] = 1.0
        for n in range(1, n_max + 1):
            # S[k] = sum_j kg[j] * arr[n-j, k]; rows 0..n-1 only reach w-degree n-1
            s = kg[n:0:-1].dot(arr[0:n, 0:n])
            arr[n, 1 : n + 1] = s / n
        return arr
    terms = [(k, k * gk) for k, gk in enumerate(g.coeffs) if k and gk]
    rows = [(Fraction(1),)]
    for n in range(1, n_max + 1):
        acc = [Fraction(0)] * (n + 1)
        for k, kgk in terms:
            if k > n:
                break
            prev = rows[n - k]
            for j, v in enumerate(prev):
                if v:
                    acc[j + 1] += kgk * v
        rows.append(tuple(c / n for c in acc))
    return rows
