"""Truncated formal power series over exact rationals or doubles.

Everything downstream works with series truncated at a fixed order N:
a series is its coefficient vector (a_0, ..., a_N) and every operation
discards terms of order > N.  Two scalar kinds are supported:

* ``"exact"``  -- fractions.Fraction coefficients, no rounding anywhere;
* ``"double"`` -- float coefficients: h_n on the float kernel _float_h, a K_n
  band within its budget on the twin _float_rows, at every order; past that,
  bv_exp_wg's band up to order _EXACT_DOUBLE_MAX_N as the exact kernel's result
  on their binary values, each rounded once, and past it on a numpy-backed
  recurrence that reads forward slices and only the live w-band: the leading
  columns nonzero in some earlier row, and at most a given number of them.
  K_n concentrates near theta log n, so past the double range the band is
  narrow and a row costs O(n * k_live); a column limit k_max keeps the whole
  array at (N + 1) * k_max doubles.

Binary operations require equal order and equal kind; callers pick the
backend explicitly and keep it.  This module is also the one place that
knows the kinds: check_kind validates a name, to_kind converts a value
(to_kind(0, kind) is the zero of a kind; to_fraction is its exact case),
pmf_tol is the mass tolerance of a law in that kind, and auto_kind makes
the default choice.

The exponential and logarithm use the standard coefficient recurrences
obtained by differentiating H = exp(G):

    n * H_n = sum_{k=1}^{n} k * G_k * H_{n-k}        (G_0 = 0, H_0 = 1)

which is also the workhorse for the bivariate exp(sum_j w^j G_j(t)), G_j
vanishing below t^j, of cycle-count generating functions: its [t^n] is a
polynomial in w of degree at most n, and bv_exp_wg returns one row of
w-coefficients per t-order: tuples of length n + 1 (exact), or float rows
of degrees 0..cols - 1 (cols defaults to N + 1), zero past degree n: lists
up to order _EXACT_DOUBLE_MAX_N, the rows of one numpy array past it.

The exact recurrences run on Python ints: ts_exp keeps h_0..h_{n-1} over one
running common denominator (one integer dot and one gcd per h_n), bv_exp_wg
each row of w-coefficients of [t^n] over its own reduced denominator, and
Fractions are built only from finished values, as read.  Each convolves
either k*G_k with the earlier values or, when it has fewer nonzero terms,
the first differences k*G_k - (k-1)*G_{k-1} with their running prefix sums;
both give the same sum by telescoping, so an eventually constant k*G_k
(Ewens) costs O(1) terms per order: O(n) exact h_n and O(n^2) K_n rows.

_float_h and _float_rows are the double twins of the exact kernels.  They take
the weights a_k = k*G_k as their caller knows them: a weight sequence passes
its own theta_k, which stay constant where the weights are (Ewens, a tail), as
k * (theta_k / k) in doubles need not; an Ewens row of k columns so costs O(k).
They make the same choice of form, but sum differences only when all are >= 0,
so that no term cancels, and run Python dots within a budget of products per
order (_PY_PRODUCTS_PER_ORDER); past it, _float_h runs the plain numpy loop and
_float_rows leaves the band to bv_exp_wg.  Their values lie within about 4e-15
relative of the exact kernels on the same weights.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from operator import add, mul
from typing import Optional, Sequence, Union

from .errors import ResourceError, UsageError

EXACT = "exact"
DOUBLE = "double"
_KINDS = (EXACT, DOUBLE)

# The default backend is exact only up to this order: exact numerators and
# denominators grow with n, so exact K_n laws of dense weights cost about 680x
# the double ones at n = 200 and 4700x at n = 400 (theta-shift theta 1, amp 1,
# power 2: 3.1 s and 89 s on one Xeon core); Ewens laws cost far less.
_AUTO_EXACT_MAX_N = 200

# A double K_n band past the float kernels' budget runs on the integer kernel up to this
# order: exp-weight, the slowest catalog family there, costs 10/23/48/95/165 ms at
# N = 32/40/48/56/64 on one Xeon core; 48 is the largest N within a third of the numpy
# import it saves (median 0.16 s, 13 MB), and below 50, where bench references pin the
# numpy band's bits.
_EXACT_DOUBLE_MAX_N = 48

# _float_h runs Python dots while they average at most this many products per order,
# and numpy's loop past that; _float_rows counts one product per term per column the
# term reads, and leaves a band past it to bv_exp_wg.  A product costs 30-44 ns in
# Python, a numpy row 1.2 us to N = 4000 and 5 us at N = 20000, so within the budget
# Python costs no more than numpy's loop even where numpy is loaded already, and
# elsewhere it saves the import (0.1 s, 13.8 MB).  Dense weights so stay in Python up to
# N = 127, and a summed Ewens term (one product per order) at any N.  On one Xeon core,
# best of 5 in-process (one run at N = 20000 for the band):
#     dense N         127     200     500    1000    4000   20000
#     Python, ms     0.36    0.75     4.1    15.6     239       -
#     numpy, ms      0.15    0.24    0.62    1.91    6.67    99.5
#     summed Ewens h_n: 0.62 / 3.1 / 16 ms at N = 4000 / 20000 / 100000.
#     Ewens band at N x cols = 127 x 128 / 500 x 501 / 4000 x 49 / 20000 x 49: Python
#     1.6 / 21.8 / 37.9 / 190 ms, numpy (plain rows) 0.71 / 17.5 / 248 / 11600 ms.
_PY_PRODUCTS_PER_ORDER = 64

# The double bv_exp_wg refuses an array larger than this, before allocating:
# the full (N + 1)^2 triangle passes it from N = 11585 on (12.8 GB at 40000).
BAND_BYTES_MAX = 1 << 30

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
    """exp(g) for a series with vanishing constant term by n*H_n = sum_k k*g_k*H_{n-k}:
    _exact_h for an exact g, and _float_h on k*g_k at every order for a double one."""
    _require(isinstance(g, TruncatedSeries), "operand must be a TruncatedSeries")
    _require(g.coeffs[0] == 0, "ts_exp needs a vanishing constant term")
    if g.kind == DOUBLE:
        return TruncatedSeries(_float_h([k * c for k, c in enumerate(g.coeffs)]), DOUBLE)
    return TruncatedSeries([Fraction(v, q) for v, q in _exact_h(g)], EXACT)


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


def bv_exp_wg(g: TruncatedSeries, *higher: TruncatedSeries, cols: Optional[int] = None):
    """exp(w * g(t) + w^2 * higher[0](t) + ...) truncated at t-order N, exact
    in w; the w^j series must vanish below t^j.  Row n holds the
    w-coefficients of [t^n], in the shape the module docstring gives, by the
    recurrence of ts_exp with the w^j terms shifting earlier rows by j:

        n * H_n(w) = sum_j sum_k k*g_{j,k} * w^j * H_{n-k}(w)

    A double result keeps w-degrees below cols (default N + 1, all of them),
    in lists of that length up to order _EXACT_DOUBLE_MAX_N and in one numpy
    array past it, refused (ResourceError) before allocating when over
    BAND_BYTES_MAX bytes; no kept coefficient depends on a dropped one.
    """
    gs = (g, *higher)
    for j, s in enumerate(gs, 1):
        _check_pair(g, s)
        _require(not any(s.coeffs[:j]), f"the w^{j} series must vanish below t^{j}")
    n_max = g.order
    if g.kind == DOUBLE:
        cols = n_max + 1 if cols is None else cols
        _require(isinstance(cols, int) and 1 <= cols <= n_max + 1,
                 f"cols must be an integer in 1..{n_max + 1}, got {cols!r}")
        if n_max <= _EXACT_DOUBLE_MAX_N and all(math.isfinite(c) for s in gs for c in s.coeffs):
            return [[_scalar(v, q) for v in nums[:cols]] + [0.0] * (cols - len(nums))
                    for nums, q in _exact_rows(gs)]
        if (n_max + 1) * cols * 8 > BAND_BYTES_MAX:
            raise ResourceError(f"a {n_max + 1} x {cols} double array passes the "
                                f"{BAND_BYTES_MAX} byte budget of bv_exp_wg")
        import numpy as np
        kgs = [np.arange(n_max + 1, dtype=float) * np.asarray(s.coeffs) for s in gs]
        arr = np.zeros((n_max + 1, cols))
        arr[0, 0] = 1.0
        width = 1  # columns >= width are exact zeros in rows 0..n-1
        for n in range(1, n_max + 1):
            # S[k] = sum_i kg[i] * arr[n-i, k]: one dot per row for w * g
            w = min(width, cols - 1)
            arr[n, 1 : w + 1] = kgs[0][n:0:-1].dot(arr[0:n, 0:w]) / n
            # w^j, j <= n and j < cols: rows 0..n-j reach column n-j
            for j, kg in enumerate(kgs[1 : min(n, cols - 1)], 2):
                w = min(width, n - j + 1, cols - j)
                arr[n, j : j + w] += kg[n : j - 1 : -1].dot(arr[0 : n - j + 1, 0:w]) / n
            top = min(width + len(kgs) - 1, n, cols - 1)  # row n opens only width..top
            while top >= width and arr[n, top] == 0:
                top -= 1
            width = top + 1
        return arr
    return _ExactValues(_exact_rows(gs))


class _ExactValues(Sequence):
    """Exact kernel results read as Fractions: raw[n] = (numerator, q), h_n, read as a
    Fraction, or (integer numerators, q), a bv_exp_wg row, read as a Fraction tuple;
    each is built on its first read and kept, and a slice is a list.  Equal to any
    sequence of the same values."""

    def __init__(self, raw: list):
        self.raw, self.read = raw, {}

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[i] for i in range(len(self))[n]]
        if (value := self.read.get(n)) is None:
            v, q = self.raw[n]
            value = self.read[n] = (Fraction(v, q) if isinstance(v, int)
                                    else tuple(Fraction(u, q) for u in v))
        return value

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


def _scalar(v: int, q: int) -> float:
    try:  # rounded once, to +-inf past the double range as numpy gives
        return v / q
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _terms(a: list, rounded: bool = False) -> tuple:
    """The terms of the kernels' convolution sum_k a_k X_{n-k}, a_k = k*g_k (a_0 = 0):
    (False, the nonzero a_k by k) or, when fewer are nonzero, (True, the nonzero first
    differences a_k - a_{k-1} by k), which telescope to the same sum over prefix sums,
    sum_k (a_k - a_{k-1}) (X_0 + ... + X_{n-k}).  An eventually constant a_k (Ewens, a
    tail above b) so has O(1) terms.  rounded (double) differences are summed only when
    each is finite and >= 0, so that no term cancels another."""
    steps = {k: a[k] - a[k - 1] for k in range(1, len(a)) if a[k] != a[k - 1]}
    if len(steps) >= len(a) - a.count(0) or rounded and not all(
            0 <= d < math.inf for d in steps.values()):
        return False, {k: c for k, c in enumerate(a) if c}
    return True, steps


def _float_h(a: Sequence[float]) -> list:
    """h_0..h_N of exp(sum_k a_k t^k / k) in doubles from the recurrence weights
    a_1..a_N (a_0 = 0): a weight sequence's own theta_k, or k*g_k.  Each n*h_n is one dot
    over _terms' form, in Python while the form's products average at most
    _PY_PRODUCTS_PER_ORDER per order; past that, the plain form on numpy."""
    n_max = len(a) - 1
    summed, terms = _terms(a, rounded=True)
    span = max(terms, default=0)  # each order n reads min(n, span) products
    if span * (2 * n_max - span + 1) > 2 * _PY_PRODUCTS_PER_ORDER * n_max:
        import numpy as np
        kg = np.asarray(a, dtype=float)
        hr = np.zeros(n_max + 1)  # hr[N - j] = h_j: h_{n-1}..h_0 is hr[N-n+1:]
        hr[n_max] = 1.0
        with np.errstate(all="ignore"):  # a non-finite h_n is its callers' to judge
            for n in range(1, n_max + 1):
                hr[n_max - n] = kg[1 : n + 1].dot(hr[n_max - n + 1 :]) / n
        return hr[::-1].tolist()
    if summed and len(terms) == 1:  # n*h_n = c*X_{n-k}: the dot below, bit for bit
        ((k, v),) = terms.items()
        hs, x = [1.0], 0.0
        for n in range(1, n_max + 1):
            x += hs[n - k] if n >= k else 0.0
            hs.append(v * x / n)
        return hs
    c = [0.0] * span
    for k, v in terms.items():
        c[k - 1] = v
    xs, hs = [1.0], [1.0]  # xs: h_0..h_{n-1} (plain) or the last span prefix sums
    for n in range(1, n_max + 1):
        h = sum(map(mul, c, reversed(xs))) / n
        if summed:
            hs.append(h)
            xs.append(xs[-1] + h)
            del xs[:-span]
        else:
            xs.append(h)
    return hs if summed else xs


def _float_rows(parts: list, cols: int, keep) -> Optional[dict]:
    """{n: row n for n in keep} of exp(sum_j w^j g_j) in doubles, w-degrees 0..min(n, cols - 1),
    on the recurrence weights parts[j-1][k] = k*g_{j,k} (a weight sequence's own theta_k):
    _exact_rows' double twin on _terms' form, or None past _PY_PRODUCTS_PER_ORDER per order,
    one product per term per column it reads.  Only the rows and the prefix sums (of the
    summed terms) that a term still reads stay, and the rows in keep."""
    n_max = len(parts[0]) - 1
    terms = [(k, j, summed, float(c)) for j, a in enumerate(parts, 1)
             for summed, cs in [_terms(a, rounded=True)] for k, c in cs.items()]
    # a term at k of part j reads min(n - k + 1, cols - j) columns at order n <= n_max
    spans = [(n_max - k + 1, max(cols - j, 0)) for k, j, _, _ in terms]
    if sum(u * (u + 1) // 2 + (m - u) * w for m, w in spans for u in [min(m, w)]) > (
            _PY_PRODUCTS_PER_ORDER * n_max):
        return None
    reach = [max([t[0] for t in terms if t[2] is s], default=0) for s in (False, True)]
    rows, sums, keep = {0: [1.0]}, {0: [1.0]}, set(keep)
    for n in range(1, n_max + 1):
        acc = [0.0] * min(n + 1, cols)
        for k, j, summed, c in terms:
            if k <= n and j < cols:
                src = (sums if summed else rows)[n - k][: cols - j]
                acc[j : j + len(src)] = map(add, acc[j : j + len(src)], map(c.__mul__, src))
        rows[n] = [v / n for v in acc]
        if reach[True]:
            sums[n] = list(map(add, [*sums[n - 1], 0.0], rows[n]))
            sums.pop(n - reach[True], None)
        if n - reach[False] not in keep:
            rows.pop(n - reach[False], None)
    return {n: rows[n] for n in keep}


def _exact_h(g: TruncatedSeries) -> list:
    """h_0..h_N of exp(g) as pairs (numerator, denominator) on ints.  With A_k = L*c_k
    over the lcm L of _terms' c_k, n*h_n = sum_k A_k X_{n-k} / (L*W) is one dot s and
    one gcd, the X_j numerators over one running denominator W that grows only by what
    s / (n*L) lacks.  Plain terms read X_j = h_j, every one over the final W; summed
    terms read X_j = h_0 + ... + h_j, only the last max(k) of them, and each h_n keeps
    the W of its order, so no earlier h_n is rescaled."""
    summed, terms = _terms([k * Fraction(c) for k, c in enumerate(g.coeffs)])
    big_l = math.lcm(*[c.denominator for c in terms.values()])
    a = [0] * max(terms, default=0)
    for k, c in terms.items():
        a[k - 1] = c.numerator * (big_l // c.denominator)
    xs, w, hs = [1], 1, [(1, 1)]
    for n in range(1, len(g.coeffs)):
        s = sum(map(mul, a, reversed(xs)))
        div = math.gcd(s, n * big_l)
        if (r := n * big_l // div) > 1:  # h_n = s / (n*L*w) needs w * r
            xs, w = [v * r for v in xs], w * r
        if summed:
            hs.append((s // div, w))
            xs.append(xs[-1] + s // div)
            del xs[: -len(a)]
        else:
            xs.append(s // div)
    return hs if summed else [(v, w) for v in xs]


def _exact_rows(gs: tuple) -> list:
    """Rows n = 0..N of exp(sum_j w^j gs[j-1]) as pairs (numerators, q),
    [t^n] = sum_i numerators[i] w^i / q on ints.  Each w^j part convolves its own
    _terms, c = a/d at k, with row n-k (plain) or with S_{n-k} = row 0 + ... + row n-k
    (summed), kept over Q_{n-k+1} only while a summed term can still read it.  Row n
    lies over n*e*Q_n, Q_n = lcm(q_0..q_{n-1}) and e the least factor with every
    d*q | e*Q_n, q the denominator of the row or sum a term reads; one gcd pass reduces
    the row."""
    terms = [(k, j, summed, *c.as_integer_ratio())
             for j, s in enumerate(gs, 1)
             for summed, cs in [_terms([k * Fraction(c) for k, c in enumerate(s.coeffs)])]
             for k, c in cs.items()]
    reach = max([k for k, _, summed, _, _ in terms if summed], default=0)
    rows, sums, big_q = [([1], 1)], {}, 1
    for n in range(1, len(gs[0].coeffs)):
        big_q = math.lcm(big_q, rows[-1][1])
        if reach:  # S_{n-1} = S_{n-2} + row n-1 over Q_n; S_{n-1-reach} is read no more
            (nums, q), (last, lq) = rows[-1], sums.get(n - 2, ([], 1))
            r, t = big_q // q, big_q // lq
            sums[n - 1] = ([u * t + v * r for u, v in zip([*last, 0], nums)], big_q)
            sums.pop(n - 1 - reach, None)
        live = [(j, a, d, prev, big_q // q) for k, j, summed, a, d in terms if k <= n
                for prev, q in [(sums if summed else rows)[n - k]]]
        e = math.lcm(*[d // math.gcd(d, r) for _, _, d, _, r in live])
        acc = [0] * (n + 1)
        for j, a, d, prev, r in live:
            c = a * (r * e // d)
            for i, v in enumerate(prev, j):
                acc[i] += c * v
        div = math.gcd(n * e * big_q, *acc)
        rows.append(([v // div for v in acc], n * e * big_q // div))
    return rows
