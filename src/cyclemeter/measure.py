"""Weighted random permutations: exact finite-n laws and sampling.

The measure on S_n attaches a nonnegative weight theta_m to every cycle
of length m:

    P[sigma] = (1 / (h_n * n!)) * prod_m theta_m^{C_m(sigma)}

with h_n the normalization constant.  Writing g(t) = sum_k theta_k t^k / k,
the h_n are the coefficients of exp(g(t)), which is how everything here
is computed; the partition-sum oracle in partitions.py recomputes the
same quantities independently for testing.  All h_n here come from
_h_values: exact, series._exact_h; double, series._float_h at every order,
and double K_n bands within its budget from series._float_rows, within about
4e-15 relative of the exact kernels on the same binary weights: a
WeightSequence's theta_m themselves, not k * (theta_k / k), so Ewens costs one
term per order and its h_n and report bands load no numpy.  One guard,
_h_or_degenerate, judges the h_n of every law and of the CLI's hn: a double
past its range is a ResourceError, any other 0 a DegenerateMeasureError.

The laws also take an exp-poly GeneralizedWeights (generalized.py), read
like a WeightSequence through log_series(order, kind, above), the parts of
log sum_n h_n(w) t^n = sum_j w^j g_j(t) over cycle lengths m > above ((g,)
here), and cycle_factors(m, cmax, kind), F_m(c)/(c! m^c) (theta_m^c here).
Both handles subclass _WeightRule, which holds their eval_fn/exact_fn rule,
its overflow-to-inf double and their repr.

Laws provided exactly (rational or double backend):

* normalization_constants  -- h_0..h_N;
* joint_cycle_pmf          -- law of (C_1, ..., C_b), tuples in lexicographic order,
                              the pairs of _joint_walk, which dist streams;
* joint_cycle_blocks       -- its double law as (counts, mass) numpy blocks of at
                              most _JOINT_BLOCK tuples, in the same order, for
                              the poisson-vector report;
* total_cycles_pmf         -- law of K_n = C_1 + ... + C_n, one Fraction per exact atom;
* total_cycles_pmf_many    -- laws of K_n along a grid of n; double ones may
                              stop at the certified tail bound K_TAIL (k_max columns);
* expected_cycle_counts    -- E[C_m] = (theta_m/m) h_{n-m}/h_n.

Sampling draws cycle lengths one by one: with s points left, the next
cycle has length j with probability theta_j h_{s-j} / (s h_s), found by
scanning j = 1, 2, ... until the partial sum passes u s h_s for a uniform
u, so a draw costs O(n) time and memory.  P depends on the cycle type
alone, so a permutation is one shuffle of 1..n cut into consecutive
cycles of the drawn lengths: each permutation of that type arises
prod_m m^{c_m} c_m! times.  The generator is random.Random(seed), the
Mersenne Twister, so runs with the same seed are reproducible byte for byte.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import cache
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from .errors import DegenerateMeasureError, ResourceError, UsageError
from .partitions import Partition
from .pmf import Pmf
from .series import (DOUBLE, EXACT, TruncatedSeries, _exact_h, _ExactValues, _float_h,
                     _float_rows, bv_exp_wg, check_kind, pmf_tol, to_fraction, to_kind, ts_exp)

_JOINT_SUPPORT_CAP = 5_000_000
_JOINT_BLOCK = 1 << 14  # rows per block of a double joint law
_CHERNOFF_X = (2.0, 4.0, 8.0)  # the points x of _certified_cols' bound
K_TAIL = 1e-18  # mass a truncated K_n law may leave out, far below double resolution


class _WeightRule:
    """What both weight handles share.  eval_fn gives the doubles; exact_fn,
    if provided, the exact values for the rational backend.  Without it the
    exact backend uses the exact binary value of the double, so both
    backends always see the same numbers and the partition oracle can
    demand exact equality."""

    def __init__(self, eval_fn: Callable, name: str = "custom",
                 exact_fn: Optional[Callable] = None):
        if not callable(eval_fn):
            raise UsageError("eval_fn must be callable")
        self._eval = eval_fn
        self._exact = exact_fn
        self.name = name

    def _double(self, *index) -> float:
        """float(eval_fn(*index)), or inf where it overflows."""
        try:
            return float(self._eval(*index))
        except OverflowError:
            return math.inf

    @property
    def has_exact_rule(self) -> bool:
        """Whether the exact backend sees true rationals from exact_fn
        rather than binary snapshots of the doubles."""
        return self._exact is not None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class WeightSequence(_WeightRule):
    """Cycle weights theta_1, theta_2, ... >= 0 given by a rule:
    eval_fn(m) -> float, and optionally exact_fn(m) -> Fraction."""

    @classmethod
    def constant(cls, value, name: Optional[str] = None) -> "WeightSequence":
        frac = to_fraction(value)
        if frac < 0:
            raise UsageError(f"weights must be >= 0, got {value}")
        label = name if name is not None else f"constant({value})"
        double = float(frac)
        return cls(lambda m: double, name=label, exact_fn=lambda m: frac)

    def theta(self, m: int) -> float:
        _check_index(m)
        value = self._double(m)
        if not math.isfinite(value) or value < 0:
            raise UsageError(f"theta_{m} = {value} is not a finite nonnegative weight")
        return value

    def theta_exact(self, m: int) -> Fraction:
        _check_index(m)
        if self._exact is None:
            return Fraction(self.theta(m))
        value = to_fraction(self._exact(m))
        if value < 0:
            raise UsageError(f"theta_{m} = {value} is negative")
        return value

    def at(self, m: int, kind: str):
        """theta_m in the given scalar kind."""
        return self.theta_exact(m) if kind == EXACT else self.theta(m)

    def log_series(self, order: int, kind: str, above: int = 0) -> tuple:
        """(g,): weight_log_series with the coefficients of t^m, m <= above, zeroed."""
        g, cut = weight_log_series(self, order, kind).coeffs, min(above, order) + 1
        return (TruncatedSeries([to_kind(0, kind)] * cut + list(g[cut:]), kind),)

    def cycle_factors(self, m: int, cmax: int, kind: str) -> list:
        """(theta_m/m)^c / c! for c = 0..cmax, multiplied left to right."""
        ratio, table = self.at(m, kind) / m, [to_kind(1, kind)]
        for count in range(1, cmax + 1):
            table.append(table[-1] * ratio / count)
        return table


def _check_index(m) -> None:
    if not (isinstance(m, int) or isinstance(m, numbers.Integral)) or m < 1:
        raise UsageError(f"cycle length index must be an integer >= 1, got {m!r}")


def weight_log_series(theta: WeightSequence, order: int, backend: str = EXACT) -> TruncatedSeries:
    """g(t) = sum_{k=1}^{order} (theta_k / k) t^k."""
    check_kind(backend)
    if not isinstance(order, int) or order < 0:
        raise UsageError(f"order must be a nonnegative integer, got {order!r}")
    coeffs = [to_kind(0, backend)] + [theta.at(k, backend) / k for k in range(1, order + 1)]
    return TruncatedSeries(coeffs, backend)


def normalization_constants(theta, n_max: int, backend: str = EXACT) -> Sequence:
    """h_0, ..., h_{n_max} with h_0 = 1, for either weight handle: a list of doubles,
    or exact, a sequence that builds each Fraction as it is read."""
    if not isinstance(n_max, int) or n_max < 0:
        raise UsageError(f"order must be a nonnegative integer, got {n_max!r}")
    return _h_values(theta, n_max, backend)[0]


def _h_values(theta, n: int, kind: str, above: int = 0, xs: tuple = (1,)) -> list:
    """[h_0..h_n of exp(sum_j x^j g_j) for x in xs], g_j the log-series of theta over
    lengths m > above: exact, read as Fractions; double, on a WeightSequence's own
    weights x*theta_m, which stay constant wherever theta does (Ewens, a tail above b),
    as k*g_k = k*(theta_k/k) in doubles need not, and on k*g_k (ts_exp) otherwise."""
    if kind == DOUBLE and isinstance(theta, WeightSequence):
        a = [0.0] * (min(above, n) + 1) + [theta.theta(m) for m in range(above + 1, n + 1)]
        return [_float_h([x * v for v in a]) for x in xs]
    parts = theta.log_series(n, kind, above)
    if kind == EXACT:
        return [_ExactValues(_exact_h(_at(parts, x))) for x in xs]
    return [list(ts_exp(_at(parts, x)).coeffs) for x in xs]


def _at(parts: tuple, x=1) -> TruncatedSeries:
    """sum_j x^j parts[j-1], the log-series at w = x, added in degree order
    as exp_polynomial_log_series adds its terms."""
    coeffs = [to_kind(0, parts[0].kind)] * len(parts[0].coeffs)
    for j, part in enumerate(parts, 1):
        for t, c in enumerate(part.coeffs):
            coeffs[t] += x**j * c
    return TruncatedSeries(coeffs, parts[0].kind)


def _h_or_degenerate(hn, n: int, weights):
    """hn, the normalization of the measure on S_n under weights, or a refusal: a double
    past its range (not finite, or 0 though theta_1 > 0 makes h_n >= theta_1^n/n! > 0;
    theta_1 is read only then) is a ResourceError, any other 0 a DegenerateMeasureError."""
    remedy = "hn and dist compute it with --backend exact"
    if isinstance(hn, float) and not math.isfinite(hn):
        raise ResourceError(f"h_{n} overflows the double range; {remedy}")
    if hn == 0 and isinstance(hn, float) and weights.cycle_factors(1, 1, EXACT)[1]:
        raise ResourceError(f"h_{n} underflows the double range to 0, though "
                            f"h_{n} >= theta_1^{n}/{n}! > 0; {remedy}")
    if hn == 0:
        raise DegenerateMeasureError(f"normalization h_{n} = 0; the measure is undefined there")
    return hn


def joint_cycle_pmf(theta, n: int, b: int, backend: str = EXACT) -> Pmf:
    """Law of (C_1, ..., C_b) on S_n under either weight handle.

    P[c] = (1/h_n) * prod_{m<=b} F_m(c_m)/(c_m! m^{c_m})
                   * [t^{n - sum m c_m}] exp(sum_j g_j(t) restricted to m > b)

    Support: every tuple with sum_m m*c_m <= n, including zero-mass ones.
    """
    check_kind(backend)
    return Pmf(dict(_joint_walk(n, b, lambda: _joint_tables(theta, n, b, backend))))


def _joint_tables(theta, n: int, b: int, backend: str) -> tuple:
    hn = _h_or_degenerate(normalization_constants(theta, n, backend)[n], n, theta)
    (tail,) = _h_values(theta, n, backend, above=b)
    factors = [theta.cycle_factors(m, n // m, backend) for m in range(1, b + 1)]
    return factors, tail, hn


def _joint_walk(n: int, b: int, tables: Callable, raw: bool = False):
    """Law of (C_1, ..., C_b) on S_n from per-length factor tables, as (c, P[c])
    pairs in lexicographic order of c, each computed when it is read.

    tables() returns (factors, tail, hn): factors[m-1][c] weighs c cycles
    of length m, tail[s] weighs the s points left to cycles longer than
    b, and hn normalizes, so that, multiplied left to right,

        P[c] = prod_{m<=b} factors[m-1][c_m] * tail[n - sum m c_m] / hn.

    Both kinds, read off hn, compute one scalar per tuple, with no numpy, and
    hold only the current prefix.  The double products run in the order of
    joint_cycle_blocks, so both give every mass the same bits.  Exact masses
    are integer products num over D, each factor table and tail/hn over its own
    lcm: Fraction(num, D), or with raw (D, the pairs (c, num)), no Fraction.
    """
    _guard_joint_support(n, b)
    factors, tail, hn = tables()
    den = 1
    if not isinstance(hn, float):
        exact = [[t / hn for t in tail], *factors]
        dens = [math.lcm(*[v.denominator for v in table]) for table in exact]
        tail, *factors = [[v.numerator * (d // v.denominator) for v in table]
                          for table, d in zip(exact, dens)]
        den = math.prod(dens)
        hn = None if raw else Fraction(den)

    def fill(m: int, budget: int, prefix: tuple, weight):
        table = factors[m - 1]
        if m < b:
            for count in range(budget // m + 1):
                yield from fill(m + 1, budget - m * count, prefix + (count,),
                                weight * table[count])
            return
        for count in range(budget // m + 1):
            mass = weight * table[count] * tail[budget - m * count]
            yield prefix + (count,), mass if hn is None else mass / hn

    return (den, fill(1, n, (), 1)) if raw else fill(1, n, (), 1)


def _joint_law(theta, n: int, b: int, kind: str) -> SimpleNamespace:
    """joint_cycle_pmf's law unchecked, read as a Pmf: support(), items() and numerators()
    each start a new walk, of the tuples on unit double tables or of the raw or plain pairs."""
    ones = ([[1.0] * (n // m + 1) for m in range(1, b + 1)], [1.0] * (n + 1), 1.0)
    tables = cache(lambda: _joint_tables(theta, n, b, kind))
    return SimpleNamespace(items=lambda: _joint_walk(n, b, tables), support=lambda: (
        key for key, _ in _joint_walk(n, b, lambda: ones)),
        numerators=lambda: _joint_walk(n, b, tables, raw=True))


def joint_cycle_blocks(theta, n: int, b: int):
    """The double joint_cycle_pmf as (counts, mass) numpy blocks of at most
    _JOINT_BLOCK rows, the rows of counts its tuples in lexicographic order.

    Per m, a row with budget points left repeats budget//m + 1 times and
    takes factors[m-1][c_m], so each mass has _joint_walk's product and
    bits.  Rows whose repeats would pass _JOINT_BLOCK are expanded half at
    a time, and the repeats of a single such row _JOINT_BLOCK at a time.
    Each block is checked finite and >= 0, and the total after the last one.
    """
    _guard_joint_support(n, b)
    import numpy as np
    factors, tail, hn = _joint_tables(theta, n, b, DOUBLE)
    factors = [np.asarray(table, dtype=float) for table in factors]
    tail = np.asarray(tail, dtype=float)

    def expand(m: int, counts, budget, weight):
        if m > b:
            yield counts, weight * tail[budget] / hn
            return
        reps = budget // m + 1
        if budget.size > 1 and reps.sum() > _JOINT_BLOCK:
            half = budget.size // 2
            yield from expand(m, counts[:half], budget[:half], weight[:half])
            yield from expand(m, counts[half:], budget[half:], weight[half:])
            return
        row = np.repeat(np.arange(budget.size), reps)
        c = np.arange(row.size) - np.repeat(np.cumsum(reps) - reps, reps)
        for lo in range(0, row.size, _JOINT_BLOCK):
            r, k = row[lo:lo + _JOINT_BLOCK], c[lo:lo + _JOINT_BLOCK]
            yield from expand(m + 1, np.column_stack([counts[r], k]), budget[r] - m * k,
                              weight[r] * factors[m - 1][k])

    total = 0.0
    for counts, mass in expand(1, np.zeros((1, 0), dtype=np.int64), np.array([n]), np.ones(1)):
        total += float(mass.sum())
        if not np.all((mass >= 0) & (mass < math.inf)):
            raise UsageError(f"joint masses must be finite, >= 0 and sum to 1: {total}")
        yield counts, mass
    if not abs(total - 1) <= pmf_tol(DOUBLE):
        raise UsageError(f"joint masses must be finite, >= 0 and sum to 1: {total}")


def _guard_joint_support(n: int, b: int) -> int:
    """The number of tuples (c_1, ..., c_b) with sum_m m c_m <= n, that is
    sum_{s<=n} p_b(s) for p_m(s) = p_{m-1}(s) + p_m(s - m) the partitions of
    s into parts <= m; ResourceError as soon as the running count passes
    _JOINT_SUPPORT_CAP."""
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"n must be a positive integer, got {n!r}")
    if not isinstance(b, int) or not 1 <= b <= n:
        raise UsageError(f"b must satisfy 1 <= b <= n, got {b!r}")
    refusal = ResourceError(
        f"joint support for n={n}, b={b} has more than {_JOINT_SUPPORT_CAP} tuples")
    if n + 1 > _JOINT_SUPPORT_CAP:  # the tuples (c_1, 0, ..., 0) alone
        raise refusal
    ways, count = [1] * (n + 1), n + 1  # p_1(s) = 1
    for m in range(2, b + 1):
        for s in range(m, n + 1):
            ways[s] += ways[s - m]
            count += ways[s - m]
            if count > _JOINT_SUPPORT_CAP:
                raise refusal
    return count


def total_cycles_pmf(theta, n: int, backend: str = EXACT) -> Pmf:
    """Law of the total cycle count K_n; support {1, ..., n}."""
    return total_cycles_pmf_many(theta, [n], backend)[n]


def total_cycles_pmf_many(theta, n_values: Sequence[int], backend: str = EXACT,
                          keep_k: Optional[int] = None) -> dict:
    """Laws of K_n for several n from one bivariate computation.

    The coefficient rows of exp(sum_j w^j g_j(t)) at every t-order up to max(n) come
    from one triangular recurrence (double: series._float_rows within its budget of
    Python products, bv_exp_wg past it), so a grid costs the same as its largest n.

    keep_k None gives the full band.  Given keep_k (double only), it keeps
    the w-columns 0..k_max - 1 and no more, k_max > keep_k the least k with
    P(K_n >= k) <= K_TAIL for every n of the grid by the Chernoff bound of
    _certified_cols.  Each law then holds atoms 1..min(n, k_max - 1),
    normalized by their own sum, with that bound as its tail_bound:
    O(n * k_max) work and memory instead of the (n+1)^2 triangle.
    """
    check_kind(backend)
    ns = list(n_values)
    if not ns or any((not isinstance(n, int)) or n < 1 for n in ns):
        raise UsageError(f"n values must be positive integers, got {n_values!r}")
    if keep_k is not None and (backend != DOUBLE or not isinstance(keep_k, int) or keep_k < 0):
        raise UsageError(f"a truncated K_n law needs the double backend and an "
                         f"integer keep_k >= 0, got {backend!r} and {keep_k!r}")
    n_max = max(ns)
    cols, bounds = ((None, dict.fromkeys(ns, 0)) if keep_k is None
                    else _certified_cols(theta, ns, keep_k))
    # double: the float kernel on the weights _h_values reads, while within its budget
    rows = None if backend == EXACT else _float_rows(
        [[0.0, *map(theta.theta, range(1, n_max + 1))]] if isinstance(theta, WeightSequence)
        else [[k * c for k, c in enumerate(g.coeffs)] for g in theta.log_series(n_max, DOUBLE)],
        n_max + 1 if cols is None else cols, ns)
    if rows is None:  # exact, read as the integer numerators of row n, or past the budget
        rows = bv_exp_wg(*theta.log_series(n_max, backend), cols=cols)
    return {n: _k_pmf(rows.raw[n][0] if backend == EXACT else rows[n], n, theta, bounds[n])
            for n in ns}


def _certified_cols(theta, ns: list, keep_k: int) -> tuple:
    """(cols, {n: tail bound}): the w-columns that leave at most K_TAIL of
    each law of K_n out, and the mass each law leaves out.  E[x^K_n] =
    h_n(x)/h_n(1), h_n(x) = [t^n] exp(sum_j x^j g_j), so for x > 1

        P(K_n >= k) <= x^-k * h_n(x) / h_n(1),

    minimized over x in _CHERNOFF_X.  All N + 1 columns, and bounds 0,
    when that k reaches N = max(n) or some h_n has no finite h_n(x)."""
    n_max = max(ns)
    xs = (1.0, *_CHERNOFF_X)  # an overflowing h_n(x) only gives no bound
    h = dict(zip(xs, _h_values(theta, n_max, DOUBLE, xs=xs)))
    log_ratio = {n: {x: math.log(h[x][n] / h[1.0][n]) for x in _CHERNOFF_X
                     if 0 < h[1.0][n] < math.inf and 0 < h[x][n] < math.inf}
                 for n in ns}
    if not all(log_ratio.values()):
        return n_max + 1, dict.fromkeys(ns, 0.0)
    need = max(keep_k + 1, *(min(math.ceil((r - math.log(K_TAIL)) / math.log(x))
                                 for x, r in log_ratio[n].items()) for n in ns))
    if need >= n_max:
        return n_max + 1, dict.fromkeys(ns, 0.0)
    return need, {n: 0.0 if need > n else
                  min(math.exp(r - need * math.log(x)) for x, r in log_ratio[n].items())
                  for n in ns}


def _k_pmf(row, n: int, weights, tail_bound=0) -> Pmf:
    """Law of K_n from the w-coefficients of [t^n] (all, or the first ones with tail_bound
    covering the rest): exact numerators or Fractions, one Fraction per atom, or doubles."""
    row = row[: n + 1]
    hn = _h_or_degenerate(float(row.sum()) if hasattr(row, "sum") else sum(row), n, weights)
    return Pmf({k: row[k] / hn if isinstance(hn, float) else Fraction(row[k], hn)
                for k in range(1, len(row))}, tail_bound=tail_bound)


def expected_cycle_counts(theta: WeightSequence, n: int, backend: str = EXACT) -> list:
    """E[C_m] = (theta_m / m) * h_{n-m} / h_n for m = 1..n.

    The identity sum_m m * E[C_m] = n holds exactly and is a good
    self-check on any weight sequence.
    """
    if not isinstance(theta, WeightSequence):
        raise UsageError("expected cycle counts are defined for weighted families only")
    check_kind(backend)
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"n must be a positive integer, got {n!r}")
    h = normalization_constants(theta, n, backend)
    hn = _h_or_degenerate(h[n], n, theta)
    return [theta.at(m, backend) / m * h[n - m] / hn for m in range(1, n + 1)]


# -- sampling --------------------------------------------------------------


def _length_drawer(theta: WeightSequence, n: int) -> Callable:
    """draw(uniform) -> the cycle lengths of one permutation of size n,
    each found by a scan over j that costs the length it returns."""
    h = normalization_constants(theta, n, DOUBLE)
    _h_or_degenerate(h[n], n, theta)
    th = [0.0] + [theta.theta(j) for j in range(1, n + 1)]

    def draw(uniform: Callable[[], float]) -> list:
        lengths, s = [], n
        while s:
            target, acc, j = uniform() * s * h[s], 0.0, 0
            while j < s and not acc > target:
                j += 1
                acc += th[j] * h[s - j]
            if not acc > target:  # rounding left u past the last bin
                while j and not th[j] * h[s - j] > 0:
                    j -= 1
                if not j:
                    raise DegenerateMeasureError(f"reached remainder size {s} with h_{s} = 0")
            lengths.append(j)
            s -= j
        return lengths

    return draw


def _permutation_of_type(lengths: list, rng) -> tuple:
    """One shuffle of 1..n cut into consecutive cycles of the given lengths,
    as an image: each label maps to the next in its block, the last to the first."""
    labels = list(range(1, sum(lengths) + 1))
    rng.shuffle(labels)
    succ, end = labels[1:] + labels[:1], 0
    for length in lengths:
        end += length
        succ[end - 1] = labels[end - length]
    image = [0] * len(labels)
    for label, image_of in zip(labels, succ):
        image[label - 1] = image_of
    return tuple(image)


def _sample_rows(theta: WeightSequence, n: int, seed: int, count: Optional[int],
                 cycle_type_only: bool):
    """The checks both samplers share, the RNG and h_n, all at once; then
    an iterator that draws one row per step (count rows, or one for None):
    a nonincreasing length list, or a permutation image."""
    if not isinstance(theta, WeightSequence):
        raise UsageError("sampling is defined for weighted families only")
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"n must be a positive integer, got {n!r}")
    if not isinstance(seed, int) or seed < 0:
        raise UsageError(f"seed must be a nonnegative integer, got {seed!r}")
    draws = 1 if count is None else count
    if not isinstance(draws, int) or draws < 1:
        raise UsageError(f"count must be a positive integer, got {count!r}")
    import random
    rng = random.Random(seed)
    draw = _length_drawer(theta, n)
    if cycle_type_only:
        return (sorted(draw(rng.random), reverse=True) for _ in range(draws))
    return (_permutation_of_type(draw(rng.random), rng) for _ in range(draws))


def sample_cycle_type(theta: WeightSequence, n: int, seed: int = 0,
                      count: Optional[int] = None):
    """Cycle type(s) of weighted random permutations of size n.

    Returns one Partition, or a list of them when count is given.
    Fixed (theta, n, seed, count) gives identical output on every run.
    """
    rows = [Partition(tuple(r)) for r in
            _sample_rows(theta, n, seed, count, cycle_type_only=True)]
    return rows[0] if count is None else rows


def sample_permutation(theta: WeightSequence, n: int, seed: int = 0,
                       count: Optional[int] = None):
    """Weighted random permutation(s) as image tuples (sigma(1..n)).

    The cycle lengths are drawn as for sample_cycle_type, then one shuffle
    of 1..n is cut into cycles of those lengths; fixed (theta, n, seed,
    count) gives identical output on every run.
    """
    rows = list(_sample_rows(theta, n, seed, count, cycle_type_only=False))
    return rows[0] if count is None else rows
