"""Weighted random permutations: exact finite-n laws and sampling.

The measure on S_n attaches a nonnegative weight theta_m to every cycle
of length m:

    P[sigma] = (1 / (h_n * n!)) * prod_m theta_m^{C_m(sigma)}

with h_n the normalization constant.  Writing g(t) = sum_k theta_k t^k / k,
the h_n are the coefficients of exp(g(t)), which is how everything here
is computed; the partition-sum oracle in partitions.py recomputes the
same quantities independently for testing.

The laws also take an exp-poly GeneralizedWeights (generalized.py), read
like a WeightSequence through log_series(order, kind, above), the parts of
log sum_n h_n(w) t^n = sum_j w^j g_j(t) over cycle lengths m > above ((g,)
here), and cycle_factors(m, cmax, kind), F_m(c)/(c! m^c) (theta_m^c here).
Both handles subclass _WeightRule, which holds their eval_fn/exact_fn rule,
its overflow-to-inf double and their repr.

Laws provided exactly (rational or double backend):

* normalization_constants  -- h_0..h_N;
* joint_cycle_pmf          -- law of (C_1, ..., C_b), tuples in lexicographic order;
* joint_cycle_blocks       -- its double law as (counts, mass) numpy blocks of at
                              most _JOINT_BLOCK tuples, in the same order;
* joint_cycle_columns      -- those blocks stacked into two columns (sum left to right);
* total_cycles_pmf         -- law of K_n = C_1 + ... + C_n;
* total_cycles_pmf_many    -- laws of K_n along a grid of n; double ones may
                              stop at a certified tail bound (k_max columns);
* expected_cycle_counts    -- E[C_m] = (theta_m/m) h_{n-m}/h_n.

Sampling draws cycle lengths one by one: with s points left, the next
cycle has length j with probability theta_j h_{s-j} / (s h_s), found by
scanning j = 1, 2, ... until the partial sum passes u s h_s for a uniform
u, so a draw costs O(n) time and memory.  P depends on the cycle type
alone, so a permutation is one shuffle of 1..n cut into consecutive
cycles of the drawn lengths: each permutation of that type arises
prod_m m^{c_m} c_m! times.  The generator is counter-based (Philox), so
runs with the same seed are reproducible byte for byte.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional, Sequence

from .errors import DegenerateMeasureError, ResourceError, UsageError
from .partitions import Partition
from .pmf import Pmf
from .series import (DOUBLE, EXACT, TruncatedSeries, bv_exp_wg, check_kind,
                     pmf_tol, to_fraction, to_kind, ts_exp)

_JOINT_SUPPORT_CAP = 5_000_000
_JOINT_BLOCK = 1 << 14  # rows per block of a double joint law
_CHERNOFF_X = (2.0, 4.0, 8.0)  # the points x of _certified_cols' bound


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
        return cls(lambda m: float(frac), name=label, exact_fn=lambda m: frac)

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


def normalization_constants(theta, n_max: int, backend: str = EXACT) -> list:
    """h_0, ..., h_{n_max} with h_0 = 1, for either weight handle."""
    return list(ts_exp(_at(theta.log_series(n_max, backend))).coeffs)


def _at(parts: tuple, x=1) -> TruncatedSeries:
    """sum_j x^j parts[j-1], the log-series at w = x, added in degree order
    as exp_polynomial_log_series adds its terms."""
    coeffs = [to_kind(0, parts[0].kind)] * len(parts[0].coeffs)
    for j, part in enumerate(parts, 1):
        for t, c in enumerate(part.coeffs):
            coeffs[t] += x**j * c
    return TruncatedSeries(coeffs, parts[0].kind)


def _h_or_degenerate(hn, n: int):
    """hn, unless it is 0 (the measure on S_n is undefined) or not finite."""
    if hn == 0:
        raise DegenerateMeasureError(
            f"normalization h_{n} = 0; the measure is undefined there")
    if isinstance(hn, float) and not math.isfinite(hn):
        raise DegenerateMeasureError(f"normalization h_{n} = {hn} is not finite")
    return hn


def joint_cycle_pmf(theta, n: int, b: int, backend: str = EXACT) -> Pmf:
    """Law of (C_1, ..., C_b) on S_n under either weight handle.

    P[c] = (1/h_n) * prod_{m<=b} F_m(c_m)/(c_m! m^{c_m})
                   * [t^{n - sum m c_m}] exp(sum_j g_j(t) restricted to m > b)

    Support: every tuple with sum_m m*c_m <= n, including zero-mass ones.
    """
    check_kind(backend)
    return _joint_pmf(n, b, backend, lambda: _joint_tables(theta, n, b, backend))


def joint_cycle_blocks(theta, n: int, b: int):
    """The double joint_cycle_pmf as the (counts, mass) blocks of _joint_blocks."""
    return _joint_blocks(n, b, lambda: _joint_tables(theta, n, b, DOUBLE))


def joint_cycle_columns(theta: WeightSequence, n: int, b: int) -> tuple:
    """The double joint_cycle_pmf as the columns of _joint_columns."""
    return _joint_columns(n, b, lambda: _joint_tables(theta, n, b, DOUBLE))


def _joint_tables(theta, n: int, b: int, backend: str) -> tuple:
    hn = _h_or_degenerate(normalization_constants(theta, n, backend)[n], n)
    tail = ts_exp(_at(theta.log_series(n, backend, above=b))).coeffs
    factors = [theta.cycle_factors(m, n // m, backend) for m in range(1, b + 1)]
    return factors, tail, hn


def _joint_pmf(n: int, b: int, kind: str, tables: Callable) -> Pmf:
    """Law of (C_1, ..., C_b) on S_n from per-length factor tables.

    tables() returns (factors, tail, hn): factors[m-1][c] weighs c cycles
    of length m, tail[s] weighs the s points left to cycles longer than
    b, and hn normalizes, so that, multiplied left to right,

        P[c] = prod_{m<=b} factors[m-1][c_m] * tail[n - sum m c_m] / hn.

    Exact laws are filled one Fraction per tuple, with no numpy; doubles
    are the columns of _joint_columns.  Keys are lexicographic, and sums
    run left to right because the references pin their rounding.
    """
    if kind != EXACT:
        counts, mass = _joint_columns(n, b, tables)
        return Pmf(dict(zip(map(tuple, counts.tolist()), mass.tolist())), tol=pmf_tol(kind))
    _guard_joint_support(n, b)
    factors, tail, hn = tables()
    mass: dict = {}

    def fill(m: int, budget: int, prefix: tuple, weight):
        if m > b:
            mass[prefix] = weight * tail[budget] / hn
            return
        table = factors[m - 1]
        for count in range(budget // m + 1):
            fill(m + 1, budget - m * count, prefix + (count,), weight * table[count])

    fill(1, n, (), to_kind(1, kind))
    return Pmf(mass, tol=pmf_tol(kind))


def _joint_columns(n: int, b: int, tables: Callable) -> tuple:
    """(counts, mass): the double law of _joint_pmf, row i of counts its i-th
    tuple; the blocks of _joint_blocks stacked."""
    import numpy as np
    counts, mass = zip(*_joint_blocks(n, b, tables))
    return np.concatenate(counts), np.concatenate(mass)


def _joint_blocks(n: int, b: int, tables: Callable):
    """(counts, mass) blocks of at most _JOINT_BLOCK rows: the double law of
    _joint_pmf, the rows of counts its tuples in lexicographic order.

    Per m, a row with budget points left repeats budget//m + 1 times and
    takes factors[m-1][c_m], so each mass has fill's product and bits.
    Rows whose repeats would pass _JOINT_BLOCK are expanded half at a time,
    and the repeats of a single such row _JOINT_BLOCK at a time.  Each
    block is checked finite and >= 0, and the total after the last one.
    """
    _guard_joint_support(n, b)
    import numpy as np
    factors, tail, hn = tables()
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


def total_cycles_pmf_many(theta, n_values: Sequence[int],
                          backend: str = EXACT, max_tail: Optional[float] = None,
                          keep_k: int = 0) -> dict:
    """Laws of K_n for several n from one bivariate computation.

    The coefficient rows of exp(sum_j w^j g_j(t)) at every t-order up to max(n)
    are produced by a single triangular recurrence, so asking for a grid
    of n values costs the same as asking for the largest one.

    Given max_tail (double only), it keeps the w-columns 0..k_max - 1 and
    no more, k_max > keep_k the least k with P(K_n >= k) <= max_tail for
    every n of the grid by the Chernoff bound of _certified_cols.  Each
    law then holds atoms 1..min(n, k_max - 1), normalized by their own
    sum, with that bound as its tail_bound: O(n * k_max) work and memory
    instead of the (n+1)^2 triangle.
    """
    check_kind(backend)
    ns = list(n_values)
    if not ns or any((not isinstance(n, int)) or n < 1 for n in ns):
        raise UsageError(f"n values must be positive integers, got {n_values!r}")
    if max_tail is not None and not (backend == DOUBLE and 0 < max_tail < 1):
        raise UsageError(f"a truncated K_n law needs the double backend and "
                         f"0 < max_tail < 1, got {backend!r} and {max_tail!r}")
    parts = theta.log_series(max(ns), backend)
    cols, bounds = ((None, dict.fromkeys(ns, 0)) if max_tail is None
                    else _certified_cols(parts, ns, max_tail, keep_k))
    rows = bv_exp_wg(*parts, cols=cols)
    return {n: _k_pmf(rows[n], n, backend, bounds[n]) for n in ns}


def _certified_cols(parts: tuple, ns: list, max_tail: float, keep_k: int) -> tuple:
    """(cols, {n: tail bound}): the w-columns that leave at most max_tail of
    each law of K_n out, and the mass each law leaves out.  E[x^K_n] =
    h_n(x)/h_n(1), h_n(x) = [t^n] exp(sum_j x^j g_j), so for x > 1

        P(K_n >= k) <= x^-k * h_n(x) / h_n(1),

    minimized over x in _CHERNOFF_X.  All N + 1 columns, and bounds 0,
    when that k reaches N = max(n) or some h_n has no finite h_n(x)."""
    import numpy as np
    n_max = parts[0].order
    with np.errstate(all="ignore"):  # an overflowing h_n(x) only gives no bound
        h = {x: ts_exp(_at(parts, x)).coeffs for x in (1.0, *_CHERNOFF_X)}
    log_ratio = {n: {x: math.log(h[x][n] / h[1.0][n]) for x in _CHERNOFF_X
                     if 0 < h[1.0][n] < math.inf and 0 < h[x][n] < math.inf}
                 for n in ns}
    if not all(log_ratio.values()):
        return n_max + 1, dict.fromkeys(ns, 0.0)
    need = max(keep_k + 1, *(min(math.ceil((r - math.log(max_tail)) / math.log(x))
                                 for x, r in log_ratio[n].items()) for n in ns))
    if need >= n_max:
        return n_max + 1, dict.fromkeys(ns, 0.0)
    return need, {n: 0.0 if need > n else
                  min(math.exp(r - need * math.log(x)) for x, r in log_ratio[n].items())
                  for n in ns}


def _k_pmf(row, n: int, backend: str, tail_bound=0) -> Pmf:
    """Law of K_n from the w-coefficients of [t^n] (all of them, or the first
    ones with tail_bound covering the rest); numpy sums a numpy row."""
    row = row[: n + 1]
    hn = _h_or_degenerate(float(row.sum()) if hasattr(row, "sum") else sum(row), n)
    return Pmf({k: row[k] / hn for k in range(1, len(row))}, tol=pmf_tol(backend),
               tail_bound=tail_bound)


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
    hn = _h_or_degenerate(h[n], n)
    return [theta.at(m, backend) / m * h[n - m] / hn for m in range(1, n + 1)]


# -- sampling --------------------------------------------------------------


def _length_drawer(theta: WeightSequence, n: int) -> Callable:
    """draw(uniform) -> the cycle lengths of one permutation of size n,
    each found by a scan over j that costs the length it returns."""
    h = normalization_constants(theta, n, DOUBLE)
    _h_or_degenerate(h[n], n)
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
    """One shuffle of 1..n cut into cycles of the given lengths, as an image."""
    import numpy as np
    order = rng.permutation(sum(lengths))
    ends = np.cumsum(lengths)
    succ = np.arange(1, len(order) + 1)  # each label maps to the next in its block
    succ[ends - 1] = ends - lengths
    image = np.empty_like(order)
    image[order] = order[succ] + 1
    return tuple(image.tolist())


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
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=seed))
    batches = iter(lambda: rng.random(4096).tolist(), None)  # endless: a list is not None
    uniform = chain.from_iterable(batches).__next__
    draw = _length_drawer(theta, n)
    if cycle_type_only:
        return (sorted(draw(uniform), reverse=True) for _ in range(draws))
    return (_permutation_of_type(draw(uniform), rng) for _ in range(draws))


def sample_cycle_type_parts(theta: WeightSequence, n: int, seed: int = 0,
                            count: Optional[int] = None):
    """sample_cycle_type's draws as nonincreasing lists, with no Partition built."""
    rows = list(_sample_rows(theta, n, seed, count, cycle_type_only=True))
    return rows[0] if count is None else rows


def sample_cycle_type(theta: WeightSequence, n: int, seed: int = 0,
                      count: Optional[int] = None):
    """Cycle type(s) of weighted random permutations of size n.

    Returns one Partition, or a list of them when count is given.
    Fixed (theta, n, seed, count) gives identical output on every run.
    """
    rows = sample_cycle_type_parts(theta, n, seed, count)
    return Partition(tuple(rows)) if count is None else [Partition(tuple(r)) for r in rows]


def sample_permutation(theta: WeightSequence, n: int, seed: int = 0,
                       count: Optional[int] = None):
    """Weighted random permutation(s) as image tuples (sigma(1..n)).

    The cycle lengths are drawn as for sample_cycle_type, then one shuffle
    of 1..n is cut into cycles of those lengths; fixed (theta, n, seed,
    count) gives identical output on every run.
    """
    rows = list(_sample_rows(theta, n, seed, count, cycle_type_only=False))
    return rows[0] if count is None else rows
