"""Weighted random permutations: exact finite-n laws and sampling.

The measure on S_n attaches a nonnegative weight theta_m to every cycle
of length m:

    P[sigma] = (1 / (h_n * n!)) * prod_m theta_m^{C_m(sigma)}

with h_n the normalization constant.  Writing g(t) = sum_k theta_k t^k / k,
the h_n are the coefficients of exp(g(t)), which is how everything here
is computed; the partition-sum oracle in partitions.py recomputes the
same quantities independently for testing.

Laws provided exactly (rational or double backend):

* normalization_constants  -- h_0..h_N;
* joint_cycle_pmf          -- law of (C_1, ..., C_b), tuples in lexicographic order;
* joint_cycle_columns      -- its double law as numpy columns (sum left to right);
* total_cycles_pmf         -- law of K_n = C_1 + ... + C_n;
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


class WeightSequence:
    """Cycle weights theta_1, theta_2, ... >= 0 given by a rule.

    eval_fn(m) -> float defines the sequence; exact_fn(m) -> Fraction, if
    provided, is its exact value for the rational backend.  When exact_fn
    is omitted the exact backend uses Fraction(eval_fn(m)), i.e. the exact
    binary value of the double, so both backends always see the same
    numbers and the partition oracle can demand exact equality.
    """

    def __init__(self, eval_fn: Callable[[int], float], name: str = "custom",
                 exact_fn: Optional[Callable[[int], Fraction]] = None):
        if not callable(eval_fn):
            raise UsageError("eval_fn must be callable")
        self._eval = eval_fn
        self._exact = exact_fn
        self.name = name

    @classmethod
    def constant(cls, value, name: Optional[str] = None) -> "WeightSequence":
        frac = to_fraction(value)
        if frac < 0:
            raise UsageError(f"weights must be >= 0, got {value}")
        label = name if name is not None else f"constant({value})"
        return cls(lambda m: float(frac), name=label, exact_fn=lambda m: frac)

    def theta(self, m: int) -> float:
        _check_index(m)
        try:
            value = float(self._eval(m))
        except OverflowError:
            value = math.inf
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

    @property
    def has_exact_rule(self) -> bool:
        """Whether the exact backend sees true rationals from exact_fn
        rather than binary snapshots of the doubles."""
        return self._exact is not None

    def __repr__(self) -> str:
        return f"WeightSequence({self.name})"


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


def normalization_constants(theta: WeightSequence, n_max: int, backend: str = EXACT) -> list:
    """h_0, ..., h_{n_max} with h_0 = 1."""
    g = weight_log_series(theta, n_max, backend)
    return list(ts_exp(g).coeffs)


def _h_or_degenerate(hn, n: int):
    """hn, unless it is 0 (the measure on S_n is undefined) or not finite."""
    if hn == 0:
        raise DegenerateMeasureError(
            f"normalization h_{n} = 0; the measure is undefined there")
    if isinstance(hn, float) and not math.isfinite(hn):
        raise DegenerateMeasureError(f"normalization h_{n} = {hn} is not finite")
    return hn


def joint_cycle_pmf(theta: WeightSequence, n: int, b: int, backend: str = EXACT) -> Pmf:
    """Law of (C_1, ..., C_b) under the weighted measure on S_n.

    P[c] = (1/h_n) * prod_{m<=b} (theta_m/m)^{c_m}/c_m!
                   * [t^{n - sum m c_m}] exp(sum_{m>b} theta_m t^m / m)

    Support: every tuple with sum_m m*c_m <= n, including zero-mass ones.
    """
    check_kind(backend)
    return _joint_pmf(n, b, backend, lambda: _joint_tables(theta, n, b, backend))


def joint_cycle_columns(theta: WeightSequence, n: int, b: int) -> tuple:
    """The double joint_cycle_pmf as the columns of _joint_columns."""
    return _joint_columns(n, b, lambda: _joint_tables(theta, n, b, DOUBLE))


def _joint_tables(theta: WeightSequence, n: int, b: int, backend: str) -> tuple:
    hn = _h_or_degenerate(normalization_constants(theta, n, backend)[n], n)
    zero, one = to_kind(0, backend), to_kind(1, backend)
    tail_coeffs = [zero] * (b + 1) + [theta.at(m, backend) / m for m in range(b + 1, n + 1)]
    tail = ts_exp(TruncatedSeries(tail_coeffs, backend)).coeffs
    factors = []
    for m in range(1, b + 1):
        ratio = theta.at(m, backend) / m
        table = [one]
        for count in range(1, n // m + 1):
            table.append(table[-1] * ratio / count)
        factors.append(table)
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
    tuple.  Per m, a row with budget points left repeats budget//m + 1 times
    and takes factors[m-1][c_m], so each mass has fill's product and bits."""
    _guard_joint_support(n, b)
    import numpy as np
    factors, tail, hn = tables()
    counts, budget, weight = np.zeros((1, 0), dtype=np.int64), np.array([n]), np.ones(1)
    for m in range(1, b + 1):
        reps = budget // m + 1
        row = np.repeat(np.arange(budget.size), reps)
        c = np.arange(row.size) - np.repeat(np.cumsum(reps) - reps, reps)
        counts = np.column_stack([counts[row], c])
        budget = budget[row] - m * c
        weight = weight[row] * np.asarray(factors[m - 1], dtype=float)[c]
    mass = weight * np.asarray(tail, dtype=float)[budget] / hn
    if not (np.all((mass >= 0) & (mass < math.inf)) and abs(mass.sum() - 1) <= pmf_tol(DOUBLE)):
        raise UsageError(f"joint masses must be finite, >= 0 and sum to 1: {mass.sum()}")
    return counts, mass


def _guard_joint_support(n: int, b: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"n must be a positive integer, got {n!r}")
    if not isinstance(b, int) or not 1 <= b <= n:
        raise UsageError(f"b must satisfy 1 <= b <= n, got {b!r}")
    size = 1.0
    for m in range(1, b + 1):
        size *= n / m + 1
        if size > _JOINT_SUPPORT_CAP:
            raise ResourceError(
                f"joint support for n={n}, b={b} exceeds {_JOINT_SUPPORT_CAP} tuples")


def total_cycles_pmf(theta: WeightSequence, n: int, backend: str = EXACT) -> Pmf:
    """Law of the total cycle count K_n; support {1, ..., n}."""
    return total_cycles_pmf_many(theta, [n], backend)[n]


def total_cycles_pmf_many(theta: WeightSequence, n_values: Sequence[int],
                          backend: str = EXACT) -> dict:
    """Laws of K_n for several n from one bivariate computation.

    The coefficient rows of exp(w*g(t)) at every t-order up to max(n)
    are produced by a single triangular recurrence, so asking for a grid
    of n values costs the same as asking for the largest one.
    """
    check_kind(backend)
    ns = list(n_values)
    if not ns or any((not isinstance(n, int)) or n < 1 for n in ns):
        raise UsageError(f"n values must be positive integers, got {n_values!r}")
    n_max = max(ns)
    g = weight_log_series(theta, n_max, backend)
    rows = bv_exp_wg(g)
    out = {}
    for n in ns:
        row = rows[n][: n + 1]
        hn = _h_or_degenerate(sum(row) if backend == EXACT else float(row.sum()), n)
        mass = {k: row[k] / hn for k in range(1, n + 1)}
        out[n] = Pmf(mass, tol=pmf_tol(backend))
    return out


def expected_cycle_counts(theta: WeightSequence, n: int, backend: str = EXACT) -> list:
    """E[C_m] = (theta_m / m) * h_{n-m} / h_n for m = 1..n.

    The identity sum_m m * E[C_m] = n holds exactly and is a good
    self-check on any weight sequence.
    """
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


def _sample(theta: WeightSequence, n: int, seed: int, count: Optional[int], make: Callable):
    """The checks both samplers share, then make(lengths, rng) per draw."""
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
    result = [make(draw(uniform), rng) for _ in range(draws)]
    return result[0] if count is None else result


def sample_cycle_type_parts(theta: WeightSequence, n: int, seed: int = 0,
                            count: Optional[int] = None):
    """sample_cycle_type's draws as nonincreasing lists, with no Partition built."""
    return _sample(theta, n, seed, count, lambda lengths, rng: sorted(lengths, reverse=True))


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
    return _sample(theta, n, seed, count, _permutation_of_type)
