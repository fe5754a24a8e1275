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
* joint_cycle_pmf          -- law of (C_1, ..., C_b);
* total_cycles_pmf         -- law of K_n = C_1 + ... + C_n;
* expected_cycle_counts    -- E[C_m] = (theta_m/m) h_{n-m}/h_n.

Sampling is sequential by cycle lengths: conditioned on s points being
left, the next cycle (the one containing the smallest remaining label)
has length j with probability theta_j h_{s-j} / (s h_s); filling the
chosen cycles with uniformly random members makes the permutation law
exactly P.  The generator is counter-based (Philox) so runs with the
same seed are reproducible byte for byte.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateMeasureError, ResourceError, UsageError
from .partitions import Partition
from .pmf import Pmf
from .series import (DOUBLE, EXACT, TruncatedSeries, bv_exp_wg, check_kind,
                     pmf_tol, to_kind, ts_exp)

_JOINT_SUPPORT_CAP = 5_000_000
_WEIGHT_CACHE_LIMIT = 20_000


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
        self._cache: dict = {}
        self._cache_exact: dict = {}

    @classmethod
    def constant(cls, value, name: Optional[str] = None) -> "WeightSequence":
        frac = _to_fraction(value)
        if frac < 0:
            raise UsageError(f"weights must be >= 0, got {value}")
        label = name if name is not None else f"constant({value})"
        return cls(lambda m: float(frac), name=label, exact_fn=lambda m: frac)

    def theta(self, m: int) -> float:
        _check_index(m)
        if m in self._cache:
            return self._cache[m]
        try:
            value = float(self._eval(m))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value) or value < 0:
            raise UsageError(f"theta_{m} = {value} is not a finite nonnegative weight")
        if m <= _WEIGHT_CACHE_LIMIT:
            self._cache[m] = value
        return value

    def theta_exact(self, m: int) -> Fraction:
        _check_index(m)
        if m in self._cache_exact:
            return self._cache_exact[m]
        if self._exact is not None:
            value = _to_fraction(self._exact(m))
        else:
            value = Fraction(self.theta(m))
        if value < 0:
            raise UsageError(f"theta_{m} = {value} is negative")
        if m <= _WEIGHT_CACHE_LIMIT:
            self._cache_exact[m] = value
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


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise UsageError(f"cannot interpret {value!r} as an exact rational")


def _check_index(m) -> None:
    if not isinstance(m, (int, np.integer)) or m < 1:
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


def _h_or_degenerate(h: Sequence, n: int):
    hn = h[n]
    if hn == 0:
        raise DegenerateMeasureError(
            f"normalization h_{n} = 0; the measure is undefined there")
    if isinstance(hn, float) and not math.isfinite(hn):
        raise DegenerateMeasureError(f"normalization h_{n} = {hn} overflowed")
    return hn


def joint_cycle_pmf(theta: WeightSequence, n: int, b: int, backend: str = EXACT) -> Pmf:
    """Law of (C_1, ..., C_b) under the weighted measure on S_n.

    P[c] = (1/h_n) * prod_{m<=b} (theta_m/m)^{c_m}/c_m!
                   * [t^{n - sum m c_m}] exp(sum_{m>b} theta_m t^m / m)

    Support: every tuple with sum_m m*c_m <= n, including zero-mass ones.
    """
    check_kind(backend)

    def tables():
        hn = _h_or_degenerate(normalization_constants(theta, n, backend), n)
        zero, one = to_kind(0, backend), to_kind(1, backend)
        tail_coeffs = [zero] * (b + 1) + [theta.at(m, backend) / m
                                          for m in range(b + 1, n + 1)]
        tail = ts_exp(TruncatedSeries(tail_coeffs, backend)).coeffs
        factors = []
        for m in range(1, b + 1):
            ratio = theta.at(m, backend) / m
            table = [one]
            for count in range(1, n // m + 1):
                table.append(table[-1] * ratio / count)
            factors.append(table)
        return factors, tail, hn

    return _joint_pmf(n, b, backend, tables)


def _joint_pmf(n: int, b: int, kind: str, tables: Callable) -> Pmf:
    """Law of (C_1, ..., C_b) on S_n from per-length factor tables.

    tables() returns (factors, tail, hn): factors[m-1][c] weighs c cycles
    of length m, tail[s] weighs the s points left to cycles longer than
    b, and hn normalizes, so that

        P[c] = prod_{m<=b} factors[m-1][c_m] * tail[n - sum m c_m] / hn.

    It is called only once n and b are valid and the support fits under
    the cap, so an oversized request is refused before any table is built.
    """
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"n must be a positive integer, got {n!r}")
    if not isinstance(b, int) or not 1 <= b <= n:
        raise UsageError(f"b must satisfy 1 <= b <= n, got {b!r}")
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


def _guard_joint_support(n: int, b: int) -> None:
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
    biv = bv_exp_wg(g)
    out = {}
    for n in ns:
        row = biv.row(n)
        hn = sum(row) if backend == EXACT else float(np.sum(row))
        if hn == 0 or (isinstance(hn, float) and not math.isfinite(hn)):
            raise DegenerateMeasureError(f"normalization h_{n} = {hn}")
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
    hn = _h_or_degenerate(h, n)
    return [theta.at(m, backend) / m * h[n - m] / hn for m in range(1, n + 1)]


# -- sampling --------------------------------------------------------------


def _rng(seed: int) -> np.random.Generator:
    if not isinstance(seed, int) or seed < 0:
        raise UsageError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(key=seed))


def _cycle_length_tables(theta: WeightSequence, n: int) -> list:
    """cum[s] = cumulative law of the next cycle length at s points left."""
    h = normalization_constants(theta, n, DOUBLE)
    if h[n] <= 0 or not math.isfinite(h[n]):
        raise DegenerateMeasureError(f"normalization h_{n} = {h[n]}")
    cum = [None] * (n + 1)
    for s in range(1, n + 1):
        if h[s] <= 0:
            continue  # unreachable remainder size
        probs = np.array([theta.theta(j) * h[s - j] for j in range(1, s + 1)])
        probs /= s * h[s]
        cum[s] = np.cumsum(probs)
    return cum


def _draw_lengths(cum: list, n: int, rng: np.random.Generator) -> list:
    lengths = []
    s = n
    while s:
        table = cum[s]
        if table is None:
            raise DegenerateMeasureError(f"reached remainder size {s} with h_{s} = 0")
        j = int(np.searchsorted(table, rng.random(), side="right")) + 1
        j = min(j, s)  # guard the last cumulative bin against rounding
        lengths.append(j)
        s -= j
    return lengths


def sample_cycle_type(theta: WeightSequence, n: int, seed: int = 0,
                      count: Optional[int] = None):
    """Cycle type(s) of weighted random permutations of size n.

    Returns one Partition, or a list of them when count is given.
    Fixed (theta, n, seed, count) gives identical output on every run.
    """
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"n must be a positive integer, got {n!r}")
    rng = _rng(seed)
    cum = _cycle_length_tables(theta, n)
    draws = 1 if count is None else count
    if not isinstance(draws, int) or draws < 1:
        raise UsageError(f"count must be a positive integer, got {count!r}")
    result = [Partition(tuple(sorted(_draw_lengths(cum, n, rng), reverse=True)))
              for _ in range(draws)]
    return result[0] if count is None else result


def sample_permutation(theta: WeightSequence, n: int, seed: int = 0,
                       count: Optional[int] = None):
    """Weighted random permutation(s) as image tuples (sigma(1..n)).

    Cycle lengths follow the sequential rule; each cycle then absorbs the
    smallest unused label plus a uniformly random arrangement of uniformly
    chosen other labels, which makes the permutation exactly P-distributed.
    """
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"n must be a positive integer, got {n!r}")
    rng = _rng(seed)
    cum = _cycle_length_tables(theta, n)
    draws = 1 if count is None else count
    if not isinstance(draws, int) or draws < 1:
        raise UsageError(f"count must be a positive integer, got {count!r}")

    result = []
    for _ in range(draws):
        lengths = _draw_lengths(cum, n, rng)
        sigma = [0] * (n + 1)
        pool = list(range(1, n + 1))
        for j in lengths:
            leader = pool.pop(0)
            members = [leader]
            for _ in range(j - 1):
                idx = int(rng.random() * len(pool))
                members.append(pool.pop(idx))
            for a, bnext in zip(members, members[1:]):
                sigma[a] = bnext
            sigma[members[-1]] = leader
        result.append(tuple(sigma[1:]))
    return result[0] if count is None else result
