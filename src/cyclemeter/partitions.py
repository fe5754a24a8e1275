"""Integer partitions and brute-force measure computation.

This is the ground-truth oracle for every exact distribution in the
package: probabilities are obtained by summing explicitly over all
partitions of n (conjugacy classes), never through the generating-series
recurrences they are later checked against.

A partition lambda = (lambda_1 >= lambda_2 >= ...) of n stands for the
cycle type with c_m cycles of length m, and

    z_lambda = prod_m m^{c_m} * c_m!

so that n!/z_lambda permutations share the type.  A class of cycle type
lambda has total mass prod_m F_m(c_m) / z_lambda before normalization.
The handle picks F: theta_m^c for a WeightSequence (weighted), F_m(c) as
given for a GeneralizedWeights (generalized), so every oracle takes either
and both measures share one walk over the classes.

The exact walk runs on Python ints.  Write F_m(c) = a_{m,c} / B^e with
B clearing every theta_m and e = c (weighted) or every F_m(c) and e = 1
(generalized); with E the sum of e over a class,

    n! B^n prod_m F_m(c_m) / z_lambda = (n!/z_lambda) prod_m a_{m,c_m} B^{n-E},

an integer.  Classes of equal E are summed before one scaling by B^{n-E},
and a law builds one Fraction per atom.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateMeasureError, ResourceError, UsageError
from .pmf import Pmf
# Only the scalar-kind helpers: the oracle shares no kernel with the engine.
from .series import EXACT, check_kind, pmf_tol, to_kind

# Enumerating all partitions beyond this size is refused; p(80) ~ 1.5e7
# would already be painful and nothing in the package needs it.
PARTITION_CAP = 80


@dataclass(frozen=True, order=True)
class Partition:
    parts: tuple

    def __post_init__(self):
        # one pass over the parts: nonincreasing, so the last is the least
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if any(map(operator.lt, parts, parts[1:])):
            raise UsageError(f"parts must be nonincreasing, got {parts}")
        if parts and parts[-1] < 1:
            raise UsageError(f"partition parts must be >= 1, got {parts[-1]}")

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def _partition_rows(n: int):
    """(parts, z_lambda, ((m, c_m), ...)) of each partition of n in descending
    lexicographic order, m decreasing within a class: a step spreads one part
    m of the last pair above 1, and the 1s, over parts m - 1 and a remainder."""
    if not isinstance(n, int) or n < 0:
        raise UsageError(f"n must be a nonnegative integer, got {n!r}")
    if n > PARTITION_CAP:
        raise ResourceError(f"partition enumeration capped at n <= {PARTITION_CAP}, got {n}")
    stack = [((), 1, ())]  # the row of every prefix of the pairs

    def push(m, c):  # m = 0 or c = 0 adds no pair
        if m * c:
            parts, z, mc = stack[-1]
            stack.append((parts + (m,) * c, z * m**c * math.factorial(c), mc + ((m, c),)))

    push(n, 1)
    yield stack[-1]
    while len(stack[-1][0]) < n:  # until n parts of 1
        ones = stack.pop()[2][-1][1] if stack[-1][2][-1][0] == 1 else 0  # drop the 1s
        m, c = stack.pop()[2][-1]
        push(m, c - 1)
        push(m - 1, (m + ones) // (m - 1))
        push((m + ones) % (m - 1), 1)
        yield stack[-1]


@lru_cache(maxsize=None)
def _partition_table(n: int) -> tuple:
    return tuple(_partition_rows(n))


def _weighted(theta, n: int, backend: str) -> tuple:
    """(F, e = c): F_m(c) = theta_m^c as a product, which overflows a double
    to inf rather than raising; theta_1..theta_n are read once."""
    vals = [None] + [theta.at(m, backend) for m in range(1, n + 1)]
    return (lambda m, c: math.prod([vals[m]] * c)), True


def _generalized(fweights, n: int, backend: str) -> tuple:
    """(F, e = 1) for generalized weights."""
    return (lambda m, c: fweights.at(m, c, backend)), False


def _classes(weights, n: int, backend: str, key) -> tuple:
    """(mass, total, d): the class masses summed by key(parts) are mass / d
    and sum to total / d; a WeightSequence weighs by theta_m^c (e = c), any
    other handle by F_m(c) (e = 1).  Doubles have d = 1; exact sums are the
    integers of the module docstring, keyed by (key(parts), n - E) until
    the scaling by B^{n-E}."""
    from .measure import WeightSequence  # measure imports this module
    check_kind(backend)
    if not isinstance(n, int) or n < 0:
        raise UsageError(f"n must be a nonnegative integer, got {n!r}")
    rule = _weighted if isinstance(weights, WeightSequence) else _generalized
    weigh, per_cycle = rule(weights, n, backend)
    f = {(m, c): weigh(m, c) for m in range(1, n + 1) for c in range(1, n // m + 1)}
    sums: dict = {}
    if backend == EXACT:
        # B clears every theta_m = F_m(1) (weighted) or every F_m(c)
        big = math.lcm(*[v.denominator for (_, c), v in f.items() if c == 1 or not per_cycle])
        powers = [big**k for k in range(n + 1)]
        f = {(m, c): v.numerator * (powers[c if per_cycle else 1] // v.denominator)
             for (m, c), v in f.items()}
        fact = math.factorial(n)
        for parts, z, mc in _partition_table(n):
            k = (key(parts), n - len(parts if per_cycle else mc))
            sums[k] = sums.get(k, 0) + fact // z * math.prod(map(f.__getitem__, mc))
        d = fact * powers[n]
    else:
        for parts, z, mc in _partition_table(n):
            k = (key(parts), 0)
            sums[k] = sums.get(k, 0) + math.prod(map(f.__getitem__, mc), start=1.0) / z
        powers, d = [1.0], 1
    mass: dict = {}
    for (k, power), w in sums.items():
        mass[k] = mass.get(k, 0) + w * powers[power]
    return mass, to_kind(sum(mass.values()), backend), d


def _law(weights, n: int, backend: str, key) -> tuple:
    """(law of key(parts), normalization)."""
    mass, total, d = _classes(weights, n, backend, key)
    if total == 0:
        raise DegenerateMeasureError(f"normalization vanishes at n={n}")
    return Pmf({k: w / total for k, w in mass.items()}, tol=pmf_tol(backend)), total / d


def brute_force_normalization(weights, n: int, backend: str = "exact"):
    """Partition sum h_n = sum_lambda prod_m F_m(c_m) / z_lambda."""
    _, total, d = _classes(weights, n, backend, len)
    return total / d


def brute_force_cycle_type_pmf(weights, n: int, backend: str = "exact"):
    """Exact law of the cycle type; returns (pmf over Partition, normalization)."""
    return _law(weights, n, backend, Partition)


def brute_force_cycle_counts_pmf(weights, n: int, b: int, backend: str = "exact") -> Pmf:
    """Law of (C_1, ..., C_b), one atom per tuple the classes reach."""
    return _law(weights, n, backend, lambda parts: tuple(map(parts.count, range(1, b + 1))))[0]


def brute_force_k_pmf(weights, n: int, backend: str = "exact") -> Pmf:
    """Exact law of the total number of cycles, by partition length."""
    return _law(weights, n, backend, len)[0]


# The generalized measure's names for the same oracles
brute_force_generalized_normalization = brute_force_normalization
brute_force_generalized_cycle_type_pmf = brute_force_cycle_type_pmf
brute_force_generalized_k_pmf = brute_force_k_pmf
