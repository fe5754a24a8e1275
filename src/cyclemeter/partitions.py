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
and both measures share one walk over the classes.  The walk stores no
class: its stack holds one class's pairs (m, c_m), so memory is O(n).

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
from collections import namedtuple
from itertools import chain, repeat

from .errors import DegenerateMeasureError, ResourceError, UsageError
from .pmf import Pmf
# Only the scalar-kind helpers: the oracle shares no kernel with the engine.
from .series import EXACT, check_kind, to_kind

# Enumerating all partitions beyond this size is refused.  The unit-weight K
# law takes 2.2 s at n = 60 and 10.6 s at 70, about 2.5 us a class (one Xeon
# core, CPython 3.11), so n = 80 (p ~ 1.6e7 classes) would take about 40 s.
PARTITION_CAP = 80


class Partition(namedtuple("Partition", "parts")):
    __slots__ = ()

    def __new__(cls, parts: tuple):
        # one pass over the parts: nonincreasing, so the last is the least
        parts = tuple(parts)
        if any(map(operator.lt, parts, parts[1:])):
            raise UsageError(f"parts must be nonincreasing, got {parts}")
        if parts and parts[-1] < 1:
            raise UsageError(f"partition parts must be >= 1, got {parts[-1]}")
        return super().__new__(cls, parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def _walk(n: int, step, start):
    """Each partition of n, descending lexicographically, as one list (changed after
    each yield) of pairs (m, c_m, cycles, value), m decreasing, on a base (0, 0, 0,
    start); cycles and value = step(value, m, c) run over the prefix.  A step spreads
    one part m of the last pair above 1, and the 1s, over parts m - 1 and a rest."""
    stack = [(0, 0, 0, start)]
    if n:
        stack.append((n, 1, 1, step(start, n, 1)))
    yield stack
    while stack[-1][2] < n:  # until n parts of 1
        ones = stack.pop()[1] if stack[-1][0] == 1 else 0  # drop the 1s
        m, c, _, _ = stack.pop()
        _, _, cycles, value = stack[-1]
        if c > 1:
            cycles, value = cycles + c - 1, step(value, m, c - 1)
            stack.append((m, c - 1, cycles, value))
        q, r = divmod(m + ones, m - 1)
        cycles, value = cycles + q, step(value, m - 1, q)
        stack.append((m - 1, q, cycles, value))
        if r:
            stack.append((r, 1, cycles + 1, step(value, r, 1)))
        yield stack


def check_partition_cap(n: int) -> None:
    """ResourceError when the oracles would refuse to enumerate S_n."""
    if n > PARTITION_CAP:
        raise ResourceError(f"partition enumeration capped at n <= {PARTITION_CAP}, got {n}")


def _cycles(stack) -> int:
    return stack[-1][2]


def _classes(weights, n: int, backend: str, key) -> tuple:
    """(mass, total, d): the class masses summed by key(stack) of _walk are
    mass / d and sum to total / d; a WeightSequence weighs by theta_m^c
    (e = c), any other handle by F_m(c) (e = 1).  n is checked before any
    weight is read.  A double prefix carries (prod F, z), F multiplied left
    to right from 1.0; an exact one the integer (n!/z) prod a of the module
    docstring, summed by (key(stack), n - E) until the scaling by B^{n-E}."""
    from .measure import WeightSequence  # measure imports this module
    check_kind(backend)
    if not isinstance(n, int) or n < 0:
        raise UsageError(f"n must be a nonnegative integer, got {n!r}")
    check_partition_cap(n)
    z = {(m, c): m**c * math.factorial(c) for m in range(1, n + 1) for c in range(1, n // m + 1)}
    per_cycle = isinstance(weights, WeightSequence)
    if per_cycle:  # theta_1..theta_n read once; a double power overflows to inf, not raising
        theta = [None] + [weights.at(m, backend) for m in range(1, n + 1)]
        f = {(m, c): math.prod([theta[m]] * c) for m, c in z}
    else:
        f = {(m, c): weights.at(m, c, backend) for m, c in z}
    mass, d = {}, 1
    if backend == EXACT:
        # B clears every theta_m = F_m(1) (weighted) or every F_m(c)
        big = math.lcm(*[v.denominator for (_, c), v in f.items() if c == 1 or not per_cycle])
        powers = [big**k for k in range(n + 1)]
        f = {(m, c): v.numerator * (powers[c if per_cycle else 1] // v.denominator)
             for (m, c), v in f.items()}
        sums, d = {}, math.factorial(n)
        for stack in _walk(n, lambda w, m, c: w // z[m, c] * f[m, c], d):
            k = (key(stack), n - (stack[-1][2] if per_cycle else len(stack) - 1))
            sums[k] = sums.get(k, 0) + stack[-1][3]
        for (k, power), w in sums.items():
            mass[k] = mass.get(k, 0) + w * powers[power]
        d *= powers[n]
    else:
        for stack in _walk(n, lambda v, m, c: (v[0] * f[m, c], v[1] * z[m, c]), (1.0, 1)):
            k, (prod, zl) = key(stack), stack[-1][3]
            mass[k] = mass.get(k, 0) + prod / zl
    return mass, to_kind(sum(mass.values()), backend), d


def _law(weights, n: int, backend: str, key) -> tuple:
    """(law of key(stack), normalization)."""
    mass, total, d = _classes(weights, n, backend, key)
    if total == 0:
        raise DegenerateMeasureError(f"normalization vanishes at n={n}")
    return Pmf({k: w / total for k, w in mass.items()}), total / d


def brute_force_normalization(weights, n: int, backend: str = "exact"):
    """Partition sum h_n = sum_lambda prod_m F_m(c_m) / z_lambda."""
    _, total, d = _classes(weights, n, backend, _cycles)
    return total / d


def brute_force_cycle_type_pmf(weights, n: int, backend: str = "exact"):
    """Exact law of the cycle type; returns (pmf over Partition, normalization)."""
    return _law(weights, n, backend, lambda stack: Partition(
        tuple(chain.from_iterable(repeat(m, c) for m, c, _, _ in stack))))


def brute_force_cycle_counts_pmf(weights, n: int, b: int, backend: str = "exact") -> Pmf:
    """Law of (C_1, ..., C_b), one atom per tuple the classes reach."""
    def counts(stack):  # m decreases up the stack, so c_1..c_b sit at its top
        c = [0] * (b + 1)
        for m, c_m, _, _ in reversed(stack):
            if m > b:
                break
            c[m] = c_m
        return tuple(c[1:])
    return _law(weights, n, backend, counts)[0]


def brute_force_k_pmf(weights, n: int, backend: str = "exact") -> Pmf:
    """Exact law of the total number of cycles, by partition length."""
    return _law(weights, n, backend, _cycles)[0]


# The generalized measure's names for the same oracles
brute_force_generalized_normalization = brute_force_normalization
brute_force_generalized_cycle_type_pmf = brute_force_cycle_type_pmf
brute_force_generalized_k_pmf = brute_force_k_pmf
