"""Integer partitions and brute-force measure computation.

This is the ground-truth oracle for every exact distribution in the
package: probabilities are obtained by summing explicitly over all
partitions of n (conjugacy classes), never through the generating-series
recurrences they are later checked against.

A partition lambda = (lambda_1 >= lambda_2 >= ...) of n stands for the
cycle type with c_m cycles of length m, and

    z_lambda = prod_m m^{c_m} * c_m!

so that n!/z_lambda permutations share the type.  A class of cycle type
lambda has total mass weigh(lambda) / z_lambda before normalization, and
both measures share one walk over the classes and one projection onto
the cycle count; they differ only in weigh:

* weighted:    weigh(lambda) = prod_i theta_{lambda_i};
* generalized: weigh(lambda) = prod_m F_m(c_m), which is the weighted
  case again for F_m(k) = theta_m^k.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateMeasureError, ResourceError, UsageError
from .pmf import Pmf
# Only the scalar-kind helpers: the oracle shares no kernel with the engine.
from .series import check_kind, pmf_tol, to_kind

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

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def cycle_counts(self) -> dict:
        return dict(Counter(self.parts))

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def _descending_partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending_partitions(n - first, first):
            yield (first,) + rest


def enumerate_partitions(n: int, cap: int = PARTITION_CAP) -> list:
    """All partitions of n in descending lexicographic order."""
    if not isinstance(n, int) or n < 0:
        raise UsageError(f"n must be a nonnegative integer, got {n!r}")
    if n > cap:
        raise ResourceError(f"partition enumeration capped at n <= {cap}, got {n}")
    return [Partition(parts) for parts in _descending_partitions(n, n)]


def z_of(partition) -> int:
    """Conjugacy class index z_lambda = prod m^{c_m} c_m!."""
    parts = partition.parts if isinstance(partition, Partition) else tuple(partition)
    return math.prod(m**c * math.factorial(c) for m, c in Counter(parts).items())


@lru_cache(maxsize=None)
def _partition_table(n: int) -> tuple:
    """Cached (parts, z_lambda) pairs for partitions of n."""
    return tuple((p.parts, z_of(p)) for p in enumerate_partitions(n))


def _weighted(theta, n: int, backend: str):
    """weigh(parts) = prod_i theta_{lambda_i}; theta_1..theta_n are read once."""
    vals = [None] + [theta.at(m, backend) for m in range(1, n + 1)]
    one = to_kind(1, backend)
    return lambda parts: math.prod((vals[p] for p in parts[1:]),
                                   start=vals[parts[0]] if parts else one)


def _generalized(fweights, n: int, backend: str):
    """weigh(parts) = prod_m F_m(c_m) over the multiplicities c_m of the parts."""
    one = to_kind(1, backend)
    return lambda parts: math.prod((fweights.at(m, c, backend)
                                    for m, c in Counter(parts).items()), start=one)


def _classes(builder, weights, n: int, backend: str):
    """(parts, weigh(parts) / z_lambda) for every partition of n, streamed;
    weigh = builder(weights, n, backend)."""
    check_kind(backend)
    if not isinstance(n, int) or n < 0:
        raise UsageError(f"n must be a nonnegative integer, got {n!r}")
    weigh = builder(weights, n, backend)
    return ((parts, weigh(parts) / z) for parts, z in _partition_table(n))


def _type_pmf(classes, n: int, backend: str):
    """(law of the cycle type, normalization) from the class weights."""
    weights = {Partition(parts): w for parts, w in classes}
    norm = sum(weights.values())
    if norm == 0:
        raise DegenerateMeasureError(f"normalization vanishes at n={n}")
    return Pmf({lam: w / norm for lam, w in weights.items()}, tol=pmf_tol(backend)), norm


def _k_pmf(type_pmf: Pmf, backend: str) -> Pmf:
    """The law of the number of cycles, projected from a cycle-type law."""
    mass: dict = {}
    for lam, p in type_pmf.items():
        mass[lam.length] = mass.get(lam.length, 0) + p
    return Pmf(mass, tol=pmf_tol(backend))


def brute_force_normalization(theta, n: int, backend: str = "exact"):
    """Partition sum h_n = sum_lambda prod_i theta_{lambda_i} / z_lambda."""
    return sum(w for _, w in _classes(_weighted, theta, n, backend))


def brute_force_cycle_type_pmf(theta, n: int, backend: str = "exact"):
    """Exact law of the cycle type; returns (pmf over Partition, normalization)."""
    return _type_pmf(_classes(_weighted, theta, n, backend), n, backend)


def brute_force_k_pmf(theta, n: int, backend: str = "exact") -> Pmf:
    """Exact law of the total number of cycles, by partition length."""
    return _k_pmf(brute_force_cycle_type_pmf(theta, n, backend)[0], backend)


def brute_force_generalized_normalization(fweights, n: int, backend: str = "exact"):
    """Partition sum h_n(F) = sum_lambda prod_m F_m(c_m) / z_lambda."""
    return sum(w for _, w in _classes(_generalized, fweights, n, backend))


def brute_force_generalized_cycle_type_pmf(fweights, n: int, backend: str = "exact"):
    """Cycle-type law of the generalized measure; returns (pmf, normalization)."""
    return _type_pmf(_classes(_generalized, fweights, n, backend), n, backend)


def brute_force_generalized_k_pmf(fweights, n: int, backend: str = "exact") -> Pmf:
    """Law of the total number of cycles under the generalized measure."""
    return _k_pmf(brute_force_generalized_cycle_type_pmf(fweights, n, backend)[0], backend)
