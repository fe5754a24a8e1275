"""Integer partitions and brute-force measure computation.

This is the ground-truth oracle for every exact distribution in the
package: probabilities are obtained by summing explicitly over all
partitions of n (conjugacy classes), never through the generating-series
recurrences they are later checked against.

A partition lambda = (lambda_1 >= lambda_2 >= ...) of n stands for the
cycle type with c_m cycles of length m, and

    z_lambda = prod_m m^{c_m} * c_m!

so that n!/z_lambda permutations share the type.  The weighted measure
assigns the class total mass prod_m theta_{lambda_i} / z_lambda (before
normalization); the generalized measure assigns prod_m F_m(c_m) / z_lambda.
"""

from __future__ import annotations

import math
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
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        for p in parts:
            if p < 1:
                raise UsageError(f"partition parts must be >= 1, got {p}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise UsageError(f"parts must be nonincreasing, got {parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def cycle_counts(self) -> dict:
        counts: dict = {}
        for p in self.parts:
            counts[p] = counts.get(p, 0) + 1
        return counts

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
    z = 1
    counts: dict = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    for m, c in counts.items():
        z *= m**c * math.factorial(c)
    return z


@lru_cache(maxsize=None)
def _partition_table(n: int) -> tuple:
    """Cached (parts, z_lambda) pairs for partitions of n."""
    return tuple((p.parts, z_of(p)) for p in enumerate_partitions(n))


def _theta_values(theta, n: int, backend: str) -> list:
    return [None] + [theta.at(m, backend) for m in range(1, n + 1)]


def _class_weight(parts, vals, backend):
    w = vals[parts[0]] if parts else to_kind(1, backend)
    for p in parts[1:]:
        w = w * vals[p]
    return w


def brute_force_normalization(theta, n: int, backend: str = "exact"):
    """Partition sum h_n = sum_lambda prod_i theta_{lambda_i} / z_lambda."""
    check_kind(backend)
    if not isinstance(n, int) or n < 0:
        raise UsageError(f"n must be a nonnegative integer, got {n!r}")
    vals = _theta_values(theta, n, backend)
    total = to_kind(0, backend)
    for parts, z in _partition_table(n):
        total += _class_weight(parts, vals, backend) / z
    return total


def brute_force_cycle_type_pmf(theta, n: int, backend: str = "exact"):
    """Exact law of the cycle type; returns (pmf over Partition, normalization)."""
    check_kind(backend)
    vals = _theta_values(theta, n, backend)
    weights = {}
    for parts, z in _partition_table(n):
        weights[Partition(parts)] = _class_weight(parts, vals, backend) / z
    norm = sum(weights.values())
    if norm == 0:
        raise DegenerateMeasureError(f"normalization vanishes at n={n}")
    mass = {lam: w / norm for lam, w in weights.items()}
    return Pmf(mass, tol=pmf_tol(backend)), norm


def brute_force_k_pmf(theta, n: int, backend: str = "exact") -> Pmf:
    """Exact law of the total number of cycles, by partition length."""
    type_pmf, _ = brute_force_cycle_type_pmf(theta, n, backend)
    mass: dict = {}
    for lam, p in type_pmf.items():
        k = lam.length
        mass[k] = mass.get(k, 0) + p
    return Pmf(mass, tol=pmf_tol(backend))


# -- generalized measure oracle ------------------------------------------
#
# Same partition sum with per-multiplicity weights:
#   class weight = prod_m F_m(c_m) / z_lambda.


def _generalized_class_weight(parts, fweights, backend):
    counts: dict = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    w = to_kind(1, backend)
    for m, c in counts.items():
        w = w * fweights.at(m, c, backend)
    return w


def brute_force_generalized_normalization(fweights, n: int, backend: str = "exact"):
    check_kind(backend)
    if not isinstance(n, int) or n < 0:
        raise UsageError(f"n must be a nonnegative integer, got {n!r}")
    total = to_kind(0, backend)
    for parts, z in _partition_table(n):
        total += _generalized_class_weight(parts, fweights, backend) / z
    return total


def brute_force_generalized_cycle_type_pmf(fweights, n: int, backend: str = "exact"):
    check_kind(backend)
    weights = {}
    for parts, z in _partition_table(n):
        w = _generalized_class_weight(parts, fweights, backend)
        weights[Partition(parts)] = w / z
    norm = sum(weights.values())
    mass = {lam: w / norm for lam, w in weights.items()}
    return Pmf(mass, tol=pmf_tol(backend)), norm


def brute_force_generalized_k_pmf(fweights, n: int, backend: str = "exact") -> Pmf:
    type_pmf, _ = brute_force_generalized_cycle_type_pmf(fweights, n, backend)
    mass: dict = {}
    for lam, p in type_pmf.items():
        mass[lam.length] = mass.get(lam.length, 0) + p
    return Pmf(mass, tol=pmf_tol(backend))
