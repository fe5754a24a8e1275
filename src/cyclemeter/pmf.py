"""Finite probability mass functions with validation.

Keys are integers, tuples of integers, or Partition values; values are
Fractions (exact backend) or floats.  A Pmf must account for all mass:
stored mass plus the declared tail_bound has to equal 1 within tol.
tol = 0 therefore demands exact rational normalization.

tail_bound records mass deliberately left outside the stored support
(truncated reference laws such as Poisson); distance computations add
it back as an upper-bound correction.
"""

from __future__ import annotations

import math

from .errors import UsageError


class Pmf:
    __slots__ = ("_mass", "tol", "tail_bound")

    def __init__(self, mass: dict, tol=0, tail_bound=0):
        if not isinstance(mass, dict) or not mass:
            raise UsageError("mass must be a nonempty dict")
        for key, value in mass.items():
            if not 0 <= value < math.inf:
                raise UsageError(f"mass {value} at {key!r} must be finite and >= 0")
        if not 0 <= tail_bound < math.inf:
            raise UsageError("tail_bound must be finite and >= 0")
        total = sum(mass.values()) + tail_bound
        if tol == 0:
            if total != 1:
                raise UsageError(f"mass must sum to 1 exactly, got {total}")
        elif not abs(total - 1) <= tol:
            raise UsageError(f"mass sums to {total}, outside 1 +/- {tol}")
        self._mass = dict(sorted(mass.items()))
        self.tol = tol
        self.tail_bound = tail_bound

    def __getitem__(self, key):
        return self._mass.get(key, 0)

    # without it, `in` would scan __getitem__ (0 off the support) forever
    def __contains__(self, key) -> bool:
        return key in self._mass

    def __len__(self) -> int:
        return len(self._mass)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pmf):
            return NotImplemented
        return self._mass == other._mass

    def support(self) -> tuple:
        return tuple(self._mass.keys())

    def items(self):
        return self._mass.items()

    def mean(self):
        """First moment; integer-keyed pmfs only."""
        self._require_scalar_keys()
        return sum(k * p for k, p in self._mass.items())

    def variance(self):
        self._require_scalar_keys()
        mu = self.mean()
        return sum((k - mu) ** 2 * p for k, p in self._mass.items())

    def _require_scalar_keys(self) -> None:
        for key in self._mass:
            if not isinstance(key, int):
                raise UsageError("moment requested for non-integer support")

    def __repr__(self) -> str:
        shown = list(self._mass.items())[:3]
        body = ", ".join(f"{k!r}: {v}" for k, v in shown)
        more = ", ..." if len(self._mass) > 3 else ""
        return f"Pmf({{{body}{more}}}, tol={self.tol})"

