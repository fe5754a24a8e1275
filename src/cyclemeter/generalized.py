"""Generalized weighted permutations: weight F_m(c_m) per multiplicity.

Instead of theta_m^{C_m}, each cycle length m contributes F_m(C_m) with
F_m(0) = 1 and F_m > 0:

    P[sigma] = (1 / (h_n(F) n!)) * prod_m F_m(C_m(sigma)).

With the exponential-like series EG(A, x) = sum_k A(k) x^k / k!, the
normalization generating function factorizes over cycle lengths,

    sum_n h_n(F) t^n = prod_m EG(F_m, t^m / m),

and marginals/cycle-count laws come from truncating that product, whose
factors the lattice laws read from either handle's cycle_factors.  For
F_m(k) = theta_m^k (a WeightSequence) every formula collapses to the plain
weighted measure, which the tests exploit as an exact reduction identity.

Two concrete constructions:

* exp_polynomial_weights: F_m(k) = k! [x^k] exp(theta x + sum b_j x^j)
  for every m, so prod_m EG(F_m, w t^m/m) = exp(sum_j b_j w^j sum_i
  t^{ij}/i^j), w marking cycles.  Its handle gives those w^j parts
  (log_series) and the factors F(c)/(c! m^c) (cycle_factors), so the laws
  of measure.py run it on the h_n kernels and bv_exp_wg, as the CLI does,
  not on the lattice.  Class F(1, theta) with K = sum_j b_j zeta(j).
* spatial models: a cycle of length m carries e^{-alpha} times a sum
  of mode factors e^{-eps_k m}, multiplicatively over cycles.  That is
  again a plain weighted measure with effective weights
  theta'_m = e^{-alpha} sum_k e^{-eps_k m}; spatial_class_params gives
  its singularity data in closed form.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .asymptotics import SingularityClass
from .errors import UsageError
from .measure import WeightSequence, _WeightRule, _h_or_degenerate, _joint_walk, _k_pmf
from .pmf import Pmf
from .series import EXACT, TruncatedSeries, check_kind, to_fraction, to_kind


class GeneralizedWeights(_WeightRule):
    """Weights F_m(k) > 0 per multiplicity, F_m(0) = 1, given by eval_fn(m, k)
    and optionally exact_fn(m, k); exp_polynomial_weights sets poly."""

    def __init__(self, eval_fn: Callable[[int, int], float], name: str = "custom",
                 exact_fn: Optional[Callable[[int, int], Fraction]] = None,
                 poly: Optional[dict] = None):
        super().__init__(eval_fn, name, exact_fn)
        self.poly = poly

    @classmethod
    def from_theta(cls, theta: WeightSequence) -> "GeneralizedWeights":
        """The reduction F_m(k) = theta_m^k (requires theta_m > 0)."""
        return cls(lambda m, k: theta.theta(m) ** k, name=f"power({theta.name})",
                   exact_fn=lambda m, k: theta.theta_exact(m) ** k)

    def value(self, m: int, k: int) -> float:
        self._check(m, k)
        if k == 0:
            return 1.0
        v = self._double(m, k)
        if not (math.isfinite(v) and v > 0):
            raise UsageError(f"F_{m}({k}) = {v} must be finite and > 0")
        return v

    def value_exact(self, m: int, k: int) -> Fraction:
        self._check(m, k)
        if k == 0:
            return Fraction(1)
        if self._exact is None:
            return Fraction(self.value(m, k))
        v = to_fraction(self._exact(m, k))
        if v <= 0:  # not printed: an exact F(k) can have thousands of digits
            raise UsageError(f"F_{m}({k}) is {'0' if v == 0 else 'negative'}; it must be > 0")
        return v

    def at(self, m: int, k: int, kind: str):
        """F_m(k) in the given scalar kind."""
        return self.value_exact(m, k) if kind == EXACT else self.value(m, k)

    def log_series(self, order: int, kind: str, above: int = 0) -> tuple:
        """The w^j parts b_j sum_{i > above} t^{ij} / i^j, j = 1..deg P, once
        F(k) > 0 holds for k <= order on exact rationals (exp-poly only)."""
        if self.poly is None:
            raise UsageError(f"{self!r} has no exp-polynomial form")
        if not isinstance(order, int) or order < 0:
            raise UsageError(f"order must be an integer >= 0, got {order!r}")
        for k in range(1, order + 1):
            self.value_exact(1, k)
        return tuple(_poly_series({j: self.poly.get(j, 0)}, order, kind, above)
                     for j in range(1, max(self.poly) + 1))

    def cycle_factors(self, m: int, cmax: int, kind: str, base: Optional[int] = None) -> list:
        """F_m(c) / (c! base^c) for c = 0..cmax, base defaulting to m, each exact
        rational rounded once: F_m(c) and c! can overflow where it does not."""
        base, table = m if base is None else base, []
        for c in range(cmax + 1):
            try:
                table.append(to_kind(self.value_exact(m, c) / (math.factorial(c) * base**c), kind))
            except OverflowError:
                raise UsageError(f"F_{m}({c}) / ({c}! {base}^{c}) overflows a double; "
                                 "use the exact backend") from None
        return table

    def _check(self, m: int, k: int) -> None:
        if not isinstance(m, int) or m < 1:
            raise UsageError(f"cycle length must be an integer >= 1, got {m!r}")
        if not isinstance(k, int) or k < 0:
            raise UsageError(f"multiplicity must be an integer >= 0, got {k!r}")


def eg_series(fweights: GeneralizedWeights, m: int, order: int,
              backend: str = EXACT) -> TruncatedSeries:
    """EG(F_m, x) = sum_k F_m(k) x^k / k! truncated at x^order: cycle_factors
    at base 1, each exact F_m(k) / k! rounded once."""
    check_kind(backend)
    if not isinstance(order, int) or order < 0:
        raise UsageError(f"order must be >= 0, got {order!r}")
    return TruncatedSeries(fweights.cycle_factors(m, order, backend, base=1), backend)


def _scaled(values, backend: str) -> tuple:
    """values as one numpy array over a denominator: Python ints over the
    lcm of their denominators (exact), or float64 over 1 (double)."""
    import numpy as np
    if backend != EXACT:
        return np.asarray(values, dtype=float), 1
    den = math.lcm(*[v.denominator for v in values])
    return np.array([v.numerator * (den // v.denominator) for v in values], dtype=object), den


def _eg_product(fweights, lengths, n: int, backend: str,
                acc=None, marked: bool = False) -> list:
    """Coefficients t^0..t^n of acc * prod_{m in lengths} EG(F_m, t^m/m),
    acc defaulting to 1, factor m the handle's cycle_factors(m, n // m).
    With marked, every cycle also carries a u: t^d u^c sits at index
    d*(n+1) + c, each factor EG(F_m, u t^m/m) steps by m*(n+1) + 1 per
    cycle, and only the t^n row, u^0..u^n, is returned.  One slice-update
    loop serves both kinds, on the arrays of _scaled; an exact product is
    reduced by one gcd pass per factor, and Fractions are built only at the end."""
    import numpy as np
    size = (n + 1) ** 2 if marked else n + 1
    if acc is None:
        acc = [to_kind(1, backend)] + [to_kind(0, backend)] * (size - 1)
    acc, q = _scaled(acc, backend)
    for m in lengths:
        # c cycles cover at least c points, so every nonzero t^d u^c has
        # c <= d: the u-power never carries into the next t, and the last
        # cycle count n // m lands at index size - 1 at the latest.
        step = m * (n + 1) + 1 if marked else m
        fac, den = _scaled(fweights.cycle_factors(m, n // m, backend), backend)
        new = np.zeros_like(acc)
        # descending k adds each slot's terms in ascending order of their
        # acc index, a fixed order that keeps the double results' bits
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(len(fac) - 1, -1, -1):
                new[step * k:] += fac[k] * acc[:size - step * k]
        acc, q = new, q * den
        if backend == EXACT:
            div = math.gcd(q, *acc)
            acc, q = acc // div, q // div
    acc = acc[size - n - 1:]  # all of acc unless marked
    return [Fraction(v, q) for v in acc] if backend == EXACT else acc.tolist()


def generalized_normalization(fweights, n_max: int, backend: str = EXACT) -> list:
    """h_0(F), ..., h_{n_max}(F) via the product over cycle lengths, for
    either weight handle."""
    check_kind(backend)
    if not isinstance(n_max, int) or n_max < 0:
        raise UsageError(f"n_max must be >= 0, got {n_max!r}")
    return _eg_product(fweights, range(1, n_max + 1), n_max, backend)


def generalized_joint_cycle_pmf(fweights, n: int, b: int, backend: str = EXACT) -> Pmf:
    """Law of (C_1, ..., C_b) under the measure of either weight handle.

    P[c] = (1/h_n(F)) * prod_{m<=b} F_m(c_m)/(c_m! m^{c_m})
                      * [t^{n - sum m c_m}] prod_{m>b} EG(F_m, t^m/m)
    """
    check_kind(backend)

    def tables():
        tail = _eg_product(fweights, range(b + 1, n + 1), n, backend)
        full = _eg_product(fweights, range(1, b + 1), n, backend, acc=tail)
        hn = _h_or_degenerate(full[n], n, fweights)
        factors = [fweights.cycle_factors(m, n // m, backend) for m in range(1, b + 1)]
        return factors, tail, hn

    return Pmf(dict(_joint_walk(n, b, tables)))


def generalized_total_cycles_pmf(fweights, n: int, backend: str = EXACT) -> Pmf:
    """Law of the total cycle count under either weight handle: coefficient
    of u^k t^n in prod_m EG(F_m, u t^m / m), normalized by h_n(F)."""
    check_kind(backend)
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"n must be a positive integer, got {n!r}")
    return _k_pmf(_eg_product(fweights, range(1, n + 1), n, backend, marked=True), n, fweights)


# -- exponential-polynomial family ------------------------------------------


def exp_polynomial_weights(theta, higher: dict) -> GeneralizedWeights:
    """F_m(k) = k! [x^k] exp(theta x + sum_{j>=2} b_j x^j), independent of m.

    higher maps degree j >= 2 to b_j.  y = exp(P) solves y' = P'y, so
    F(i+1) = sum_j j b_j i!/(i+1-j)! F(i+1-j), extended on demand.  See
    exp_polynomial_log_series for the matching direct route to h_n.
    """
    theta_f = to_fraction(theta)
    if theta_f <= 0:
        raise UsageError(f"theta must be > 0, got {theta}")
    poly: dict = {1: theta_f}
    for j, b in higher.items():
        if not isinstance(j, int) or j < 2:
            raise UsageError(f"polynomial degrees must be integers >= 2, got {j!r}")
        poly[j] = to_fraction(b)
    terms = [(j - 1, j * b) for j, b in poly.items()]
    table = [Fraction(1)]

    def exact_fn(m: int, k: int) -> Fraction:
        for i in range(len(table) - 1, k):
            table.append(sum(jb * math.perm(i, d) * table[i - d] for d, jb in terms if d <= i))
        return table[k]

    name = "exp-poly(" + ",".join(f"{j}:{c}" for j, c in sorted(poly.items())) + ")"
    return GeneralizedWeights(lambda m, k: float(exact_fn(m, k)), name=name,
                              exact_fn=exact_fn, poly=poly)


def exp_polynomial_log_series(theta, higher: dict, order: int,
                              backend: str = EXACT) -> TruncatedSeries:
    """log of the exp-polynomial normalization generating function,
    theta sum_m t^m/m + sum_j b_j sum_i t^{ij}/i^j, whose ts_exp equals
    generalized_normalization; it and normalization_constants add the
    terms in degree order."""
    check_kind(backend)
    return _poly_series({1: theta, **higher}, order, backend)


def _poly_series(poly: dict, order: int, backend: str, above: int = 0) -> TruncatedSeries:
    """sum_j b_j sum_{i > above} t^{ij} / i^j to t^order, for poly = {j: b_j},
    added in degree order."""
    coeffs = [to_kind(0, backend)] * (order + 1)
    for j, b in sorted(poly.items()):
        for i in range(above + 1, order // j + 1):
            coeffs[i * j] += to_kind(to_fraction(b) / Fraction(i) ** j, backend)
    return TruncatedSeries(coeffs, backend)


# -- spatial models ----------------------------------------------------------


class SpatialModel(namedtuple("SpatialModel", "decays alpha")):
    """Finitely many modes with exact decay factors q_k = e^{-eps_k} in
    (0, 1], and one site exponent alpha whose site factor e^{-alpha} is a
    finite nonzero double.

    Built from energies, the decays are the exact binary values of the
    doubles e^{-eps_k}, so the generalized route and the effective-weight
    reduction consume identical numbers.
    """

    __slots__ = ()

    def __new__(cls, decays: Sequence, alpha: float = 0.0):
        decays = tuple(to_fraction(d) for d in decays)
        if not decays:
            raise UsageError("a spatial model needs at least one mode")
        # e^{-eps} underflows to 0 for large energies
        if any(not (0 < d <= 1 and float(d) > 0) for d in decays):
            raise UsageError("decay factors must lie in (0, 1] and not underflow a double")
        alpha = float(alpha)
        try:
            site = math.exp(-alpha)
        except OverflowError:
            site = math.inf
        if not 0 < site < math.inf:  # an exact rule would see 0, or no number
            raise UsageError(f"site exponent --alpha={alpha} makes e^-alpha {site} as a double")
        return super().__new__(cls, decays, alpha)

    @classmethod
    def from_energies(cls, eps: Sequence, alpha=0.0) -> "SpatialModel":
        eps = tuple(float(e) for e in eps)
        if any(e < 0 for e in eps):
            raise UsageError(f"mode energies must be >= 0, got {eps}")
        return cls(tuple(Fraction(math.exp(-e)) for e in eps), alpha=alpha)


def spatial_effective_weights(model: SpatialModel) -> WeightSequence:
    """theta'_m = e^{-alpha} * sum_k e^{-eps_k m} (exact reduction)."""

    decay_floats = [float(d) for d in model.decays]
    site = math.exp(-model.alpha)

    def eval_fn(m: int) -> float:
        return site * sum(q**m for q in decay_floats)

    site_exact = Fraction(site)

    def exact_fn(m: int) -> Fraction:
        return site_exact * sum(q**m for q in model.decays)

    return WeightSequence(eval_fn, name="spatial", exact_fn=exact_fn)


def spatial_F(model: SpatialModel) -> GeneralizedWeights:
    """The generalized-measure form of a spatial model: per-cycle mode sums
    act multiplicatively, i.e. F_m(k) = (theta'_m)^k."""
    return GeneralizedWeights.from_theta(spatial_effective_weights(model))


def spatial_class_params(model: SpatialModel) -> SingularityClass:
    """Singularity data of g'(t) = sum_m theta'_m t^m / m.

    g'(t) = -e^{-alpha} sum_k log(1 - q_k t), so with qmax = max_k q_k
    and A the number of modes at qmax it is class F with

        r = 1/qmax,   theta = A e^{-alpha},
        K = -e^{-alpha} sum_{q_k < qmax} log(1 - q_k/qmax).
    """
    decay_floats = [float(d) for d in model.decays]
    qmax = max(decay_floats)
    site = math.exp(-model.alpha)
    K = -site * math.fsum(math.log1p(-q / qmax) for q in decay_floats if q < qmax)
    return SingularityClass(1.0 / qmax, decay_floats.count(qmax) * site, K)
