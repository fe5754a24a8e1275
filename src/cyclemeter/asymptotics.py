"""Singularity classification of weight sequences and asymptotic laws.

A weight sequence is classified through g(t) = sum theta_k t^k / k near
its radius of convergence r.  Two usable shapes:

* class F(r, theta):  g(t) = theta*log(1/(1 - t/r)) + K + O(t - r) on a
  slit disk around r, so exp(g) has an algebraic-logarithmic singularity;
* class eF(r, theta, gamma):  g = theta*log(1/(1 - t/r)) + K + g0(t)
  where the coefficients of g0 decay like r^{-n} n^{-1-gamma},
  0 < gamma <= 1 (perturbed weights).

Both give coefficient asymptotics of exp(w*g) via the transfer estimate

    [t^n] exp(w g(t)) = e^{K w} n^{w theta - 1} r^{-n}
                        * (S(r, w) / Gamma(theta w) + O(1/n))

(S = exp(w * (g - log part - K)) evaluated at r; S(r, 1) = 1), and in
particular h_n ~ e^K n^{theta-1} / (r^n Gamma(theta)).  When theta*w is
a nonpositive integer the reciprocal Gamma kills the main term, which
the estimators report as 0 rather than an error.

The catalog constructors classify the families studied here: constant
weights, algebraically perturbed weights, polylogarithmic weights
(g = Li_{1+delta}), stretched-exponential weights exp(c*m^p), and
exponentials of perturbed exponents.  Families falling outside F/eF get
status flags instead of a class and the estimators refuse them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import ConvergenceError, UnsupportedClassError, UsageError
from .measure import WeightSequence
from .series import to_fraction
from .specfun import complex_gamma, reciprocal_gamma, riemann_zeta

STATUS_OK = "ok"
STATUS_UNSUPPORTED = "unsupported"
STATUS_OPEN = "open"
STATUS_ZERO_RADIUS = "zero-radius"
STATUS_ENTIRE = "entire"


@dataclass(frozen=True)
class SingularityClass:
    """F(r, theta) or eF(r, theta, gamma) data with the constant K."""

    kind: str
    r: float
    theta: float
    K: float
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("F", "eF"):
            raise UsageError(f"kind must be 'F' or 'eF', got {self.kind!r}")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise UsageError(f"radius must be finite and > 0, got {self.r}")
        if self.theta < 0:
            raise UsageError(f"log-singularity strength must be >= 0, got {self.theta}")
        if self.kind == "eF":
            if self.gamma is None or not 0 < self.gamma <= 1:
                raise UsageError(f"class eF needs gamma in (0, 1], got {self.gamma}")

    @property
    def main_term_zero(self) -> bool:
        """theta = 0: 1/Gamma(theta) kills the transfer main term of h_n."""
        return self.theta == 0


@dataclass
class WeightFamily:
    """Weights with their classification: a weight sequence or, for exp-poly,
    the per-multiplicity GeneralizedWeights (measure's laws take either)."""

    weights: WeightSequence
    cls: Optional[SingularityClass]
    provenance: str
    status: str = STATUS_OK
    note: str = ""

    def require_class(self) -> SingularityClass:
        if self.cls is None:
            raise UnsupportedClassError(
                f"family {self.provenance} is {self.status}: {self.note or 'no usable singularity class'}")
        return self.cls


# -- catalog ---------------------------------------------------------------


def ewens_family(theta) -> WeightFamily:
    """Constant weights theta_m = theta > 0: class F(1, theta), K = 0."""
    frac = to_fraction(theta)
    if frac <= 0:
        raise UsageError(f"constant weight must be > 0, got {theta}")
    weights = WeightSequence.constant(frac, name=f"ewens({theta})")
    cls = SingularityClass("F", 1.0, float(frac), 0.0)
    return WeightFamily(weights, cls, "ewens")


def theta_shift_family(theta, amp=1, power=2) -> WeightFamily:
    """theta_m = theta + amp/m^power -> class eF(1, theta, min(power, 1)).

    K = sum_m (theta_m - theta)/m = amp * zeta(power + 1).
    """
    theta_f = to_fraction(theta)
    amp_f = to_fraction(amp)
    power_f = float(power)
    if theta_f <= 0:
        raise UsageError(f"limit weight must be > 0, got {theta}")
    # Past 1074 (2^-1074 is the least double) amp/m^power is 0 or overflows
    # for m >= 2, and the exact rule's m**power would not finish.
    if not 0 < power_f <= 1074:
        raise UsageError(f"perturbation power must lie in (0, 1074], got {power}")
    if theta_f + amp_f < 0:
        raise UsageError("theta + amp < 0 makes theta_1 negative")

    p_int = int(power_f)

    def eval_fn(m: int) -> float:
        return float(theta_f) + float(amp_f) / m ** power_f

    exact_fn = (lambda m: theta_f + amp_f / Fraction(m ** p_int)) if power_f == p_int else None

    weights = WeightSequence(eval_fn, name=f"theta-shift({theta},{amp},{power})",
                             exact_fn=exact_fn)
    gamma = min(power_f, 1.0)
    K = float(amp_f) * riemann_zeta(1.0 + power_f, s_minus_1=power_f)
    cls = SingularityClass("eF", 1.0, float(theta_f), K, gamma=gamma)
    return WeightFamily(weights, cls, "theta-shift")


def polylog_family(delta) -> WeightFamily:
    """Polylogarithmic weight family: g(t) = Li_{1+delta}(t).

    The weights are theta_m = m^{-delta} (so theta_m/m = m^{-1-delta}).
    delta = 0 is the constant-1 family; delta > 0 gives a bounded g with
    K = zeta(delta+1) and no log singularity (the transfer main term is
    0); delta < 0 makes g blow up algebraically at 1, outside both
    classes, so estimators refuse it.
    """
    delta_f = float(delta)
    if abs(delta_f) > 1074:  # 2^-1074 is the least double, as for theta-shift
        raise UsageError(f"polylog exponent must lie in [-1074, 1074], got {delta}")
    d_int = int(delta_f)

    if delta_f == 0:
        fam = ewens_family(1)
        return WeightFamily(fam.weights, fam.cls, "polylog")

    def eval_fn(m: int) -> float:
        return float(m) ** (-delta_f)

    exact_fn = (lambda m: Fraction(m) ** -d_int) if delta_f == d_int else None

    weights = WeightSequence(eval_fn, name=f"polylog({delta})", exact_fn=exact_fn)
    if delta_f > 0:
        cls = SingularityClass("F", 1.0, 0.0, riemann_zeta(1.0 + delta_f, s_minus_1=delta_f))
        return WeightFamily(weights, cls, "polylog")
    return WeightFamily(weights, None, "polylog", status=STATUS_UNSUPPORTED,
                        note="g has an algebraic blow-up at 1, outside classes F/eF")


def exp_weight_family(c, theta_exp) -> WeightFamily:
    """Stretched-exponential weights theta_m = exp(c * m^theta_exp).

    Radius of g: 1 for theta_exp < 1, e^{-c} at theta_exp = 1, and 0 or
    infinity for theta_exp > 1 depending on the sign of c.  Supported
    classes: F for theta_exp = 0 and 1, eF(1, 1, min(-theta_exp, 1)) for
    theta_exp < 0; the stretched regimes in between are flagged
    open/unsupported.
    """
    c_f = float(c)
    p_f = float(theta_exp)

    def eval_fn(m: int) -> float:
        return math.exp(c_f * m**p_f)

    weights = WeightSequence(eval_fn, name=f"exp-weight({c},{theta_exp})")

    if c_f == 0.0:
        fam = ewens_family(1)
        return WeightFamily(fam.weights, fam.cls, "exp-weight")

    if p_f > 1.0:
        if c_f > 0:
            return WeightFamily(weights, None, "exp-weight", status=STATUS_ZERO_RADIUS,
                                note="weights grow faster than geometrically; g has radius 0")
        return WeightFamily(weights, None, "exp-weight", status=STATUS_ENTIRE,
                            note="g is entire; no dominant singularity to transfer")

    if p_f == 1.0:
        cls = SingularityClass("F", math.exp(-c_f), 1.0, 0.0)
        return WeightFamily(weights, cls, "exp-weight")

    if p_f == 0.0:
        cls = SingularityClass("F", 1.0, math.exp(c_f), 0.0)
        return WeightFamily(weights, cls, "exp-weight", note="constant weights e^c")

    if p_f < 0.0:
        return WeightFamily(weights, _exp_perturbation_class(1.0, c_f, p_f), "exp-weight")

    # 0 < theta_exp < 1
    if c_f > 0:
        return WeightFamily(weights, None, "exp-weight", status=STATUS_OPEN,
                            note="stretched-exponential growth: asymptotics open")
    return WeightFamily(weights, None, "exp-weight", status=STATUS_UNSUPPORTED,
                        note="g bounded at 1 without log term; transfer not applicable")


def alpha_exp_family(alpha, amp=0.0, power=2.0) -> WeightFamily:
    """theta_m = exp(-alpha_m) with alpha_m = alpha + amp/m^power.

    Constant exponents (amp = 0) give class F(1, e^{-alpha}) with K = 0;
    perturbed exponents give eF(1, e^{-alpha}, min(power,1)) with
    K = sum (e^{-alpha_m} - e^{-alpha})/m, the exp-weight constant with
    c = -amp, p = -power, scaled by e^{-alpha}.
    """
    alpha_f = float(alpha)
    amp_f = float(amp)
    power_f = float(power)
    theta_lim = math.exp(-alpha_f)

    def eval_fn(m: int) -> float:
        # amp = 0 skips m**power, which can underflow to 0 for power < 0
        return math.exp(-(alpha_f + (amp_f / m**power_f if amp_f else 0.0)))

    weights = WeightSequence(eval_fn, name=f"alpha-exp({alpha},{amp},{power})")
    if amp_f == 0.0:
        cls = SingularityClass("F", 1.0, theta_lim, 0.0)
        return WeightFamily(weights, cls, "alpha-exp")
    if power_f <= 0:
        raise UsageError(f"perturbation power must be > 0, got {power}")
    return WeightFamily(weights, _exp_perturbation_class(theta_lim, -amp_f, -power_f),
                        "alpha-exp")


def _exp_perturbation_class(scale: float, c: float, p: float) -> SingularityClass:
    """eF(1, scale, scale*K, min(-p, 1)) for theta_m = scale * exp(c m^p), p < 0.

    K = sum_m (e^{c m^p} - 1)/m.  The terms with c m^p < -4 (m < M) are
    summed one by one, so the rest, sum_{k>=1} c^k/k! zeta(1 - kp, M),
    cancels no worse than e^{-4} = sum_k (-4)^k/k!; for c > 0 it does not
    cancel at all.  ConvergenceError, before any summing, when M > 2^21
    or when rounding 1 - p to a double could cost more than 1e-13 of K.
    """
    log_head = math.log(max(c / -4.0, 1.0)) / -p
    if -p < 2.0**-53 / 1e-13 or log_head > 21 * math.log(2):
        raise ConvergenceError(f"perturbation {c}*m^{p} decays too slowly to sum K")
    head = math.ceil(math.exp(log_head))
    term, tail = 1.0, 0.0
    for k in range(1, 400):
        term *= c / k
        add = term * riemann_zeta(1.0 - k * p, head)
        tail += add
        if abs(add) <= 1e-17 * abs(tail):
            break
    K = math.fsum(math.expm1(c * m**p) / m for m in range(1, head)) + tail
    if not (abs(add) <= 1e-17 * abs(tail) and math.isfinite(K)):
        raise ConvergenceError(f"K for weights exp({c}*m^{p}) did not converge")
    return SingularityClass("eF", 1.0, scale, scale * K, gamma=min(-p, 1.0))


def theta_shift_constant(theta_seq, theta_limit: float, tol: float = 1e-10,
                         max_m: int = 1 << 21) -> float:
    """K = sum_m (theta_m - theta)/m for weights converging to theta.

    Convergence is declared when dyadic blocks of sum |theta_m - theta|/m
    decay geometrically and the extrapolated tail drops below tol;
    otherwise ConvergenceError.  That is raised as soon as the decay ratio
    has stopped falling and, held at its current value, would not bring
    the tail below tol within the blocks left before max_m.
    """
    theta_fn = theta_seq.theta if isinstance(theta_seq, WeightSequence) else theta_seq
    total = 0.0
    block_lo = 1
    prev_block = None
    # Full dyadic blocks only: a truncated final block has an artificially
    # small sum and would fake geometric decay.
    while 2 * block_lo <= max_m + 1:
        block_hi = 2 * block_lo
        signed = 0.0
        tested = 0.0
        for m in range(block_lo, block_hi):
            diff = theta_fn(m) - theta_limit
            signed += diff / m
            tested += abs(diff) / m
        total += signed
        if prev_block is not None and block_lo >= 16:
            if tested <= max(prev_block, 1e-300) * 0.9:
                ratio = tested / prev_block if prev_block > 0 else 0.0
                tail = tested * ratio / (1.0 - ratio) if ratio > 0 else 0.0
                if tail <= tol:
                    return total
                # a falling ratio can still rescue the tail (the decay of
                # large perturbations speeds up), a steady or rising one not
                blocks_left = ((max_m + 1) // block_hi).bit_length() - 1
                if ratio >= prev_ratio and tail * ratio**blocks_left > tol:
                    break
            elif tested <= tol * 1e-3:
                return total
        prev_ratio = tested / prev_block if prev_block else math.inf
        prev_block = tested
        block_lo = block_hi
    raise ConvergenceError(
        f"sum of (theta_m - {theta_limit})/m decays too slowly to converge by m = {max_m}")


# -- coefficient asymptotics ------------------------------------------------


def _near_nonpositive_integer(z: complex, eps: float = 1e-13) -> bool:
    re_round = round(z.real)
    return (abs(z.imag) <= eps and re_round <= 0
            and abs(z.real - re_round) <= eps)


def hwang_estimate(cls: SingularityClass, s_at_r, n: int, w) -> complex:
    """Transfer main term for [t^n] exp(w*g(t)).

        e^{K w} * n^{w theta - 1} * r^{-n} * S(r, w) / Gamma(theta w)

    Returns 0 when theta*w sits on a pole of Gamma (the main term
    genuinely vanishes there and lower-order terms take over).
    """
    if not isinstance(cls, SingularityClass):
        raise UsageError("cls must be a SingularityClass")
    if not (isinstance(n, (int, float)) and n > 0):
        raise UsageError(f"n must be positive, got {n!r}")
    w = complex(w)
    z = cls.theta * w
    if _near_nonpositive_integer(z):
        return 0.0 + 0.0j
    exponent = cls.K * w + (w * cls.theta - 1.0) * math.log(n) - n * math.log(cls.r)
    try:
        scale = cmath.exp(exponent)
    except OverflowError as exc:
        raise UsageError(f"estimate overflows at n={n}, r={cls.r}") from exc
    return scale * complex(s_at_r) * reciprocal_gamma(z)


def asymptotic_hn(cls: SingularityClass, n: int) -> float:
    """Leading term of the normalization: e^K n^{theta-1} / (r^n Gamma(theta))."""
    if not isinstance(cls, SingularityClass):
        raise UsageError("cls must be a SingularityClass")
    if not (isinstance(n, (int, float)) and n > 0):
        raise UsageError(f"n must be positive, got {n!r}")
    if cls.main_term_zero:
        raise UnsupportedClassError(
            "main term vanishes (theta = 0); no leading-order h_n available")
    log_value = cls.K + (cls.theta - 1.0) * math.log(n) - n * math.log(cls.r)
    try:
        return math.exp(log_value) / math.gamma(cls.theta)
    except OverflowError as exc:
        raise UsageError(f"estimate overflows at n={n}, r={cls.r}") from exc


def mod_poisson_limit(theta: float, s: float) -> complex:
    """Limiting function Gamma(theta)/Gamma(theta e^{is}) of the K_n law."""
    if theta <= 0:
        raise UsageError(f"theta must be > 0, got {theta}")
    return complex_gamma(theta) * reciprocal_gamma(theta * cmath.exp(1j * s))


@dataclass(frozen=True)
class LargeDeviationEstimate:
    estimate: float
    t_n: float
    x: float
    rate: float  # Cramer rate I(x) = x log x - x + 1 of the Poisson family
    tilt: float  # conjugate point h = log x


def large_deviation_estimate(theta: float, K: float, n, k: int) -> LargeDeviationEstimate:
    """Sharp large-deviation estimate for P[K_n = k], k ~ x * t_n.

        e^{-t_n} t_n^k / k! * Gamma(theta) / (Gamma(x) Gamma(theta x))

    with t_n = K + theta log n and x = k/t_n.  At x = 1 this collapses
    to the bare Poisson(t_n) mass.  n may be any positive real (so exact
    collapse points can be hit by an e^k surrogate).
    """
    if theta <= 0:
        raise UsageError(f"theta must be > 0, got {theta}")
    if not (isinstance(n, (int, float)) and n > 1):
        raise UsageError(f"n must be > 1, got {n!r}")
    if not isinstance(k, int) or k < 1:
        raise UsageError(f"k must be a positive integer, got {k!r}")
    t_n = K + theta * math.log(n)
    if t_n <= 0:
        raise UsageError(f"t_n = {t_n} must be > 0")
    x = k / t_n
    log_poisson = -t_n + k * math.log(t_n) - math.lgamma(k + 1)
    correction = math.lgamma(theta) - math.lgamma(x) - math.lgamma(theta * x)
    estimate = math.exp(log_poisson + correction)
    rate = x * math.log(x) - x + 1.0
    return LargeDeviationEstimate(estimate, t_n, x, rate, math.log(x))


# -- Lindelof integral continuation ----------------------------------------


# The trapezoid grid of lindelof_eval: z = 1/2 + iy, |y| <= height, spacing step
# (height a multiple of step).
_LINDELOF_HEIGHT = 24.0
_LINDELOF_STEP = 0.0625


@dataclass(frozen=True)
class LindelofResult:
    value: complex
    error_estimate: float


def lindelof_eval(phi: Callable[[complex], complex], t) -> LindelofResult:
    """Analytic continuation of g(t) = sum_k phi(k) (-t)^k by the integral

        g(t) = -(1/2 pi i) * int_{1/2 - i inf}^{1/2 + i inf}
                   phi(z) t^z pi/sin(pi z) dz,

    evaluated by the trapezoid rule on z = 1/2 + iy, |y| <= 24, step 1/16.
    Valid while phi grows slower than e^{pi |z|} against the kernel decay
    2 pi e^{-pi |y|} weighted by e^{|arg t| |y|}; a non-decaying integrand
    raises ConvergenceError.  Returns the value and a truncation +
    discretization error estimate (coarse-grid comparison plus an
    exponential-tail extrapolation).
    """
    if not callable(phi):
        raise UsageError("phi must be callable")
    t = complex(t)
    if t == 0:
        raise UsageError("t must be nonzero")
    if t.real < 0 and t.imag == 0:
        raise UsageError("t on the negative real axis is outside |arg t| < pi")

    log_t = cmath.log(t)
    height, step = _LINDELOF_HEIGHT, _LINDELOF_STEP
    n_steps = round(height / step)

    def integrand(y: float) -> complex:
        z = complex(0.5, y)
        return phi(z) * cmath.exp(z * log_t) * math.pi / cmath.sin(math.pi * z)

    values = [integrand(-height + j * step) for j in range(2 * n_steps + 1)]
    mags = [abs(v) for v in values]
    peak = max(mags)
    end_lo, end_hi = mags[0], mags[-1]
    if peak > 0 and max(end_lo, end_hi) > 1e-6 * peak:
        raise ConvergenceError(
            "integrand has not decayed at the truncation height; reduce |arg t|")

    def trapezoid(vals, h):
        return h * (sum(vals[1:-1]) + 0.5 * (vals[0] + vals[-1]))

    fine = trapezoid(values, step)
    coarse = trapezoid(values[::2], 2 * step)
    value_fine = -fine / (2.0 * math.pi)
    value_coarse = -coarse / (2.0 * math.pi)
    discretization = abs(value_fine - value_coarse)

    # exponential tail extrapolation from the magnitudes at H/2 and H
    mid_mag = mags[len(mags) // 4] or 1e-300
    end_mag = max(end_lo, end_hi)
    tail = 0.0
    if end_mag > 0:
        rate = math.log(mid_mag / end_mag) / (height / 2.0)
        if rate <= 0:
            raise ConvergenceError("integrand magnitude is not decaying along the contour")
        tail = end_mag / rate / math.pi
    return LindelofResult(value_fine, discretization + tail)
