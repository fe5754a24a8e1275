"""Special functions needed by the asymptotic estimates.

Only what the estimators actually use, implemented directly:

* complex_gamma      -- Lanczos approximation (g = 7, 9 coefficients)
                        with the reflection formula for Re z < 1/2;
                        ~1e-13 relative accuracy on moderate arguments.
* reciprocal_gamma   -- 1/Gamma extended by 0 at the poles, which is the
                        value the coefficient asymptotics actually need.
* riemann_zeta       -- zeta(s) and its tails sum_{k >= start} k^{-s},
                        Euler-Maclaurin with four Bernoulli corrections
                        for real s > 1, which may be given as 1 + p.
* poisson_log_pmf / poisson_pmf / normal_cdf -- reference laws.
"""

from __future__ import annotations

import cmath
import math

from .errors import GammaPoleError, UsageError

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def complex_gamma(z) -> complex:
    """Gamma on the complex plane; raises GammaPoleError at 0, -1, -2, ..."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"Gamma pole at {z}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    w = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (w + 0.5) * cmath.exp(-t) * acc


def reciprocal_gamma(z) -> complex:
    """1/Gamma(z), entire: 0 at the poles of Gamma."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        return 0.0 + 0.0j
    return 1.0 / complex_gamma(z)


# Bernoulli numbers B_2, B_4, B_6, B_8 for the Euler-Maclaurin tail.
_BERNOULLI = (
    (2, 1.0 / 6.0),
    (4, -1.0 / 30.0),
    (6, 1.0 / 42.0),
    (8, -1.0 / 30.0),
)
_ZETA_CUTOFF = 30


def riemann_zeta(s: float, start: int = 1, s_minus_1=None) -> float:
    """sum_{k >= start} k^{-s} for real s > 1 (zeta(s) at start = 1), by
    Euler-Maclaurin at cutoff M = start + 29.

    The first omitted correction is of order M^{-s-9}, below 1e-13 of the
    sum throughout s > 1.  Near s = 1 the sum is about 1/(s - 1), so pass
    s_minus_1 = p with s = 1 + p: rounding 1 + p first would cost up to
    1e-16/p relative.
    """
    s = float(s)
    p = s - 1.0 if s_minus_1 is None else float(s_minus_1)
    if not p > 0.0:
        raise UsageError(f"riemann_zeta needs real s > 1, got {s}")
    if not (isinstance(start, int) and start >= 1):
        raise UsageError(f"riemann_zeta needs an integer start >= 1, got {start!r}")
    m_cut = start + _ZETA_CUTOFF - 1
    total = sum(k ** (-s) for k in range(start, m_cut))
    total += m_cut ** (-p) / p
    total += 0.5 * m_cut ** (-s)
    for order, bern in _BERNOULLI:
        # (s)(s+1)...(s+order-2) / order!  *  B_order * M^{-s-order+1}
        rising = 1.0
        for i in range(order - 1):
            rising *= s + i
        total += bern / math.factorial(order) * rising * m_cut ** (-s - order + 1.0)
    if not math.isfinite(total):
        raise UsageError(f"zeta(1 + {p}) overflows a double")
    return total


def poisson_log_pmf(lam: float, k: int) -> float:
    if lam <= 0:
        raise UsageError(f"Poisson intensity must be > 0, got {lam}")
    if k < 0:
        return -math.inf
    return -lam + k * math.log(lam) - math.lgamma(k + 1)


def poisson_pmf(lam: float, k: int) -> float:
    value = poisson_log_pmf(lam, k)
    return 0.0 if value == -math.inf else math.exp(value)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
