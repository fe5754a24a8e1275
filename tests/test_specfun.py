"""Special functions.

Oracles: scipy.special for the complex gamma function (an independent
implementation), classical closed forms (Gamma(1/2), zeta(2), zeta(4)),
and two-sided integral brackets for zeta at odd arguments.
"""

import cmath
import math
from fractions import Fraction

import pytest
from scipy import special

from cyclemeter.errors import GammaPoleError, UsageError
from cyclemeter.asymptotics import polylog_family, theta_shift_family
from cyclemeter.specfun import (complex_gamma, normal_cdf, poisson_pmf,
                                reciprocal_gamma, riemann_zeta)

GRID = [0.1, 0.5, 1.0, 2.5, 7.0, -0.5, -2.3,
        1 + 1j, 2 + 3j, 0.5 - 4j, -1.5 + 0.5j, 6 - 2j,
        150 + 1j, 150 * cmath.exp(0.5j)]  # t^(z - 1/2) alone overflows there


def test_gamma_matches_scipy():
    for z in GRID:
        mine = complex_gamma(z)
        ref = special.gamma(z)
        assert abs(mine - ref) <= 1e-12 * abs(ref)


def test_gamma_recurrence():
    for z in GRID:
        lhs = complex_gamma(z + 1)
        rhs = z * complex_gamma(z)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_gamma_reflection():
    for z in (0.3, 0.5 + 2j, -0.7 + 1j, 1.2 - 0.4j):
        prod = complex_gamma(z) * complex_gamma(1 - z)
        ref = cmath.pi / cmath.sin(cmath.pi * z)
        assert abs(prod - ref) <= 1e-12 * abs(ref)


def test_gamma_closed_forms():
    assert abs(complex_gamma(0.5) - math.sqrt(math.pi)) <= 1e-14
    assert abs(complex_gamma(5) - 24) <= 1e-13
    assert abs(complex_gamma(-0.5) + 2 * math.sqrt(math.pi)) <= 1e-13


@pytest.mark.parametrize("z", [150, 160, 171])
def test_gamma_is_finite_wherever_gamma_is(z):
    # finite up to z ~ 171.6, where Gamma itself overflows a double
    assert abs(complex_gamma(z) / math.gamma(z) - 1) <= 1e-13


@pytest.mark.parametrize("z", [172, 1000, 172 + 1j, 171.7 + 0.1j])
def test_gamma_overflow_is_a_usage_error(z):
    with pytest.raises(UsageError, match="overflows a double"):
        complex_gamma(z)


def test_gamma_poles():
    for z in (0, -1, -5):
        with pytest.raises(GammaPoleError):
            complex_gamma(z)
        assert reciprocal_gamma(z) == 0


def test_reciprocal_gamma_regular_points():
    for z in GRID:
        assert abs(reciprocal_gamma(z) * complex_gamma(z) - 1) <= 1e-12


def test_zeta_closed_forms():
    assert abs(riemann_zeta(2) - math.pi**2 / 6) <= 1e-12
    assert abs(riemann_zeta(4) - math.pi**4 / 90) <= 1e-12


def zeta_bracket(s, terms):
    # sum_{k<=N} k^{-s} + integral bounds on the tail:
    # int_{N+1}^inf x^-s dx <= tail <= int_N^inf x^-s dx.
    partial = sum(k ** (-s) for k in range(1, terms + 1))
    lo = partial + (terms + 1) ** (1 - s) / (s - 1)
    hi = partial + terms ** (1 - s) / (s - 1)
    return lo, hi


def test_zeta_inside_integral_bracket():
    # A few ulps of slack: at large s the bracket is tighter than the
    # resolution of a double.
    for s in (3.0, 10.0, 1.5):
        lo, hi = zeta_bracket(s, 400)
        value = riemann_zeta(s)
        slack = 5e-15 * abs(value)
        assert lo - slack <= value <= hi + slack


def test_zeta_tail_from_start():
    # sum_{k >= start} k^{-s} is zeta(s) less its first terms while those
    # are few, and inside the integral bracket of the tail alone for a
    # late start, where the difference would cancel.
    for s in (1.5, 2.0, 3.0):
        head = sum(k ** (-s) for k in range(1, 4))
        assert riemann_zeta(s, start=4) == pytest.approx(riemann_zeta(s) - head, rel=1e-13)
    for s, start in ((1.5, 1000), (17.0, 100), (41.0, 30)):
        value = riemann_zeta(s, start)
        lo = sum(k ** (-s) for k in range(start, start + 400)) + (start + 400) ** (1 - s) / (s - 1)
        hi = lo + (start + 399) ** (-s)
        assert lo * (1 - 5e-15) <= value <= hi * (1 + 5e-15)
    with pytest.raises(UsageError):
        riemann_zeta(2.0, start=0)


def test_zeta_requires_s_above_one():
    with pytest.raises(UsageError):
        riemann_zeta(1.0)


# zeta(1 + p) for the double p, from mpmath.zeta at 50 digits.
@pytest.mark.parametrize("p, ref", [
    (1e-10, 10000000000.57721530058684),
    (1e-6, 1000000.577215737762625387),
    (1e-3, 1000.577288475901471915362),
    (0.05, 20.58084430203700148031842),
])
def test_zeta_one_plus_small_p(p, ref):
    # Rounding 1 + p first would cost up to 1e-16/p relative (8e-8 at
    # p = 1e-10); both classes whose K is zeta(1 + p) pass s = 1 + p exactly.
    assert riemann_zeta(1 + Fraction(p)) == pytest.approx(ref, rel=1e-14, abs=0)
    assert theta_shift_family(1, 1, p).cls.K == pytest.approx(ref, rel=1e-14, abs=0)
    assert polylog_family(p).cls.K == pytest.approx(ref, rel=1e-14, abs=0)


def test_zeta_one_plus_refuses_overflow():
    for p in (5e-324, 0.0):
        with pytest.raises(UsageError):
            riemann_zeta(1 + Fraction(p))


def test_poisson_pmf_normalizes():
    lam = 3.7
    total = sum(poisson_pmf(lam, k) for k in range(80))
    assert total == pytest.approx(1.0, abs=1e-14)
    assert poisson_pmf(lam, 0) == pytest.approx(math.exp(-lam), rel=1e-14)


def test_normal_cdf_values():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=0)
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    for x in (-2.0, -0.3, 0.7, 3.1):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)
