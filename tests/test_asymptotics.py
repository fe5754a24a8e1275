"""Singularity classes, transfer asymptotics, and analytic continuation.

Oracles: zeta closed forms for the K constants, direct series summation
with tail brackets, the exact recurrence for h_n at moderate n, and the
closed form -log(1+t) for the test continuation.
"""

import cmath
import math
from fractions import Fraction

import pytest

from cyclemeter.asymptotics import (LargeDeviationEstimate, LindelofResult,
                                    SingularityClass, WeightFamily, alpha_exp_family,
                                    asymptotic_hn, ewens_family, exp_weight_family,
                                    hwang_estimate, large_deviation_estimate,
                                    lindelof_eval, mod_poisson_limit,
                                    polylog_family, theta_shift_constant,
                                    theta_shift_family)
from cyclemeter.catalog import build_family
from cyclemeter.errors import (ConvergenceError, UnsupportedClassError,
                               UsageError)
from cyclemeter.measure import normalization_constants
from cyclemeter.specfun import complex_gamma, riemann_zeta


# -- family classification ---------------------------------------------------


def test_class_kind_follows_gamma():
    assert SingularityClass(1.0, 2.0, 0.0).kind == "F"
    assert SingularityClass(1.0, 2.0, 0.0, gamma=1.0).kind == "eF"
    with pytest.raises(UsageError):
        SingularityClass(1.0, 2.0, 0.0, gamma=0.0)


@pytest.mark.parametrize("args, message", [
    ((0.0, 1.0, 0.0), "radius must be finite and > 0, got 0.0"),
    ((math.inf, 1.0, 0.0), "radius must be finite and > 0, got inf"),
    ((1.0, -1.0, 0.0), "log-singularity strength must be >= 0, got -1.0"),
    ((1.0, 1.0, 0.0, 1.5), r"class eF needs gamma in \(0, 1\], got 1.5"),
])
def test_class_validation_messages(args, message):
    with pytest.raises(UsageError, match=f"^{message}$"):
        SingularityClass(*args)


def test_class_is_an_immutable_value():
    cls = SingularityClass(1.0, 2.0, 0.5)
    assert (cls.r, cls.theta, cls.K, cls.gamma) == (1.0, 2.0, 0.5, None)
    assert cls == SingularityClass(r=1.0, theta=2.0, K=0.5)
    assert cls != SingularityClass(1.0, 2.0, 0.5, gamma=1.0)
    assert hash(cls) == hash(SingularityClass(1.0, 2.0, 0.5))
    assert repr(cls) == "SingularityClass(r=1.0, theta=2.0, K=0.5, gamma=None)"
    for name in ("r", "theta", "K", "gamma", "other"):
        with pytest.raises(AttributeError):
            setattr(cls, name, 3.0)


def test_result_records_are_immutable_values():
    est = large_deviation_estimate(1.0, 0.0, 100, 5)
    assert est == LargeDeviationEstimate(est.estimate, est.t_n, est.x, est.rate, est.tilt)
    assert hash(LindelofResult(1j, 0.5)) == hash(LindelofResult(1j, 0.5))
    for obj, name in ((est, "rate"), (LindelofResult(1j, 0.5), "value")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)


def test_weight_family_reads_its_regime_once_and_keeps_the_outcome():
    fam = ewens_family(2)
    calls = []

    def regime():
        calls.append(1)
        return fam.cls

    same = WeightFamily(fam.weights, "ewens", regime)
    assert (same.weights, same.provenance) == (fam.weights, "ewens")
    assert calls == []  # nothing runs until the class is read
    assert same.cls is same.cls is fam.cls
    assert calls == [1]
    bare = WeightFamily(fam.weights, "x", lambda: calls.append(2) or "why")
    for _ in range(2):
        with pytest.raises(UnsupportedClassError, match="^why$"):
            bare.cls
    failing = WeightFamily(fam.weights, "x", lambda: calls.append(3) or 1 / 0)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            failing.cls
    huge = WeightFamily(fam.weights, "x", lambda: calls.append(4) or math.exp(1000))
    for _ in range(2):
        with pytest.raises(UsageError, match="^family x overflows a double at these parameters$"):
            huge.cls
    assert calls == [1, 2, 3, 4]
    same.provenance = "changed"
    assert same.provenance == "changed"


# (r, theta, K, gamma) of every catalog kind, bit for bit (float.hex)
@pytest.mark.parametrize("kind, params, data", [
    ("ewens", {"theta": "3/2"}, ("0x1.0000000000000p+0", "0x1.8000000000000p+0",
                                 "0x0.0p+0", None)),
    ("theta-shift", {"theta": "1", "amp": "1", "power": "2"},
     ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.33ba004f0061fp+0",
      "0x1.0000000000000p+0")),
    ("theta-shift", {"theta": "1", "amp": "3", "power": "1/2"},
     ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f593791f9c4eep+2",
      "0x1.0000000000000p-1")),
    ("polylog", {"delta": "1"}, ("0x1.0000000000000p+0", "0x0.0p+0",
                                 "0x1.a51a6625307d4p+0", None)),
    ("polylog", {"delta": "0"}, ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                                 "0x0.0p+0", None)),
    ("exp-weight", {"c": "0.7", "theta_exp": "1"},
     ("0x1.fc80db9dd5542p-2", "0x1.0000000000000p+0", "0x0.0p+0", None)),
    ("exp-weight", {"c": "0.3", "theta_exp": "0"},
     ("0x1.0000000000000p+0", "0x1.599058c8c1a96p+0", "0x0.0p+0", None)),
    ("exp-weight", {"c": "-1", "theta_exp": "-1/2"},
     ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.f8b2a9639b76ep+0",
      "0x1.0000000000000p-1")),
    ("alpha-exp", {"alpha": "1/2"}, ("0x1.0000000000000p+0", "0x1.368b2fc6f960ap-1",
                                     "0x0.0p+0", None)),
    ("alpha-exp", {"alpha": "1/2", "amp": "1", "power": "2"},
     ("0x1.0000000000000p+0", "0x1.368b2fc6f960ap-1", "-0x1.fb71b5b01e7e8p-2",
      "0x1.0000000000000p+0")),
    ("spatial", {"eps": "0.5,1"}, ("0x1.a61298e1e069cp+0", "0x1.0000000000000p+0",
                                   "0x1.dd91afe787e66p-1", None)),
    ("exp-poly", {"theta": "1", "b2": "1/4"}, ("0x1.0000000000000p+0",
                                               "0x1.0000000000000p+0",
                                               "0x1.a51a6625307d4p-2", None)),
])
def test_class_data_is_pinned_bit_for_bit(kind, params, data):
    cls = build_family(kind, params).cls
    assert tuple(None if v is None else float.hex(v) for v in cls) == data


def test_ewens_class():
    fam = ewens_family(Fraction(3, 2))
    assert fam.cls.kind == "F"
    assert fam.cls.r == 1.0
    assert fam.cls.theta == 1.5
    assert fam.cls.K == 0.0


def test_theta_shift_class_and_constant():
    fam = theta_shift_family(2, amp=1, power=2)
    assert fam.cls.kind == "eF"
    assert fam.cls.gamma == 1.0
    assert fam.cls.K == pytest.approx(riemann_zeta(3), rel=1e-14)
    slow = theta_shift_family(1, amp=3, power=0.5)
    assert slow.cls.gamma == 0.5
    assert slow.cls.K == pytest.approx(3 * riemann_zeta(1.5), rel=1e-14)


def test_polylog_classification():
    pos = polylog_family(1)
    assert pos.cls.theta == 0.0
    assert pos.cls.K == pytest.approx(riemann_zeta(2), rel=1e-14)
    neg = polylog_family(-0.5)
    with pytest.raises(UnsupportedClassError, match="algebraic blow-up"):
        neg.cls
    zero = polylog_family(0)
    assert zero.cls.theta == 1.0


def test_exp_weight_regimes():
    reasons = set()
    for c, p, word in ((1.0, 2.0, "radius 0"), (-1.0, 2.0, "entire"),
                       (1.0, 0.5, "open"), (-1.0, 0.5, "not applicable")):
        with pytest.raises(UnsupportedClassError, match=word) as refusal:
            exp_weight_family(c, p).cls
        reasons.add(str(refusal.value))
    assert len(reasons) == 4
    pole = exp_weight_family(0.7, 1.0)
    assert pole.cls.r == pytest.approx(math.exp(-0.7), rel=1e-15)
    assert pole.cls.theta == 1.0
    flat = exp_weight_family(0.3, 0.0)
    assert flat.cls.theta == pytest.approx(math.exp(0.3), rel=1e-15)


def test_exp_weight_negative_power_constant():
    # theta_m = exp(c m^p) with p < 0: K = sum_m (theta_m - 1)/m, summed
    # directly with an integral tail bracket as the oracle.
    fam = exp_weight_family(1.0, -1.0)
    assert (fam.cls.kind, fam.cls.theta, fam.cls.gamma) == ("eF", 1.0, 1.0)
    assert exp_weight_family(1.0, -0.5).cls.gamma == 0.5
    direct = sum((math.exp(1.0 / m) - 1.0) / m for m in range(1, 200001))
    tail_hi = 1.2 / 200000  # (e^{1/m}-1)/m <= 1.2/m^2 beyond m = 2e5
    assert direct <= fam.cls.K <= direct + tail_hi


@pytest.mark.parametrize("c", [-100.0, -40.0, -5.0, -1.0, 1.0, 30.0])
@pytest.mark.parametrize("p", [-0.5, -1.0, -2.0, -3.0])
def test_exp_weight_constant_does_not_depend_on_the_split(c, p):
    # The first 4000 terms summed one by one and the zeta series from 4000
    # on, where |c m^p| is at most 1.6: the class splits elsewhere.
    N = 4000
    head = math.fsum(math.expm1(c * m**p) / m for m in range(1, N))
    term, tail = 1.0, 0.0
    for k in range(1, 60):
        term *= c / k
        tail += term * riemann_zeta(1.0 - k * p, N)
    K = exp_weight_family(c, p).cls.K
    assert K == pytest.approx(head + tail, rel=1e-13, abs=0)


def test_slow_exp_perturbations_are_refused():
    # A head of about 6e10 terms, and a power too small for 1 - p to carry
    # K to double accuracy.  The families build; reading the class refuses.
    for fam in (alpha_exp_family(0.5, amp=1e6, power=0.5), exp_weight_family(-1.0, -1e-4)):
        with pytest.raises(ConvergenceError):
            fam.cls


def test_alpha_exp_families():
    flat = alpha_exp_family(0.5)
    assert flat.cls.kind == "F"
    assert flat.cls.theta == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert flat.cls.K == 0.0
    bent = alpha_exp_family(0.5, amp=1.0, power=2.0)
    assert bent.cls.kind == "eF"
    direct = sum((math.exp(-0.5 - 1.0 / m**2) - math.exp(-0.5)) / m
                 for m in range(1, 100001))
    assert bent.cls.K == pytest.approx(direct, abs=1e-8)


# -- limit constant estimation from the raw sequence -------------------------


def test_theta_shift_constant_recovers_zeta():
    K = theta_shift_constant(lambda m: 2.0 + 1.0 / m**2, 2.0)
    assert K == pytest.approx(riemann_zeta(3), abs=1e-9)


def test_theta_shift_constant_rejects_slow_decay():
    with pytest.raises(ConvergenceError):
        theta_shift_constant(lambda m: 1.0 + 1.0 / math.log(m + 2), 1.0)


# -- transfer asymptotics ----------------------------------------------------


def test_asymptotic_matches_recurrence_ewens():
    fam = ewens_family(2)
    h = normalization_constants(fam.weights, 100, backend="double")
    # h_n = n + 1 while the transfer main term is n; the relative error
    # against the true value is exactly 1/(n+1).
    rel = abs(h[100] - asymptotic_hn(fam.cls, 100)) / h[100]
    assert rel == pytest.approx(1 / 101, abs=1e-12)


def test_asymptotic_matches_recurrence_perturbed():
    fam = theta_shift_family(1, amp=1, power=2)
    h = normalization_constants(fam.weights, 3000, backend="double")
    ratio = h[3000] / asymptotic_hn(fam.cls, 3000)
    assert abs(ratio - 1) <= 0.01


def test_hwang_estimate_reduces_to_hn_at_unit_argument():
    fam = ewens_family(3)
    est = hwang_estimate(fam.cls, 1.0, 500, 1.0)
    assert est == pytest.approx(asymptotic_hn(fam.cls, 500), rel=1e-12)


def test_hwang_estimate_vanishes_at_gamma_poles():
    fam = ewens_family(1)
    assert hwang_estimate(fam.cls, 1.0, 100, -1.0) == 0.0
    assert hwang_estimate(fam.cls, 1.0, 100, 0.0) == 0.0


def test_asymptotic_refuses_degenerate_classes():
    with pytest.raises(UnsupportedClassError):
        asymptotic_hn(polylog_family(1).cls, 50)


# -- mod-Poisson limit function ----------------------------------------------


def test_mod_poisson_limit_values():
    assert mod_poisson_limit(1.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    theta, s = 2.0, 0.7
    ref = complex_gamma(theta) / complex_gamma(theta * cmath.exp(1j * s))
    assert mod_poisson_limit(theta, s) == pytest.approx(ref, rel=1e-13)


def test_mod_poisson_limit_continuous_at_gamma_pole():
    # theta e^{is} = -1 at theta = 1, s = pi; 1/Gamma has a zero there.
    value = mod_poisson_limit(1.0, math.pi)
    assert abs(value) <= 1e-12


def test_mod_poisson_limit_overflow_is_a_usage_error():
    # both Gamma factors are finite at theta = 140, s = 2; their product is not
    with pytest.raises(UsageError, match=r"overflows at theta=140, s=2"):
        mod_poisson_limit(140, 2)


# -- large deviations --------------------------------------------------------


def test_large_deviation_exact_poisson_collapse():
    # x = 1 when t_n = k; the estimate must then be the Poisson pmf.
    k = 12
    res = large_deviation_estimate(1.0, 0.0, math.exp(k), k)
    ref = math.exp(-k) * k**k / math.gamma(k + 1)
    assert res.x == pytest.approx(1.0, abs=0)
    assert res.estimate == pytest.approx(ref, rel=1e-13)
    assert res.rate == pytest.approx(0.0, abs=1e-15)
    assert res.tilt == pytest.approx(0.0, abs=1e-15)


def test_large_deviation_rate_and_tilt():
    res = large_deviation_estimate(2.0, 0.5, 1000.0, 40)
    x = 40 / (0.5 + 2.0 * math.log(1000.0))
    assert res.x == pytest.approx(x, rel=1e-14)
    assert res.rate == pytest.approx(x * math.log(x) - x + 1, rel=1e-12)
    assert res.tilt == pytest.approx(math.log(x), rel=1e-12)


def test_large_deviation_validation():
    with pytest.raises(UsageError):
        large_deviation_estimate(1.0, 0.0, 100.0, 0)
    with pytest.raises(UsageError):
        large_deviation_estimate(1.0, 0.0, 1.0, 5)


# -- Lindelof continuation ---------------------------------------------------


def test_lindelof_continues_log():
    # phi(k) = 1/k resums sum (-t)^k/k = -log(1+t) beyond |t| < 1.
    for t in (0.5, 3.0, 10 * cmath.exp(1j * math.pi / 4)):
        res = lindelof_eval(lambda z: 1 / z, t)
        assert abs(res.value + cmath.log(1 + t)) <= 1e-8
        assert res.error_estimate <= 1e-6


def test_lindelof_rejects_branch_cut():
    with pytest.raises(UsageError):
        lindelof_eval(lambda z: 1 / z, -2.0)


def test_lindelof_flags_non_decaying_integrand():
    # |exp(-4iz)| grows like e^{4|y|}, beating the kernel decay e^{-pi|y|}.
    with pytest.raises(ConvergenceError):
        lindelof_eval(lambda z: cmath.exp(-4j * z), 1.0)
