"""Acceptance gate: thirteen end-to-end checks at desk scale.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Each test states its tolerance inline; brute-force
oracles come from the partition enumeration, which shares nothing with
the generating-function engine beyond the weight sequences themselves.
"""

import math
import time
from fractions import Fraction

import pytest

from cyclemeter.asymptotics import (asymptotic_hn, ewens_family,
                                    large_deviation_estimate, lindelof_eval,
                                    polylog_family, theta_shift_family)
from cyclemeter.diagnostics import (K_TAIL, clt_report, d_K, d_loc,
                                    mod_poisson_report, poisson_vector_report,
                                    truncated_poisson)
from cyclemeter.generalized import (GeneralizedWeights, SpatialModel,
                                    exp_polynomial_log_series,
                                    exp_polynomial_weights,
                                    generalized_joint_cycle_pmf,
                                    generalized_normalization,
                                    generalized_total_cycles_pmf, spatial_F,
                                    spatial_effective_weights)
from cyclemeter.measure import (joint_cycle_pmf, normalization_constants,
                                sample_cycle_type, total_cycles_pmf,
                                total_cycles_pmf_many)
from cyclemeter.partitions import (brute_force_cycle_type_pmf,
                                   brute_force_generalized_cycle_type_pmf,
                                   brute_force_generalized_k_pmf,
                                   brute_force_generalized_normalization,
                                   brute_force_k_pmf,
                                   brute_force_normalization)
from cyclemeter.series import ts_exp
from cyclemeter.specfun import complex_gamma, riemann_zeta

GRID_N = (100, 300, 1000, 3000)


@pytest.fixture(scope="module")
def unit_weight_k_laws():
    # One bivariate recurrence at n = 3000 serves every row of the grid;
    # shared by the Poisson-approximation and large-deviation criteria.
    # The laws stop where at most K_TAIL of mass is left, as in the
    # reports; d_loc and d_K add that bound back.
    fam = ewens_family(1)
    return total_cycles_pmf_many(fam.weights, list(GRID_N), "double", max_tail=K_TAIL)


def spatial_two_point():
    return SpatialModel([1, Fraction(1, 2)])


def acceptance_families():
    shift = theta_shift_family(1, amp=1, power=2)
    yield "ewens-1/2", ewens_family(Fraction(1, 2)).weights
    yield "ewens-1", ewens_family(1).weights
    yield "ewens-2", ewens_family(2).weights
    yield "ewens-3", ewens_family(3).weights
    yield "shift-1+1/m^2", shift.weights
    yield "polylog--1/2", polylog_family(Fraction(-1, 2)).weights
    yield "polylog-1", polylog_family(1).weights
    yield "spatial-1+2^-m", spatial_effective_weights(spatial_two_point())


def test_criterion_01_normalization_equals_partition_sum_exactly():
    # Exact rational equality between the recurrence and the sum over
    # all partitions, for every catalog family, at n up to 40.
    checkpoints = list(range(1, 11)) + [25, 40]
    for label, weights in acceptance_families():
        h = normalization_constants(weights, 40)
        for n in checkpoints:
            assert h[n] == brute_force_normalization(weights, n), (label, n)


def test_criterion_02_distributions_match_brute_force_exactly():
    # Joint cycle counts (b <= 3) and the total cycle count agree with
    # the partition oracle, exactly, for weighted and generalized
    # measures at n <= 12.
    shift = theta_shift_family(1, amp=1, power=2).weights

    def project(type_pmf, b):
        out = {}
        for lam, p in type_pmf.items():
            key = tuple(lam.parts.count(m) for m in range(1, b + 1))
            out[key] = out.get(key, 0) + p
        return out

    type_pmf, _ = brute_force_cycle_type_pmf(shift, 12)
    for b in (1, 2, 3):
        mine = joint_cycle_pmf(shift, 12, b)
        ref = project(type_pmf, b)
        for key in mine.support():
            assert mine[key] == ref.get(key, 0), (b, key)
    assert (dict(total_cycles_pmf(shift, 12).items())
            == dict(brute_force_k_pmf(shift, 12).items()))

    half = ewens_family(Fraction(1, 2)).weights
    assert (dict(total_cycles_pmf(half, 10).items())
            == dict(brute_force_k_pmf(half, 10).items()))

    fw = exp_polynomial_weights(1, {2: 1})
    assert (dict(generalized_total_cycles_pmf(fw, 10).items())
            == dict(brute_force_generalized_k_pmf(fw, 10).items()))
    assert (generalized_normalization(fw, 10)[10]
            == brute_force_generalized_normalization(fw, 10))
    joint = generalized_joint_cycle_pmf(fw, 10, 2)
    gen_types, _ = brute_force_generalized_cycle_type_pmf(fw, 10)
    gen_ref = project(gen_types, 2)
    for key in joint.support():
        assert joint[key] == gen_ref.get(key, 0), key

    spatial = spatial_effective_weights(spatial_two_point())
    assert (dict(total_cycles_pmf(spatial, 12).items())
            == dict(brute_force_k_pmf(spatial, 12).items()))


def test_criterion_03_recurrence_consistency():
    # n h_n = sum_{k<=n} theta_k h_{n-k}: exact rationals to n = 200,
    # then doubles to n = 4000 within 1e-10 relative.
    shift = theta_shift_family(1, amp=1, power=2).weights
    h = normalization_constants(shift, 200)
    for n in range(1, 201):
        rhs = sum(shift.theta_exact(k) * h[n - k] for k in range(n, 0, -1))
        assert n * h[n] == rhs, n

    half = ewens_family(Fraction(1, 2)).weights
    hd = normalization_constants(half, 4000, backend="double")
    for n in (1, 2, 17, 300, 1999, 4000):
        rhs = math.fsum(half.theta(k) * hd[n - k] for k in range(n, 0, -1))
        assert abs(n * hd[n] - rhs) <= 1e-10 * abs(n * hd[n]), n


def test_criterion_04_asymptotic_normalization_accuracy():
    # Ewens theta = 2: h_n = n+1 vs main term n; relative error at
    # n = 100 is exactly 1/101 (to 1e-12).  Other thetas: within 5% at
    # n = 2000 and strictly closer at n = 4000.
    two = ewens_family(2)
    h2 = normalization_constants(two.weights, 100, backend="double")
    rel = abs(h2[100] - asymptotic_hn(two.cls, 100)) / h2[100]
    assert abs(rel - 1 / 101) <= 1e-12

    for theta in (Fraction(1, 2), 3):
        fam = ewens_family(theta)
        h = normalization_constants(fam.weights, 4000, backend="double")
        gap_2000 = abs(h[2000] / asymptotic_hn(fam.cls, 2000) - 1)
        gap_4000 = abs(h[4000] / asymptotic_hn(fam.cls, 4000) - 1)
        assert gap_2000 <= 0.05, theta
        assert gap_4000 < gap_2000, theta


def test_criterion_05_poisson_vector_convergence():
    # (C_1, C_2) under Ewens theta = 2 vs the independent Poisson pair:
    # total variation decreasing along the grid, log-log slope <= -0.8.
    fam = ewens_family(2)
    tv_monotone = poisson_vector_report(fam, 2, [25, 50, 100, 200, 400])[0]
    assert all(b < a for a, b in zip(tv_monotone.values, tv_monotone.values[1:]))
    tv_slope = poisson_vector_report(fam, 2, [50, 100, 200, 400, 800])[0]
    assert tv_slope.fitted_slope is not None
    assert tv_slope.fitted_slope <= -0.8


def test_criterion_06_mod_poisson_residual_decay():
    # sup_s |e^{lambda_n(1-e^{is})} E[e^{is K_n}] - Gamma limit| drops by
    # at least the factor 0.55 from n = 100 to n = 400; at s = 0 the
    # residual is zero to 1e-12.
    fam = ewens_family(2)
    s_grid = [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]
    primary = mod_poisson_report(fam, [100, 400], s_grid)[0]
    assert primary.values[1] <= 0.55 * primary.values[0]
    at_zero = mod_poisson_report(fam, [400], [0.0])[0]
    assert at_zero.values[0] <= 1e-12


def test_criterion_07_clt_kolmogorov_distance():
    # (K_n - theta log n) / sqrt(theta log n) vs the standard normal:
    # d_K below 0.2 at n = 1000 and smaller than at n = 100.
    fam = ewens_family(1)
    primary = clt_report(fam, [100, 1000])[0]
    assert primary.label == "normalization=sqrt(theta*log n)"
    d100, d1000 = primary.values
    assert d1000 < 0.2
    assert d1000 < d100


def test_criterion_08_poisson_approximation_rates(unit_weight_k_laws):
    # K_n under theta = 1 vs Poisson(log n): d_loc * log n and
    # d_K * sqrt(log n) stay below frozen constants on the grid and do
    # not grow (last <= 1.1 * first).  Ceilings 0.30 and 0.35 were
    # frozen from measured maxima 0.250 and 0.295 at n = 100.
    scaled_loc = []
    scaled_kol = []
    for n in GRID_N:
        law = unit_weight_k_laws[n]
        target = truncated_poisson(math.log(n))
        scaled_loc.append(d_loc(law, target) * math.log(n))
        scaled_kol.append(d_K(law, target) * math.sqrt(math.log(n)))
    assert max(scaled_loc) <= 0.30
    assert max(scaled_kol) <= 0.35
    assert scaled_loc[-1] <= 1.1 * scaled_loc[0]
    assert scaled_kol[-1] <= 1.1 * scaled_kol[0]


def test_criterion_09_large_deviation_estimate(unit_weight_k_laws):
    # At n = 3000, k = round(mean + 3 sd): the tilted-Poisson estimate is
    # within 25% of the exact point mass.  At x = 1 the estimate
    # collapses to the Poisson pmf at machine precision.
    law = unit_weight_k_laws[3000]
    mean = law.mean()
    sd = math.sqrt(law.variance())
    k = round(mean + 3 * sd)
    exact = law[k]
    est = large_deviation_estimate(1.0, 0.0, 3000, k).estimate
    assert exact > 0
    assert abs(est - exact) <= 0.25 * exact

    k0 = 12
    collapse = large_deviation_estimate(1.0, 0.0, math.exp(k0), k0)
    poisson_ref = math.exp(-k0) * k0**k0 / math.gamma(k0 + 1)
    assert collapse.x == 1.0
    assert abs(collapse.estimate - poisson_ref) <= 1e-13 * poisson_ref


def test_criterion_10_sampler_goodness_of_fit():
    # 1e5 cycle types at n = 8 under Ewens theta = 2: chi-square
    # p-value above 1e-3, byte-identical repeat under the same seed,
    # finished within 30 seconds.
    from scipy import stats

    fam = ewens_family(2)
    start = time.monotonic()
    draws = sample_cycle_type(fam.weights, 8, seed=20260817, count=100000)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0

    again = sample_cycle_type(fam.weights, 8, seed=20260817, count=100000)
    assert draws == again

    observed = {}
    for lam in draws:
        observed[lam.parts] = observed.get(lam.parts, 0) + 1
    type_pmf, _ = brute_force_cycle_type_pmf(fam.weights, 8)
    keys = sorted(lam.parts for lam in type_pmf.support())
    expected = []
    for key in keys:
        mass = [p for lam, p in type_pmf.items() if lam.parts == key][0]
        expected.append(float(mass) * len(draws))
    result = stats.chisquare([observed.get(k, 0) for k in keys], expected)
    assert result.pvalue > 1e-3


def test_criterion_11_lindelof_continuation():
    # phi(k) = 1/k: the contour integral reproduces -log(1+t) to 1e-8
    # well outside the unit disk of the defining series.
    import cmath

    for t in (0.5, 3.0, 10 * cmath.exp(1j * math.pi / 4)):
        res = lindelof_eval(lambda z: 1 / z, t)
        assert abs(res.value + cmath.log(1 + t)) <= 1e-8, t


def test_criterion_12_special_function_identities():
    # Gamma recurrence and reflection at 1e-12 on a mixed grid; zeta(2)
    # equals pi^2/6 to 1e-10.
    import cmath

    grid = [0.2, 0.9, 1.7, 4.3, -1.3, 0.5 + 1j, 2 + 3j, -0.5 - 2j, 3.5 - 1j]
    for z in grid:
        lhs = complex_gamma(z + 1)
        assert abs(lhs - z * complex_gamma(z)) <= 1e-12 * abs(lhs), z
    for z in (0.3, 0.8 + 0.5j, -0.4 + 1j, 1.6 - 2j):
        ref = cmath.pi / cmath.sin(cmath.pi * z)
        assert abs(complex_gamma(z) * complex_gamma(1 - z) - ref) <= 1e-12 * abs(ref), z
    assert abs(riemann_zeta(2) - math.pi**2 / 6) <= 1e-10


def test_criterion_13_reduction_identities_exact():
    # Three structural identities, all in exact arithmetic:
    # per-cycle weights theta^k reduce to the weighted measure (n <= 30),
    # the spatial model reduces to its effective weights (n <= 20), and
    # the exponential-polynomial family equals its log-series form
    # (n <= 30).
    shift = theta_shift_family(1, amp=1, power=2).weights
    fw = GeneralizedWeights.from_theta(shift)
    assert generalized_normalization(fw, 30) == normalization_constants(shift, 30)
    assert (dict(generalized_total_cycles_pmf(fw, 18).items())
            == dict(total_cycles_pmf(shift, 18).items()))
    assert (dict(generalized_joint_cycle_pmf(fw, 14, 2).items())
            == dict(joint_cycle_pmf(shift, 14, 2).items()))

    model = spatial_two_point()
    eff = spatial_effective_weights(model)
    sp = spatial_F(model)
    assert generalized_normalization(sp, 20) == normalization_constants(eff, 20)
    assert (dict(generalized_total_cycles_pmf(sp, 14).items())
            == dict(total_cycles_pmf(eff, 14).items()))

    theta, higher = Fraction(1), {2: Fraction(1)}
    ep = exp_polynomial_weights(theta, higher)
    direct = generalized_normalization(ep, 30)
    via_log = list(ts_exp(exp_polynomial_log_series(theta, higher, 30)).coeffs)
    assert direct == via_log
