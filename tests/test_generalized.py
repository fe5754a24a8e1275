"""Generalized per-cycle weights, exponential-polynomial families, and
spatial models.

Oracles: the weighted engine (for the F_m(k) = theta^k reduction), the
generalized partition brute force, and the log-series identity that the
exponential-polynomial family must satisfy by construction.  The
exponential-polynomial laws run on the series kernels; the lattice
product of the generalized measure and the partition brute force check
them.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemeter.asymptotics import theta_shift_family
from cyclemeter.diagnostics import K_TAIL
from cyclemeter.errors import DegenerateMeasureError, UsageError
from cyclemeter.generalized import (GeneralizedWeights, SpatialModel,
                                    eg_series, exp_polynomial_log_series,
                                    exp_polynomial_weights,
                                    generalized_joint_cycle_pmf,
                                    generalized_normalization,
                                    generalized_total_cycles_pmf, spatial_F,
                                    spatial_class_params,
                                    spatial_effective_weights)
from cyclemeter.measure import (WeightSequence, joint_cycle_pmf,
                                normalization_constants, total_cycles_pmf,
                                total_cycles_pmf_many)
from cyclemeter.partitions import (brute_force_cycle_counts_pmf,
                                   brute_force_generalized_cycle_type_pmf,
                                   brute_force_generalized_k_pmf,
                                   brute_force_generalized_normalization)
from cyclemeter.series import TruncatedSeries, ts_exp


def test_theta_reduction_normalization():
    theta = WeightSequence.constant(Fraction(5, 3))
    fw = GeneralizedWeights.from_theta(theta)
    assert generalized_normalization(fw, 18) == normalization_constants(theta, 18)


def test_theta_reduction_distributions():
    theta = WeightSequence(lambda m: 0.5 if m % 2 else 2.0,
                           exact_fn=lambda m: Fraction(1, 2) if m % 2 else Fraction(2))
    fw = GeneralizedWeights.from_theta(theta)
    n = 9
    assert (dict(generalized_total_cycles_pmf(fw, n).items())
            == dict(total_cycles_pmf(theta, n).items()))
    assert (dict(generalized_joint_cycle_pmf(fw, n, 2).items())
            == dict(joint_cycle_pmf(theta, n, 2).items()))


def test_eg_series_unit_weights():
    # F_m(k) = 1 gives the exponential series sum x^k / k!.
    fw = GeneralizedWeights(lambda m, k: 1.0, name="unit",
                            exact_fn=lambda m, k: Fraction(1))
    series = eg_series(fw, 1, 6)
    assert list(series.coeffs) == [Fraction(1, math.factorial(k)) for k in range(7)]


def test_double_eg_series_rounds_each_exact_coefficient_once():
    # k! passes the double range after k = 170: F_1(k) / k! = 1 / k! is
    # the exact ratio rounded once (0.0 past the subnormals), not a bare
    # OverflowError from converting k! to a float.
    series = eg_series(exp_polynomial_weights(1, {}), 1, 200, "double")
    assert list(series.coeffs) == [float(Fraction(1, math.factorial(k))) for k in range(201)]
    # theta^k / k! itself passes 1.8e308 near k = 350 for theta = 1000
    with pytest.raises(UsageError, match=r"F_1\(\d+\) / \(\d+! 1\^\d+\) overflows a double"):
        eg_series(exp_polynomial_weights(1000, {}), 1, 400, "double")


def test_exp_polynomial_factor_values():
    # P(x) = theta x + x^2: F_m(1) = theta, F_m(2) = theta^2 + 2.
    fw = exp_polynomial_weights(Fraction(3, 2), {2: 1})
    assert fw.value_exact(4, 0) == 1
    assert fw.value_exact(4, 1) == Fraction(3, 2)
    assert fw.value_exact(4, 2) == Fraction(3, 2) ** 2 + 2


@pytest.mark.parametrize("theta, higher", [
    (Fraction(4), {2: Fraction(-1, 200)}),
    (Fraction(1, 3), {2: Fraction(1, 2), 5: Fraction(1, 7)}),
    (Fraction(2), {3: Fraction(5, 3)}),
])
def test_exp_polynomial_recurrence_matches_series_exp(theta, higher):
    # The weights come from the recurrence of y' = P'y; the reference is
    # k! [x^k] of an exact ts_exp of P itself.
    order = 200
    coeffs = [Fraction(0)] * (order + 1)
    for j, b in {1: theta, **higher}.items():
        coeffs[j] = b
    series = ts_exp(TruncatedSeries(coeffs, "exact")).coeffs
    fw = exp_polynomial_weights(theta, higher)
    assert [fw.value_exact(3, k) for k in range(order + 1)] == [
        c * math.factorial(k) for k, c in enumerate(series)]


def test_exp_polynomial_two_path_identity():
    theta = Fraction(1)
    higher = {2: Fraction(1)}
    fw = exp_polynomial_weights(theta, higher)
    direct = generalized_normalization(fw, 30)
    via_log = ts_exp(exp_polynomial_log_series(theta, higher, 30)).coeffs
    assert direct == list(via_log)


def test_exp_polynomial_matches_brute_force():
    fw = exp_polynomial_weights(Fraction(1, 2), {2: Fraction(1, 3)})
    for n in (1, 4, 8):
        assert (generalized_normalization(fw, n)[n]
                == brute_force_generalized_normalization(fw, n))
    mine = generalized_total_cycles_pmf(fw, 7)
    ref = brute_force_generalized_k_pmf(fw, 7)
    assert dict(mine.items()) == dict(ref.items())


def test_generalized_weight_validation():
    bad = GeneralizedWeights(lambda m, k: 0.0, name="zero")
    with pytest.raises((UsageError, DegenerateMeasureError)):
        bad.value(1, 1)
    fw = GeneralizedWeights(lambda m, k: 1.0, name="unit")
    assert fw.value(3, 0) == 1.0


def test_spatial_effective_weights_exact():
    model = SpatialModel([1, Fraction(1, 2)])
    eff = spatial_effective_weights(model)
    for m in (1, 2, 5):
        assert eff.theta_exact(m) == 1 + Fraction(1, 2) ** m


def test_spatial_reduction_matches_brute_force():
    model = SpatialModel([1, Fraction(1, 2)])
    eff = spatial_effective_weights(model)
    h = normalization_constants(eff, 12)
    fw = spatial_F(model)
    assert generalized_normalization(fw, 12) == h
    assert (dict(generalized_total_cycles_pmf(fw, 8).items())
            == dict(total_cycles_pmf(eff, 8).items()))


def test_spatial_class_single_minimal_mode():
    # Decays {1, 1/2}: one minimal mode, alpha = 0; the non-minimal
    # mode contributes -log(1 - 1/2) = log 2 to K.
    model = SpatialModel([1, Fraction(1, 2)])
    cls = spatial_class_params(model)
    assert cls.r == pytest.approx(1.0, abs=0)
    assert cls.theta == pytest.approx(1.0, abs=0)
    assert cls.K == pytest.approx(math.log(2), rel=1e-12)


def test_spatial_class_two_equal_modes():
    # Two equal modes double theta and leave K at zero.
    model = SpatialModel([1, 1])
    cls = spatial_class_params(model)
    assert cls.theta == pytest.approx(2.0, abs=0)
    assert cls.K == pytest.approx(0.0, abs=1e-15)


def test_spatial_model_validation():
    with pytest.raises(UsageError):
        SpatialModel([])
    with pytest.raises(UsageError):
        SpatialModel([Fraction(3, 2)])


def test_exp_polynomial_double_past_k_170():
    # k! overflows a double past k = 170, though F_1(k) = 1 and every
    # coefficient of EG(F_1, t) = e^t is representable or underflows.
    fw = exp_polynomial_weights(1, {})
    assert fw.value(1, 400) == 1.0
    h = generalized_normalization(fw, 400, "double")
    assert all(abs(h[n] - 1) <= 1e-12 for n in (171, 201, 400))
    third = exp_polynomial_weights(Fraction(1, 3), {})
    exact = generalized_normalization(third, 150)[150]
    assert generalized_normalization(third, 150, "double")[150] == pytest.approx(
        float(exact), rel=1e-12)


def test_generalized_laws_refuse_non_finite_normalization():
    # F = 1e308: F_1(1) F_2(1) / 2 overflows, so h_3 = inf and the
    # masses would be inf / inf = NaN.
    huge = GeneralizedWeights(lambda m, k: 1e308, name="huge")
    with pytest.raises(DegenerateMeasureError):
        generalized_total_cycles_pmf(huge, 3, "double")
    with pytest.raises(DegenerateMeasureError):
        generalized_joint_cycle_pmf(huge, 3, 1, "double")


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_generalized_laws_match_oracle_for_weights_in_m_and_k(data):
    # F_m(k) drawn per (m, k), so no reduction to theta_m^k or to one
    # F for every m holds; K = n exercises the last slot of the marked
    # lattice, and the joint law's h_n continues its tail product.
    n = data.draw(st.integers(1, 12))
    b = data.draw(st.integers(1, min(3, n)))
    ratio = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
    table = {(m, k): data.draw(ratio) for m in range(1, n + 1) for k in range(1, n // m + 1)}
    fw = GeneralizedWeights(lambda m, k: float(table[m, k]), name="table",
                            exact_fn=lambda m, k: table[m, k])
    assert generalized_normalization(fw, n)[n] == brute_force_generalized_normalization(fw, n)
    assert (dict(generalized_total_cycles_pmf(fw, n).items())
            == dict(brute_force_generalized_k_pmf(fw, n).items()))
    type_pmf, _ = brute_force_generalized_cycle_type_pmf(fw, n)
    projected = {}
    for lam, p in type_pmf.items():
        key = tuple(lam.parts.count(m) for m in range(1, b + 1))
        projected[key] = projected.get(key, 0) + p
    joint = generalized_joint_cycle_pmf(fw, n, b)
    assert {key: p for key, p in joint.items() if p} == projected


@pytest.mark.parametrize("theta, b2", [(1, Fraction(1, 4)), (16, Fraction(-1, 4))])
def test_double_lattice_matches_exact(theta, b2):
    # F(k) = He_k(theta sqrt 2) / 2^{k/2} for b2 = -1/4, positive up to
    # k = 120 only once theta sqrt 2 passes the largest Hermite root (~21).
    fw = exp_polynomial_weights(theta, {2: b2})
    exact = generalized_normalization(fw, 120)
    double = generalized_normalization(fw, 120, "double")
    assert all(abs(d - float(e)) <= 1e-12 * float(e) for d, e in zip(double, exact))
    exact_k = generalized_total_cycles_pmf(fw, 120)
    double_k = generalized_total_cycles_pmf(fw, 120, "double")
    for k in range(1, 121):
        assert abs(double_k[k] - float(exact_k[k])) <= 1e-12 * float(exact_k[k])


# A negative b2 (F(k) > 0 up to k = 416), a degree-5 term, and a cubic.
EXP_POLYS = [
    (Fraction(4), {2: Fraction(-1, 200)}),
    (Fraction(1, 3), {2: Fraction(1, 2), 5: Fraction(1, 7)}),
    (Fraction(1), {2: Fraction(1, 4), 3: Fraction(2, 3)}),
]


@pytest.mark.parametrize("theta, higher", EXP_POLYS)
def test_exp_polynomial_routes_equal_lattice(theta, higher):
    # ts_exp of the log-series, bv_exp_wg of its w^j parts, and the ts_exp
    # tail of the joint law give the lattice product's Fractions.
    fw = exp_polynomial_weights(theta, higher)
    assert normalization_constants(fw, 200) == generalized_normalization(fw, 200)
    for n in (1, 2, 13, 60):
        assert total_cycles_pmf(fw, n) == generalized_total_cycles_pmf(fw, n)
    for b in (1, 2, 3):
        assert joint_cycle_pmf(fw, 60, b) == generalized_joint_cycle_pmf(fw, 60, b)


@pytest.mark.parametrize("theta, higher", EXP_POLYS)
def test_exp_polynomial_double_routes_match_exact(theta, higher):
    fw = exp_polynomial_weights(theta, higher)

    def close(double, exact):
        return abs(double - float(exact)) <= 1e-12 * float(exact)

    exact = normalization_constants(fw, 200)
    double = normalization_constants(fw, 200, "double")
    assert all(map(close, double, exact))
    exact_k = total_cycles_pmf(fw, 60)
    double_k = total_cycles_pmf(fw, 60, "double")
    assert all(close(double_k[k], p) for k, p in exact_k.items())
    for b in (1, 3):
        exact_j = joint_cycle_pmf(fw, 60, b)
        double_j = joint_cycle_pmf(fw, 60, b, "double")
        assert double_j.support() == exact_j.support()
        assert all(close(double_j[key], p) for key, p in exact_j.items())


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_exp_polynomial_routes_match_oracle(data):
    # Random positive rational theta and b_j of random degrees up to 6.
    n = data.draw(st.integers(1, 12))
    b = data.draw(st.integers(1, min(3, n)))
    ratio = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
    degrees = data.draw(st.sets(st.integers(2, 6), max_size=3))
    fw = exp_polynomial_weights(data.draw(ratio), {j: data.draw(ratio) for j in sorted(degrees)})
    assert normalization_constants(fw, n)[n] == brute_force_generalized_normalization(fw, n)
    assert total_cycles_pmf(fw, n) == brute_force_generalized_k_pmf(fw, n)
    joint = joint_cycle_pmf(fw, n, b)
    assert ({key: p for key, p in joint.items() if p}
            == dict(brute_force_cycle_counts_pmf(fw, n, b).items()))


def test_exp_polynomial_routes_check_F_exactly():
    # F(417) < 0 for theta = 4, b2 = -1/200: every route refuses n = 417
    # on exact rationals, in either kind, and accepts n = 416.
    fw = exp_polynomial_weights(4, {2: Fraction(-1, 200)})
    for backend in ("exact", "double"):
        with pytest.raises(UsageError, match=r"F_1\(417\) is negative"):
            normalization_constants(fw, 417, backend)
    with pytest.raises(UsageError, match=r"F_1\(417\)"):
        total_cycles_pmf(fw, 417, "double")
    with pytest.raises(UsageError, match=r"F_1\(417\)"):
        joint_cycle_pmf(fw, 417, 1, "double")
    assert normalization_constants(fw, 416, "double")[416] > 0
    with pytest.raises(UsageError, match="no exp-polynomial form"):
        normalization_constants(GeneralizedWeights(lambda m, k: 1.0), 3)


def test_exp_polynomial_key_order_changes_no_bit():
    # The parts are summed at w = 1 in degree order whatever order the
    # b_j were given in, as exp_polynomial_log_series sums them; added in
    # the order given, one of these 401 doubles would round differently.
    theta, higher = Fraction(1, 3), {5: Fraction(1, 7), 2: Fraction(1, 2), 3: Fraction(2, 3)}
    by_degree = list(ts_exp(exp_polynomial_log_series(theta, dict(sorted(higher.items())),
                                                      400, "double")).coeffs)
    for order in (higher, dict(sorted(higher.items()))):
        assert normalization_constants(exp_polynomial_weights(theta, order), 400,
                                       "double") == by_degree
        assert list(ts_exp(exp_polynomial_log_series(theta, order, 400,
                                                     "double")).coeffs) == by_degree


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(2)])
def test_exp_polynomial_of_degree_one_is_ewens(theta):
    # P = theta x gives F_m(k) = theta^k: the Ewens measure, Fraction for Fraction.
    fw, ewens = exp_polynomial_weights(theta, {}), WeightSequence.constant(theta)
    assert normalization_constants(fw, 40) == normalization_constants(ewens, 40)
    for n in (1, 2, 13, 40):
        assert total_cycles_pmf(fw, n) == total_cycles_pmf(ewens, n)
    for b in (1, 2, 3):
        assert joint_cycle_pmf(fw, 40, b) == joint_cycle_pmf(ewens, 40, b)


@pytest.mark.parametrize("theta, higher, ns", [
    (1, {2: Fraction(1, 4)}, [300, 600]),
    (4, {2: Fraction(-1, 200)}, [300, 416]),  # F(417) < 0 for this polynomial
])
def test_truncated_exp_polynomial_k_law_matches_full_law(theta, higher, ns):
    # The certified columns of sum_j x^j g_j keep every atom of the full
    # band's law, and their tail bound covers the mass the cut leaves out.
    fw = exp_polynomial_weights(theta, higher)
    full = total_cycles_pmf_many(fw, ns, "double")
    cut = total_cycles_pmf_many(fw, ns, "double", max_tail=K_TAIL)
    for n in ns:
        assert len(cut[n]) < n and cut[n].support() == tuple(range(1, len(cut[n]) + 1))
        for k, p in cut[n].items():
            assert abs(p - full[n][k]) <= 1e-13 * full[n][k]
        dropped = sum(p for k, p in full[n].items() if k > len(cut[n]))
        assert dropped <= cut[n].tail_bound <= 1.01 * K_TAIL


@pytest.mark.parametrize("lattice, engine", [
    (lambda theta, kind: generalized_normalization(theta, 20, kind),
     lambda theta, kind: normalization_constants(theta, 20, kind)),
    (lambda theta, kind: generalized_total_cycles_pmf(theta, 20, kind),
     lambda theta, kind: total_cycles_pmf(theta, 20, kind)),
    (lambda theta, kind: generalized_joint_cycle_pmf(theta, 20, 3, kind),
     lambda theta, kind: joint_cycle_pmf(theta, 20, 3, kind))],
    ids=["normalization", "total_cycles", "joint_cycles"])
@pytest.mark.parametrize("backend", ["exact", "double"])
def test_lattice_laws_take_a_weight_sequence(lattice, engine, backend):
    # The lattice reads theta_m^c / (c! m^c) from the handle's
    # cycle_factors, so its laws are the series engine's laws.
    def atoms(law):
        return dict(enumerate(law)) if isinstance(law, list) else dict(law.items())

    theta = theta_shift_family(Fraction(1, 2)).weights
    mine, ref = atoms(lattice(theta, backend)), atoms(engine(theta, backend))
    assert mine.keys() == ref.keys()
    if backend == "exact":
        assert mine == ref
    else:
        assert all(abs(mine[key] - p) <= 1e-14 * p for key, p in ref.items())


def test_double_lattice_runs_where_f_leaves_the_double_range():
    # F_1(333) overflows a double for theta = 1, b2 = 1/4, but every
    # factor F(c)/(c! m^c) and every h_n stays in range.
    fw = exp_polynomial_weights(1, {2: Fraction(1, 4)})
    exact = normalization_constants(fw, 400)
    double = generalized_normalization(fw, 400, "double")
    assert all(abs(d - float(e)) <= 1e-12 * float(e) for d, e in zip(double, exact))
    # The K law against the double series engine, which other tests check
    # against the exact law.
    engine_k = total_cycles_pmf(fw, 300, "double")
    double_k = generalized_total_cycles_pmf(fw, 300, "double")
    atoms = [(double_k[k], p) for k, p in engine_k.items() if p > 1e-300]
    assert len(atoms) > 250
    assert all(abs(d - e) <= 1e-12 * e for d, e in atoms)


@pytest.mark.parametrize("law", [
    lambda fw: generalized_normalization(fw, 400, "double"),
    lambda fw: generalized_total_cycles_pmf(fw, 400, "double"),
    lambda fw: generalized_joint_cycle_pmf(fw, 400, 1, "double")],
    ids=["normalization", "total_cycles", "joint_cycles"])
def test_double_lattice_refuses_a_factor_past_the_double_range(law):
    # theta^c / c! passes 1.8e308 near c = 350 for theta = 1000, so h_c
    # is not finite in doubles either; the factor names itself.
    with pytest.raises(UsageError, match=r"F_1\(\d+\) / \(\d+! 1\^\d+\) overflows a double"):
        law(exp_polynomial_weights(1000, {}))
