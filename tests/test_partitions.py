"""Partition enumeration and the brute-force oracle.

Oracles: Euler's pentagonal-number recurrence for partition counts and
the identity sum over partitions of n of 1/z_lambda = 1 (conjugacy
classes of S_n partition the group).
"""

import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from cyclemeter import generalized, measure, partitions, series
from cyclemeter.asymptotics import theta_shift_family
from cyclemeter.errors import DegenerateMeasureError, ResourceError, UsageError
from cyclemeter.measure import WeightSequence
from cyclemeter.partitions import (Partition, brute_force_cycle_type_pmf,
                                   brute_force_k_pmf,
                                   brute_force_normalization)


def pentagonal_partition_counts(n_max):
    # p(n) = sum_{k!=0} (-1)^{k-1} p(n - k(3k-1)/2), independent of the
    # enumerator under test.
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            pent1 = k * (3 * k - 1) // 2
            pent2 = k * (3 * k + 1) // 2
            if pent1 > n and pent2 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            if pent1 <= n:
                total += sign * p[n - pent1]
            if pent2 <= n:
                total += sign * p[n - pent2]
            k += 1
        p[n] = total
    return p


def classes(n):
    """The number of classes the oracle's walk visits at n."""
    return sum(1 for _ in partitions._walk(n, lambda value, m, c: value, None))


def walk_rows(n):
    """(parts, z, ((m, c_m), ...)) of each class, built up the walk's stack
    as its running value, with the stack's count of cycles checked."""
    rows = []
    for stack in partitions._walk(n, lambda row, m, c: (
            row[0] + (m,) * c, row[1] * m**c * math.factorial(c), row[2] + ((m, c),)),
            ((), 1, ())):
        _, _, cycles, row = stack[-1]
        assert cycles == len(row[0])
        rows.append(row)
    return rows


def test_partition_counts_match_pentagonal_recurrence():
    counts = pentagonal_partition_counts(45)
    for n in (0, 1, 2, 5, 10, 20, 35, 45):
        assert classes(n) == counts[n]


def test_p_of_ten():
    assert classes(10) == 42


def test_descending_lex_order():
    parts = [row[0] for row in walk_rows(5)]
    assert parts == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
                     (2, 1, 1, 1), (1, 1, 1, 1, 1)]


def recursive_table(n, below, row, out):
    """Append (parts, z, ((m, c_m), ...)) for each partition of n into parts
    < below, after the row's parts: m^c first, with c from high to low, then
    the rest in parts < m, which is descending lexicographic order."""
    parts, z, mc = row
    if n == 0:
        out.append(row)
    for m in range(min(n, below - 1), 0, -1):
        for c in range(n // m, 0 if m > 1 else n - 1, -1):  # 1s must fill the rest
            recursive_table(n - m * c, m, (parts + (m,) * c, z * m**c * math.factorial(c),
                                           mc + ((m, c),)), out)
    return out


def test_walk_equals_recursive_reference():
    # same classes in the same order: the order fixes the double oracle's sums
    for n in range(41):
        assert walk_rows(n) == recursive_table(n, n + 1, ((), 1, ()), [])


def test_z_values_s3():
    z = {parts: z for parts, z, _ in walk_rows(3)}
    assert z == {(3,): 3, (2, 1): 2, (1, 1, 1): 6}


def test_class_sizes_cover_group():
    for n in range(1, 13):
        total = sum(Fraction(1, z) for _, z, _ in walk_rows(n))
        assert total == 1


def test_partition_validation():
    with pytest.raises(UsageError, match=r"^parts must be nonincreasing, got \(1, 2\)$"):
        Partition([1, 2])
    with pytest.raises(UsageError, match="^partition parts must be >= 1, got 0$"):
        Partition((2, 0))


def test_partition_is_an_ordered_immutable_value():
    p = Partition([3, 1])
    assert p.parts == (3, 1) and repr(p) == "Partition(3, 1)"
    assert repr(Partition((4,))) == "Partition(4,)" and Partition(()).parts == ()
    assert p == Partition((3, 1)) and hash(p) == hash(Partition((3, 1)))
    assert sorted([Partition((3, 1)), Partition((2, 2)), Partition((4,)), Partition((2, 1, 1))]) \
        == [Partition((2, 1, 1)), Partition((2, 2)), Partition((3, 1)), Partition((4,))]
    assert Partition((2, 2)) < p <= Partition((3, 1)) < Partition((3, 2))
    for name in ("parts", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, (4,))


def test_enumeration_cap():
    with pytest.raises(ResourceError):
        brute_force_normalization(WeightSequence.constant(1), 81)


@pytest.mark.parametrize("law", [brute_force_normalization, brute_force_k_pmf,
                                 brute_force_cycle_type_pmf, partitions.brute_force_cycle_counts_pmf])
def test_oracles_refuse_before_reading_weights(law):
    # n is checked before any weight is read or any factor table is built:
    # at n = 10**6 the O(n log n) factors alone would take minutes.
    read = []
    theta = WeightSequence(lambda m: read.append(m) or 1.0, exact_fn=lambda m: read.append(m) or 1)
    args = (3,) if law is partitions.brute_force_cycle_counts_pmf else ()
    start = time.perf_counter()
    for backend in ("exact", "double"):
        with pytest.raises(ResourceError):
            law(theta, 10**6, *args, backend)
    assert time.perf_counter() - start < 1 and read == []


def test_uniform_measure_class_probabilities():
    # Unit weights give the uniform measure; class mass is 1/z_lambda.
    theta = WeightSequence.constant(1)
    pmf, norm = brute_force_cycle_type_pmf(theta, 4)
    assert norm == 1
    assert pmf[Partition((4,))] == Fraction(1, 4)
    assert pmf[Partition((1, 1, 1, 1))] == Fraction(1, 24)


def test_k_pmf_from_types():
    theta = WeightSequence.constant(1)
    pmf = brute_force_k_pmf(theta, 3)
    assert pmf[1] == Fraction(1, 3)
    assert pmf[2] == Fraction(1, 2)
    assert pmf[3] == Fraction(1, 6)


@pytest.mark.parametrize("b", [1, 3])
def test_counts_oracle_equals_projected_type_law(b):
    # Summing class weights by (C_1..C_b) before one division gives the
    # same Fractions as adding the normalized cycle-type law per tuple.
    theta = WeightSequence(lambda m: 0.5 * m, exact_fn=lambda m: Fraction(m, 2))
    fw = generalized.exp_polynomial_weights(Fraction(1, 3), {2: Fraction(1, 5)})
    for counts, types in [
            (partitions.brute_force_cycle_counts_pmf(theta, 9, b),
             brute_force_cycle_type_pmf(theta, 9)[0]),
            (partitions.brute_force_cycle_counts_pmf(fw, 9, b),
             partitions.brute_force_generalized_cycle_type_pmf(fw, 9)[0])]:
        projected = {}
        for lam, p in types.items():
            key = tuple(lam.parts.count(m) for m in range(1, b + 1))
            projected[key] = projected.get(key, 0) + p
        assert dict(counts.items()) == projected


def test_normalization_double_matches_exact():
    theta = WeightSequence.constant(Fraction(5, 2))
    exact = brute_force_normalization(theta, 9)
    approx = brute_force_normalization(theta, 9, backend="double")
    assert approx == pytest.approx(float(exact), rel=1e-12)


def test_oracle_shares_no_kernel_with_engine():
    # The oracle is the independent reference: it may use the scalar-kind
    # helpers of series, but no series kernel, lattice product or joint
    # enumerator of the engine it checks.
    kernels = {"ts_exp": series.ts_exp, "ts_log": series.ts_log,
               "ts_mul": series.ts_mul, "bv_exp_wg": series.bv_exp_wg,
               "_eg_product": generalized._eg_product,
               "_joint_walk": measure._joint_walk}
    namespace = vars(partitions)
    assert not set(kernels) & set(namespace)
    assert not any(value is kernel for value in namespace.values()
                   for kernel in kernels.values())


def test_generalized_oracle_refuses_vanishing_normalization():
    # F = 5e-324: every class weight F / z_lambda rounds to 0 at n = 2.
    tiny = generalized.GeneralizedWeights(lambda m, k: 5e-324, name="tiny")
    with pytest.raises(DegenerateMeasureError):
        partitions.brute_force_generalized_cycle_type_pmf(tiny, 2, "double")
    with pytest.raises(DegenerateMeasureError):
        partitions.brute_force_generalized_k_pmf(tiny, 2, "double")


@pytest.mark.parametrize("theta", [
    theta_shift_family(1, amp=1, power=2).weights,
    WeightSequence.constant(Fraction(1, 2)),
    generalized.spatial_effective_weights(
        generalized.SpatialModel((Fraction(1, 2), Fraction(1, 3)), alpha=0.5))],
    ids=["theta-shift", "ewens-half", "spatial"])
@pytest.mark.parametrize("n", [1, 7, 12])
def test_class_weight_rules_agree_on_powers(theta, n):
    # F_m(c) = theta_m^c read as a GeneralizedWeights (e = 1) and theta
    # itself (e = c) weigh every class alike: equal Fractions, law by law.
    fw = generalized.GeneralizedWeights.from_theta(theta)
    for law in (brute_force_normalization, brute_force_k_pmf, brute_force_cycle_type_pmf):
        assert law(theta, n) == law(fw, n)
    for b in range(1, min(3, n) + 1):
        assert (partitions.brute_force_cycle_counts_pmf(theta, n, b)
                == partitions.brute_force_cycle_counts_pmf(fw, n, b))


def test_k_oracle_equals_projected_type_law():
    # The K_n oracle of either handle adds the cycle-type law by length.
    theta = WeightSequence(lambda m: 0.5 * m, exact_fn=lambda m: Fraction(m, 2))
    fw = generalized.exp_polynomial_weights(Fraction(2, 3), {3: Fraction(1, 6), 2: Fraction(1, 4)})
    for weights in (theta, fw):
        types, norm = brute_force_cycle_type_pmf(weights, 10)
        assert norm == brute_force_normalization(weights, 10)
        projected = {}
        for lam, p in types.items():
            projected[len(lam.parts)] = projected.get(len(lam.parts), 0) + p
        assert dict(brute_force_k_pmf(weights, 10).items()) == projected


@pytest.mark.parametrize("law", [
    brute_force_k_pmf, lambda weights, n: partitions.brute_force_cycle_counts_pmf(weights, n, 3)],
    ids=["k", "counts-b3"])
def test_oracle_memory_does_not_grow_with_the_class_count(law):
    # The p(45) = 89,134 classes are walked, not stored: a table of
    # (parts, z, pairs) rows would hold about 0.5 KB a class.
    tracemalloc.start()
    try:
        law(WeightSequence.constant(1), 45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("weights", [
    theta_shift_family(1, amp=1, power=2).weights,
    generalized.exp_polynomial_weights(Fraction(1, 3), {2: Fraction(1, 5), 3: Fraction(1, 7)})],
    ids=["theta-shift", "exp-poly"])
def test_double_oracle_sums_recursive_rows_in_order(weights, n=30):
    # A class weighs prod F_m(c_m) / z_lambda, F multiplied left to right
    # from 1.0 (theta_m^c as a product of c factors for a WeightSequence),
    # and each atom adds its classes in descending lexicographic order: the
    # double laws equal that sum over the reference rows bit for bit.
    if isinstance(weights, WeightSequence):
        factor = lambda m, c: math.prod([weights.at(m, "double")] * c)
    else:
        factor = lambda m, c: weights.at(m, c, "double")
    rows = recursive_table(n, n + 1, ((), 1, ()), [])

    def law(key):
        mass = {}
        for parts, z, mc in rows:
            w = math.prod([factor(m, c) for m, c in mc], start=1.0) / z
            mass[key(parts)] = mass.get(key(parts), 0) + w
        total = sum(mass.values())
        return {k: w / total for k, w in mass.items()}, total

    k_law, total = law(len)
    assert brute_force_normalization(weights, n, "double") == total
    assert dict(brute_force_k_pmf(weights, n, "double").items()) == k_law
    types, norm = brute_force_cycle_type_pmf(weights, n, "double")
    assert (dict(types.items()), norm) == law(Partition)
    counts = partitions.brute_force_cycle_counts_pmf(weights, n, 3, "double")
    assert dict(counts.items()) == law(lambda parts: tuple(map(parts.count, (1, 2, 3))))[0]
