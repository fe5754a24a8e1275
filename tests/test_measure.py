"""Finite-n distributions and sampling for weighted permutations.

Oracles: the partition brute force, the unsigned Stirling-number
recurrence c(n,k) = c(n-1,k-1) + (n-1) c(n-1,k) for unit weights,
exact laws for the mass a truncated double law leaves out, and
chi-square goodness of fit for the samplers.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cyclemeter import measure
from cyclemeter.asymptotics import ewens_family, polylog_family, theta_shift_family
from cyclemeter.diagnostics import K_TAIL
from cyclemeter.errors import DegenerateMeasureError, ResourceError, UsageError
from cyclemeter.generalized import (GeneralizedWeights, _eg_product, _factor_coeffs,
                                    exp_polynomial_weights, generalized_joint_cycle_pmf)
from cyclemeter.measure import (WeightSequence, expected_cycle_counts,
                                joint_cycle_columns, joint_cycle_pmf,
                                normalization_constants,
                                sample_cycle_type, sample_permutation,
                                total_cycles_pmf, total_cycles_pmf_many)
from cyclemeter.partitions import (brute_force_cycle_type_pmf, brute_force_k_pmf,
                                   brute_force_normalization)
from cyclemeter.pmf import Pmf


def half_integer_weights():
    return WeightSequence(lambda m: 0.5 if m % 2 else 1.5,
                          name="alternating",
                          exact_fn=lambda m: Fraction(1, 2) if m % 2 else Fraction(3, 2))


# -- Pmf container -----------------------------------------------------------


def test_pmf_rejects_negative_mass():
    with pytest.raises(UsageError):
        Pmf({0: Fraction(3, 2), 1: Fraction(-1, 2)})


def test_pmf_rejects_bad_total():
    with pytest.raises(UsageError):
        Pmf({0: Fraction(1, 3)})


def test_pmf_tail_bound_completes_total():
    p = Pmf({0: 0.75}, tol=1e-12, tail_bound=0.25)
    assert p.tail_bound == 0.25
    assert p[1] == 0


def test_pmf_exact_check_stays_exact():
    # The default tail_bound is the integer 0, so an exact sum is compared
    # as a Fraction: 1 - 10^-20 is 1.0 as a double, but not 1.
    with pytest.raises(UsageError, match="exactly"):
        Pmf({1: 1 - Fraction(1, 10**20)}, tol=0)
    assert Pmf({1: Fraction(1)}).tail_bound == 0


def test_pmf_moments():
    p = Pmf({0: Fraction(1, 4), 2: Fraction(3, 4)})
    assert p.mean() == Fraction(3, 2)
    assert p.variance() == Fraction(3, 4)


def test_pmf_moments_need_integer_support():
    p = Pmf({(1, 0): Fraction(1)})
    with pytest.raises(UsageError):
        p.mean()


# -- normalization constants -------------------------------------------------


def test_normalization_matches_brute_force():
    theta = half_integer_weights()
    h = normalization_constants(theta, 10)
    for n in range(1, 11):
        assert h[n] == brute_force_normalization(theta, n)


def test_ewens_closed_forms():
    two = normalization_constants(WeightSequence.constant(2), 30)
    three = normalization_constants(WeightSequence.constant(3), 30)
    for n in range(31):
        assert two[n] == n + 1
        assert three[n] == Fraction((n + 1) * (n + 2), 2)


# -- joint cycle-count distribution ------------------------------------------


def test_joint_unit_weights_n3():
    theta = WeightSequence.constant(1)
    pmf = joint_cycle_pmf(theta, 3, 1)
    assert pmf[(0,)] == Fraction(1, 3)
    assert pmf[(1,)] == Fraction(1, 2)
    assert pmf[(2,)] == Fraction(0)
    assert pmf[(3,)] == Fraction(1, 6)


def test_joint_matches_partition_projection():
    theta = half_integer_weights()
    n, b = 8, 3
    pmf = joint_cycle_pmf(theta, n, b)
    type_pmf, _ = brute_force_cycle_type_pmf(theta, n)
    projected = {}
    for lam, p in type_pmf.items():
        key = tuple(lam.parts.count(m) for m in range(1, b + 1))
        projected[key] = projected.get(key, 0) + p
    for key in pmf.support():
        assert pmf[key] == projected.get(key, 0)


def test_joint_marginal_consistency():
    theta = WeightSequence.constant(2)
    full = joint_cycle_pmf(theta, 6, 3)
    single = joint_cycle_pmf(theta, 6, 1)
    collapsed = {}
    for key, p in full.items():
        collapsed[(key[0],)] = collapsed.get((key[0],), 0) + p
    assert collapsed == dict(single.items())


@pytest.mark.parametrize("n", range(1, 11))
def test_joint_support_count_matches_enumeration(n):
    for b in range(1, n + 1):
        boxes = itertools.product(*[range(n // m + 1) for m in range(1, b + 1)])
        tuples = sum(sum(m * c for m, c in enumerate(key, 1)) <= n for key in boxes)
        assert measure._guard_joint_support(n, b) == tuples


def test_joint_support_cap_counts_tuples_not_the_box():
    # Both boxes prod_m (n/m + 1) pass the cap; the supports do not.
    assert measure._guard_joint_support(400, 3) == 1_824_812
    assert measure._guard_joint_support(200, 4) == 3_095_037
    with pytest.raises(ResourceError, match="more than 5000000 tuples"):
        measure._guard_joint_support(600, 3)  # 6,105,551 tuples


def test_joint_validates_b():
    theta = WeightSequence.constant(1)
    with pytest.raises(UsageError):
        joint_cycle_pmf(theta, 4, 0)
    with pytest.raises(UsageError):
        joint_cycle_pmf(theta, 4, 5)


def per_atom_joint(n, b, factors, tail, hn):
    """The double joint law one tuple at a time, in lexicographic order:
    weight 1.0 times factors[m-1][c_m] for m = 1..b, then * tail / hn."""
    keys, masses = [], []
    for key in itertools.product(*[range(n // m + 1) for m in range(1, b + 1)]):
        budget = n - sum(m * c for m, c in enumerate(key, 1))
        if budget < 0:
            continue
        weight = 1.0
        for m, c in enumerate(key, 1):
            weight = weight * factors[m - 1][c]
        keys.append(key)
        masses.append(weight * tail[budget] / hn)
    return keys, masses


JOINT_WEIGHTS = {"constant": WeightSequence.constant(2),
                 "theta-shift": theta_shift_family(1).weights,
                 "polylog": polylog_family(-0.5).weights}


# The default block holds every law below whole; 3 rows split the root
# row's repeats and halve the rows of every later level.
BLOCKS = [measure._JOINT_BLOCK, 3]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("b", [1, 2, 3, 4])
@pytest.mark.parametrize("family", list(JOINT_WEIGHTS))
def test_double_joint_columns_match_per_atom_masses_bitwise(monkeypatch, family, b, block):
    # The block builder keeps every rounding of the per-tuple products,
    # so supports and masses compare with ==, not a tolerance.
    monkeypatch.setattr(measure, "_JOINT_BLOCK", block)
    theta, n = JOINT_WEIGHTS[family], 24
    keys, masses = per_atom_joint(n, b, *measure._joint_tables(theta, n, b, "double"))
    pmf = joint_cycle_pmf(theta, n, b, "double")
    assert list(pmf.support()) == keys
    assert [pmf[key] for key in keys] == masses
    counts, mass = joint_cycle_columns(theta, n, b)
    assert list(map(tuple, counts.tolist())) == keys
    assert mass.tolist() == masses
    assert max(len(rows) for _, rows in measure.joint_cycle_blocks(theta, n, b)) <= block


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("b", [1, 2, 3])
def test_double_generalized_joint_matches_per_atom_masses_bitwise(monkeypatch, b, block):
    # F(k) = He_k(16 sqrt 2) / 2^{k/2} for b2 = -1/4: positive, not a power.
    monkeypatch.setattr(measure, "_JOINT_BLOCK", block)
    fw, n = exp_polynomial_weights(16, {2: Fraction(-1, 4)}), 20
    tail = _eg_product(fw, range(b + 1, n + 1), n, "double")
    hn = _eg_product(fw, range(1, b + 1), n, "double", acc=tail)[n]
    factors = [_factor_coeffs(fw, m, n // m, "double") for m in range(1, b + 1)]
    keys, masses = per_atom_joint(n, b, factors, tail, hn)
    pmf = generalized_joint_cycle_pmf(fw, n, b, "double")
    assert list(pmf.support()) == keys
    assert [pmf[key] for key in keys] == masses


# -- total number of cycles --------------------------------------------------


def stirling_cycle_row(n):
    # Unsigned Stirling numbers of the first kind, built independently.
    row = [0, 1]
    for size in range(2, n + 1):
        new = [0] * (size + 2)
        for k in range(1, size + 1):
            new[k] = row[k - 1] + (size - 1) * (row[k] if k < len(row) else 0)
        row = new
    return row


def test_total_cycles_matches_stirling():
    theta = WeightSequence.constant(1)
    for n in (1, 5, 12, 20):
        pmf = total_cycles_pmf(theta, n)
        row = stirling_cycle_row(n)
        fact = math.factorial(n)
        for k in range(1, n + 1):
            assert pmf[k] == Fraction(row[k], fact)


def test_total_cycles_grid_consistent_with_single():
    theta = half_integer_weights()
    grid = total_cycles_pmf_many(theta, [4, 9])
    assert dict(grid[9].items()) == dict(total_cycles_pmf(theta, 9).items())
    assert dict(grid[4].items()) == dict(total_cycles_pmf(theta, 4).items())


@pytest.mark.parametrize("weights", [
    WeightSequence.constant(0.5), WeightSequence.constant(1), WeightSequence.constant(2),
    theta_shift_family(1, amp=1, power=2).weights,
], ids=["ewens-1/2", "ewens-1", "ewens-2", "theta-shift"])
def test_truncated_k_law_matches_full_law(weights):
    # The certified columns keep every atom of the full band's law, up to
    # the normalization by their own sum, and leave out at most K_TAIL.
    ns = [100, 400, 1000]
    full = total_cycles_pmf_many(weights, ns, "double")
    cut = total_cycles_pmf_many(weights, ns, "double", max_tail=K_TAIL)
    for n in ns:
        assert 0 <= cut[n].tail_bound <= 1.01 * K_TAIL
        assert cut[n].support() == tuple(range(1, len(cut[n]) + 1))
        for k, p in cut[n].items():
            assert abs(p - full[n][k]) <= 1e-12 * full[n][k]
    assert len(cut[1000]) < 100 and cut[1000].tail_bound > 0


@pytest.mark.parametrize("weights", [
    WeightSequence.constant(Fraction(1, 2)), WeightSequence.constant(2),
    theta_shift_family(1, amp=1, power=2).weights,
], ids=["ewens-1/2", "ewens-2", "theta-shift"])
def test_truncated_k_law_tail_bound_covers_exact_dropped_mass(weights):
    ns = [20, 40, 60]
    cut = total_cycles_pmf_many(weights, ns, "double", max_tail=K_TAIL)
    for n in ns:
        exact = total_cycles_pmf(weights, n)
        kept = len(cut[n])
        dropped = sum(p for k, p in exact.items() if k > kept)
        assert dropped <= Fraction(cut[n].tail_bound)
    assert len(cut[60]) < 60 and 0 < cut[60].tail_bound <= 1.01 * K_TAIL


def test_truncated_k_law_falls_back_to_full_width():
    # theta_m = 2 R^m scales h_n by R^n and leaves the law of K_n that of
    # Ewens 2.  At R = 2, h_1000 = 1001 R^1000 is finite but h_1000(x) =
    # C(999 + 2x, 1000) R^1000 overflows for every x, so no column is
    # certified away; at R = 1.5 the same law is truncated.  A small n
    # keeps every atom.
    ewens = total_cycles_pmf(WeightSequence.constant(2), 1000, "double")
    for r, atoms in ((2.0, 1000), (1.5, None)):
        law = total_cycles_pmf_many(WeightSequence(lambda m: 2 * r**m), [1000], "double",
                                    max_tail=K_TAIL)[1000]
        assert len(law) == atoms if atoms else len(law) < 100
        assert law.tail_bound == 0 if atoms else law.tail_bound > 0
        for k, p in law.items():
            assert abs(p - ewens[k]) <= 1e-12 * ewens[k]
    small = total_cycles_pmf_many(ewens_family(1).weights, [10], "double", max_tail=K_TAIL)[10]
    assert small.support() == tuple(range(1, 11)) and small.tail_bound == 0
    with pytest.raises(UsageError, match="double backend"):
        total_cycles_pmf_many(WeightSequence.constant(1), [10], max_tail=K_TAIL)


def rising(theta, n):
    out = Fraction(1)
    for i in range(n):
        out *= theta + i
    return out


def test_ewens_half_closed_forms_beyond_the_oracle():
    # h_n = theta^(n)/n! and P(K_n = k) = |s(n, k)| theta^k / theta^(n).
    half = Fraction(1, 2)
    theta = WeightSequence.constant(half)
    assert normalization_constants(theta, 200)[200] == rising(half, 200) / math.factorial(200)
    law = total_cycles_pmf(theta, 120)
    row = stirling_cycle_row(120)
    norm = rising(half, 120)
    assert dict(law.items()) == {k: row[k] * half**k / norm for k in range(1, 121)}


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_exact_kernels_match_oracle_for_random_rational_weights(data):
    # theta_m = a/b with a in 0..12, so sparse weights and theta_1 = 0
    # occur; a measure whose h_n vanishes must be refused by both sides.
    n = data.draw(st.integers(1, 12))
    ratio = st.builds(Fraction, st.integers(0, 12), st.integers(1, 12))
    table = [data.draw(ratio) for _ in range(n)]
    theta = WeightSequence(lambda m: float(table[m - 1]), name="table",
                           exact_fn=lambda m: table[m - 1])
    hn = brute_force_normalization(theta, n)
    assert normalization_constants(theta, n)[n] == hn
    if hn == 0:
        for law in (lambda: total_cycles_pmf(theta, n), lambda: brute_force_k_pmf(theta, n)):
            with pytest.raises(DegenerateMeasureError):
                law()
        return
    assert dict(total_cycles_pmf(theta, n).items()) == dict(brute_force_k_pmf(theta, n).items())
    b = min(2, n)
    type_pmf, _ = brute_force_cycle_type_pmf(theta, n)
    projected = {}
    for lam, p in type_pmf.items():
        key = tuple(lam.parts.count(m) for m in range(1, b + 1))
        projected[key] = projected.get(key, 0) + p
    joint = joint_cycle_pmf(theta, n, b)
    assert {k: p for k, p in joint.items() if p} == {k: p for k, p in projected.items() if p}


# -- expected cycle counts ---------------------------------------------------


def test_expected_counts_sum_rule():
    theta = WeightSequence(lambda m: 1.0 + 1.0 / m**2,
                           exact_fn=lambda m: 1 + Fraction(1, m**2))
    for n in (1, 7, 30):
        counts = expected_cycle_counts(theta, n)
        assert sum(m * counts[m - 1] for m in range(1, n + 1)) == n


def test_expected_counts_match_brute_force():
    theta = WeightSequence.constant(2)
    n = 8
    counts = expected_cycle_counts(theta, n)
    type_pmf, _ = brute_force_cycle_type_pmf(theta, n)
    for m in (1, 2, 5):
        mean = sum(p * lam.parts.count(m) for lam, p in type_pmf.items())
        assert counts[m - 1] == mean


def test_sampling_and_expected_counts_refuse_generalized_weights():
    fw = exp_polynomial_weights(1, {2: Fraction(1, 4)})
    for draw in (sample_cycle_type, sample_permutation, measure.sample_cycle_type_parts):
        with pytest.raises(UsageError, match="sampling is defined for weighted families only"):
            draw(fw, 5, seed=1, count=2)
    with pytest.raises(UsageError, match="defined for weighted families only"):
        expected_cycle_counts(fw, 5)


# -- sampling ----------------------------------------------------------------


def test_cycle_type_sampler_deterministic():
    theta = WeightSequence.constant(2)
    a = sample_cycle_type(theta, 10, seed=42, count=5)
    b = sample_cycle_type(theta, 10, seed=42, count=5)
    c = sample_cycle_type(theta, 10, seed=43, count=5)
    assert a == b
    assert a != c


def test_cycle_type_sampler_goodness_of_fit():
    theta = half_integer_weights()
    n, draws = 6, 20000
    samples = sample_cycle_type(theta, n, seed=7, count=draws)
    observed = {}
    for lam in samples:
        observed[lam.parts] = observed.get(lam.parts, 0) + 1
    type_pmf, _ = brute_force_cycle_type_pmf(theta, n)
    keys = sorted(lam.parts for lam in type_pmf.support())
    expected = []
    for k in keys:
        mass = [p for lam, p in type_pmf.items() if lam.parts == k][0]
        expected.append(float(mass) * draws)
    obs = [observed.get(k, 0) for k in keys]
    result = stats.chisquare(obs, expected)
    assert result.pvalue > 1e-3


def test_permutation_sampler_images_are_permutations():
    theta = WeightSequence.constant(Fraction(3, 2))
    perms = sample_permutation(theta, 9, seed=3, count=20)
    for img in perms:
        assert sorted(img) == list(range(1, 10))


def test_permutation_sampler_uniform_when_unit_weights():
    # theta = 1 is the uniform measure on S_4: 24 equally likely images.
    theta = WeightSequence.constant(1)
    draws = 24000
    perms = sample_permutation(theta, 4, seed=11, count=draws)
    counts = {}
    for img in perms:
        counts[img] = counts.get(img, 0) + 1
    assert len(counts) == 24
    result = stats.chisquare(list(counts.values()))
    assert result.pvalue > 1e-3


def test_permutation_sampler_uniform_within_class_under_unequal_weights():
    # P[sigma] = prod_m theta_m^{c_m} / (4! h_4): a block-to-cycle map that
    # favours some members of a cycle type shows up among the 24 images.
    weights = (1.0, 3.0, 0.5, 2.0)
    theta = WeightSequence(lambda m: weights[m - 1] if m <= 4 else 0.0, name="unequal")
    draws = 31000
    counts = {}
    for img in sample_permutation(theta, 4, seed=23, count=draws):
        counts[img] = counts.get(img, 0) + 1

    def weight(img):
        seen, w = set(), 1.0
        for start in range(1, 5):
            length, j = 0, start
            while j not in seen:
                seen.add(j)
                j = img[j - 1]
                length += 1
            w *= weights[length - 1] if length else 1.0
        return w

    images = list(itertools.permutations(range(1, 5)))
    total = sum(weight(img) for img in images)
    assert total == 62.0  # 4! h_4
    expected = [weight(img) / total * draws for img in images]
    result = stats.chisquare([counts.get(img, 0) for img in images], expected)
    assert result.pvalue > 1e-3


def test_length_draw_never_lands_on_a_zero_weight_cycle():
    # Involutions at n = 60: at some remainders s, rounding leaves
    # u * s * h_s for u just below 1 past theta_1 h_{s-1} + theta_2 h_{s-2},
    # the whole mass; the draw must still pick a length of positive weight.
    from cyclemeter.measure import _length_drawer

    theta = WeightSequence(lambda m: 1.0 if m <= 2 else 0.0, name="involutions")
    n, u = 60, math.nextafter(1.0, 0.0)
    h = normalization_constants(theta, n, "double")
    assert any(not h[s - 1] + h[s - 2] > u * s * h[s] for s in range(n, 1, -2))
    assert _length_drawer(theta, n)(lambda: u) == [2] * 30


def test_cycle_type_sampler_memory_is_linear_in_n():
    # One draw keeps h_0..h_n and theta_1..theta_n; a table per remainder
    # would hold n^2/2 = 4.5e6 doubles (36 MB) here.
    theta = WeightSequence.constant(2)
    tracemalloc.start()
    try:
        sample_cycle_type(theta, 3000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_permutation_cycle_type_matches_requested_law():
    theta = WeightSequence.constant(2)
    n, draws = 5, 20000
    perms = sample_permutation(theta, n, seed=19, count=draws)

    def cycle_type(img):
        seen = [False] * (n + 1)
        lengths = []
        for start in range(1, n + 1):
            if seen[start]:
                continue
            length, j = 0, start
            while not seen[j]:
                seen[j] = True
                j = img[j - 1]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    observed = {}
    for img in perms:
        key = cycle_type(img)
        observed[key] = observed.get(key, 0) + 1
    type_pmf, _ = brute_force_cycle_type_pmf(theta, n)
    keys = sorted(lam.parts for lam in type_pmf.support())
    expected = []
    for k in keys:
        mass = [p for lam, p in type_pmf.items() if lam.parts == k][0]
        expected.append(float(mass) * draws)
    obs = [observed.get(k, 0) for k in keys]
    result = stats.chisquare(obs, expected)
    assert result.pvalue > 1e-3


def test_weight_sequence_validation():
    bad = WeightSequence(lambda m: -1.0)
    with pytest.raises(UsageError):
        bad.theta(1)
    with pytest.raises(UsageError):
        WeightSequence.constant(1).theta(0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pmf_rejects_non_finite_mass(bad):
    # nan < 0 and abs(nan - 1) > tol are both false, so NaN needs its own check
    with pytest.raises(UsageError):
        Pmf({1: bad}, tol=1e-9)
    with pytest.raises(UsageError):
        Pmf({1: 1.0}, tol=1e-9, tail_bound=bad)


@pytest.mark.parametrize("cls, arity", [(WeightSequence, 1), (GeneralizedWeights, 2)])
def test_weight_handles_share_one_rule(cls, arity):
    # Both handles take their rule through one base: the callable check,
    # has_exact_rule, the repr, and overflow read as inf, then refused.
    with pytest.raises(UsageError, match="eval_fn must be callable"):
        cls(1.5)
    plain = cls(lambda *index: 0.5, name="plain")
    exact = cls(lambda *index: 0.5, name="exact", exact_fn=lambda *index: Fraction(1, 2))
    assert (plain.has_exact_rule, exact.has_exact_rule) == (False, True)
    assert repr(plain) == f"{cls.__name__}(plain)"
    huge = cls(lambda *index: 10**400, name="huge")
    with pytest.raises(UsageError, match="finite"):
        huge.at(*(1,) * arity, "double")
    for backend in ("exact", "double"):
        with pytest.raises(UsageError, match="finite"):
            brute_force_normalization(huge, 3, backend)


@pytest.mark.parametrize("handle", [
    WeightSequence(lambda m: 1 / m, exact_fn=lambda m: Fraction(1, m)),
    exp_polynomial_weights(Fraction(1, 2), {2: Fraction(1, 3), 3: Fraction(1, 5)})],
    ids=["weighted", "exp-poly"])
@pytest.mark.parametrize("above", [0, 3, 9, 14])
def test_log_series_keeps_its_order_whatever_above(handle, above):
    # order + 1 coefficients in every part, those of t^m with m <= above
    # zeroed, for above up to and past the order.
    order = 9
    for part in handle.log_series(order, "exact", above=above):
        assert len(part.coeffs) == order + 1
        assert all(c == 0 for c in part.coeffs[:above + 1])
