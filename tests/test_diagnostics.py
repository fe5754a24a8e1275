"""Probability distances, Poisson truncation, and report serialization.

Oracles: hand-computed distances on tiny distributions, the standard
inequalities d_loc <= 2 tv and d_K <= tv on pseudo-random laws, and
direct Poisson sums.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemeter import measure
from cyclemeter.asymptotics import theta_shift_family
from cyclemeter.diagnostics import (ComparisonReport, d_K, d_loc, dumps_csv,
                                    dumps_deterministic, format_scalar,
                                    poisson_vector_report, report_rows,
                                    truncated_poisson, tv_distance)
from cyclemeter.errors import UsageError
from cyclemeter.measure import joint_cycle_pmf
from cyclemeter.specfun import poisson_pmf
from cyclemeter.pmf import Pmf


def test_distances_hand_values():
    p = Pmf({0: Fraction(1, 2), 1: Fraction(1, 2)})
    q = Pmf({0: Fraction(1, 4), 2: Fraction(3, 4)})
    # tv = (1/2)(|1/2-1/4| + |1/2-0| + |0-3/4|) = 3/4.
    assert tv_distance(p, q) == pytest.approx(0.75, abs=1e-15)
    # d_loc = max pointwise gap = 3/4 (at 2).
    assert d_loc(p, q) == pytest.approx(0.75, abs=1e-15)
    # cdfs: at 0: 1/2 vs 1/4; at 1: 1 vs 1/4; at 2: 1 vs 1.
    assert d_K(p, q) == pytest.approx(0.75, abs=1e-15)


def test_distance_of_identical_laws_is_zero():
    p = Pmf({3: Fraction(1, 3), 7: Fraction(2, 3)})
    assert tv_distance(p, p) == 0
    assert d_loc(p, p) == 0
    assert d_K(p, p) == 0


def random_integer_pmf(rng, span):
    raw = rng.random(span) + 1e-3
    raw /= raw.sum()
    raw[-1] += 1.0 - raw.sum()
    return Pmf({k: raw[k] for k in range(span)})


def test_distance_inequalities():
    rng = np.random.default_rng(314159)
    for _ in range(25):
        p = random_integer_pmf(rng, 9)
        q = random_integer_pmf(rng, 9)
        tv = tv_distance(p, q)
        assert d_loc(p, q) <= 2 * tv + 1e-12
        assert d_K(p, q) <= tv + 1e-12
        assert tv <= 1 + 1e-12


def test_kolmogorov_needs_integer_support():
    p = Pmf({(0,): Fraction(1)})
    with pytest.raises(UsageError):
        d_K(p, p)
    with pytest.raises(UsageError):
        d_loc(p, p)


def test_truncated_poisson_atoms():
    lam = 2.5
    p = truncated_poisson(lam)
    for k in (0, 1, 5, 11):
        ref = math.exp(-lam) * lam**k / math.factorial(k)
        assert p[k] == pytest.approx(ref, rel=1e-13)
    assert p.tail_bound <= 1e-14
    assert sum(v for _, v in p.items()) + p.tail_bound == pytest.approx(1.0, abs=1e-12)


def test_truncated_poisson_tail_counts_in_distances():
    # Distances between a law and its own truncation stay below the
    # retained tail mass.
    lam = 4.0
    fine = truncated_poisson(lam)
    mass, k = {}, 0
    while sum(mass.values()) < 1 - 1e-6:
        mass[k] = poisson_pmf(lam, k)
        k += 1
    coarse = Pmf(mass, tail_bound=1 - sum(mass.values()))
    assert tv_distance(fine, coarse) <= 2e-6
    assert d_K(fine, coarse) <= 2e-6


def test_format_scalar_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = float(rng.standard_normal()) * 10.0 ** int(rng.integers(-12, 12))
        assert float(format_scalar(x)) == x
    with pytest.raises(UsageError):
        format_scalar(math.inf)


def test_dumps_deterministic_shape():
    doc = {"b": [1.5, None, True], "a": {"x": 2}}
    text = dumps_deterministic(doc)
    assert text == '{"b": [1.5, null, true], "a": {"x": 2}}'
    assert dumps_deterministic(doc) == text


def reference_json(obj) -> str:
    """dumps_deterministic without its one-call path for rows of ints."""
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (bool, int, float)):
        return format_scalar(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise UsageError("JSON object keys must be strings")
            parts.append(reference_json(key) + ": " + reference_json(value))
        return "{" + ", ".join(parts) + "}"
    raise UsageError(f"cannot serialize {type(obj).__name__} to JSON")


_INTS = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200),
                  st.integers(max_value=-1))
_TEXT = st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\n\té\u2028\U0001f600a'))
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(_INTS, st.booleans(), st.none(), _TEXT, _FLOATS)
_ROW_KINDS = (st.lists(_INTS, max_size=5), st.lists(_INTS, max_size=5).map(tuple),
              st.lists(st.one_of(_INTS, _FLOATS), max_size=3),
              st.lists(st.one_of(_INTS, _TEXT), max_size=3), st.lists(_SCALARS, max_size=3))
_ROWS = st.one_of(*(st.lists(kind, max_size=6) for kind in _ROW_KINDS),
                  st.lists(st.one_of(*_ROW_KINDS), max_size=6))  # uniform rows, then ragged
_DOCS = st.recursive(st.one_of(_SCALARS, _ROWS), lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_TEXT, inner, max_size=4)), max_leaves=20)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(doc=_DOCS)
def test_serializer_equals_one_call_per_value_reference(doc):
    # int rows take a one-call path; every byte must stay what it was
    assert dumps_deterministic(doc) == reference_json(doc)


@pytest.mark.parametrize("doc", [
    [[1, 2], [3, math.inf]], [[1], [math.nan]], {1: [[1, 2]]}, {"a": 1, 2: 3},
    [[1, np.int64(2)]], [np.int64(2)], {"rows": {1, 2}}, [[1], {1}]])
def test_serializer_refusals_are_kept(doc):
    for serialize in (dumps_deterministic, reference_json):
        with pytest.raises(UsageError):
            serialize(doc)


def sample_report():
    return ComparisonReport(metric="tv", n_values=[10, 20],
                            values=[0.25, 0.125], reference_rate="1/n",
                            reference_values=[0.1, 0.05], label="demo")


def test_report_serialization_deterministic():
    reports = [sample_report()]
    doc = {"reports": [r.to_dict() for r in reports]}
    assert dumps_deterministic(doc) == dumps_deterministic(doc)
    csv_text = dumps_csv(report_rows(reports))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "n,metric,value,reference_rate_value"
    assert lines[1].startswith("10,tv(demo),0.25")
    assert len(lines) == 3


def test_report_to_dict_keys():
    d = sample_report().to_dict()
    assert set(d) == {"metric", "label", "n_values", "values",
                      "reference_rate", "reference_values", "fitted_slope"}


def test_report_fits_its_own_slope():
    # values halving as n doubles have log-log slope -1; one distinct n has none
    assert sample_report().fitted_slope == pytest.approx(-1.0, rel=1e-12)
    assert ComparisonReport("tv", [10, 10], [0.5, 0.25], "1/n", [0.1, 0.1]).fitted_slope is None
    with pytest.raises(TypeError):
        ComparisonReport("tv", [10, 20], [0.5, 0.25], "1/n", [0.1, 0.05], fitted_slope=-1.0)


def test_report_takes_its_fields_in_order():
    report = ComparisonReport("d_K", [10, 20], [0.5, 0.25], "1/n", [0.1, 0.05], "alt")
    assert (report.metric, report.n_values, report.values, report.reference_rate,
            report.reference_values, report.label) == ("d_K", [10, 20], [0.5, 0.25], "1/n",
                                                       [0.1, 0.05], "alt")
    assert report.metric_label() == "d_K(alt)"
    assert report.fitted_slope == pytest.approx(-1.0, rel=1e-12)
    report.label = ""
    assert report.metric_label() == "d_K"


def reference_poisson_vector(family, b, n):
    """(tv, d_loc) of the double joint law against the product Poisson
    limit, one tuple at a time with sequential float sums."""
    cls = family.cls
    lams = [family.weights.theta(m) * cls.r**m / m for m in range(1, b + 1)]
    acc_abs = acc_q = best = 0.0
    for key, p_mass in joint_cycle_pmf(family.weights, n, b, "double").items():
        q_mass = 1.0
        for m, c in enumerate(key, 1):
            q_mass *= poisson_pmf(lams[m - 1], c)
        acc_abs += abs(p_mass - q_mass)
        acc_q += q_mass
        best = max(best, abs(p_mass - q_mass))
    outside = max(0.0, 1.0 - acc_q)
    return 0.5 * acc_abs + 0.5 * outside, max(best, outside)


@pytest.mark.parametrize("block", [measure._JOINT_BLOCK, 5])
@pytest.mark.parametrize("b", [1, 2, 3])
def test_poisson_vector_report_matches_sequential_reference_bitwise(monkeypatch, b, block):
    # The references pin these values to the last bit: the block sums
    # must add left to right in lexicographic order, carried across
    # blocks, as this loop does.  5-row blocks put many carries in each law.
    monkeypatch.setattr(measure, "_JOINT_BLOCK", block)
    family, ns = theta_shift_family(1), [30, 60]
    tv, loc = poisson_vector_report(family, b, ns)
    expected = [reference_poisson_vector(family, b, n) for n in ns]
    assert tv.values == [e[0] for e in expected]
    assert loc.values == [e[1] for e in expected]


def test_poisson_vector_report_memory_is_bounded_by_the_block():
    # The whole law at n = 200, b = 3 is 234,073 tuples, over 11 MB as
    # (b + 3) columns of 8 bytes; the report holds one block at a time.
    tracemalloc.start()
    try:
        poisson_vector_report(theta_shift_family(1), 3, [200])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
