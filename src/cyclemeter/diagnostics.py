"""Distances between exact finite-n laws and their limit approximations.

Everything here compares an exact pmf (from measure/generalized) with a
reference law (Poisson, product Poisson, normal, mod-Poisson limit) and
packages the result as ComparisonReport rows ready for serialization.

Distances:

* d_loc -- sup_j |p(j) - q(j)|  (local / pointwise);
* d_K   -- sup_x |F_p(x) - F_q(x)|  (Kolmogorov);
* tv    -- (1/2) sum |p - q|  (total variation).

Infinite reference laws are truncated once their cumulative mass is
within 1e-15 of 1; the discarded tail is carried on the Pmf and added to
every distance as an upper-bound correction, so reported values are
honest upper estimates.  The clt, poisson-k and large-dev laws of K_n
are truncated the same way, at the measure.K_TAIL certified by
total_cycles_pmf_many; mod-poisson keeps every atom, as its references
pin that kernel's rounding.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Optional, Sequence

from .asymptotics import WeightFamily, large_deviation_estimate, mod_poisson_limit
from .errors import ResourceError, UsageError
from .measure import joint_cycle_blocks, total_cycles_pmf_many
from .pmf import Pmf
from .specfun import normal_cdf, poisson_pmf

POISSON_TAIL = 1e-15
_POISSON_LAM_MAX = 1e7  # about lam atoms are tabulated, some 10 s at this size


def truncated_poisson(lam: float) -> Pmf:
    """Poisson(lam) truncated once cumulative mass reaches 1 - POISSON_TAIL."""
    if lam <= 0:
        raise UsageError(f"Poisson intensity must be > 0, got {lam}")
    if lam > _POISSON_LAM_MAX:
        raise ResourceError(f"Poisson intensity {lam} exceeds {_POISSON_LAM_MAX:g}")
    mass = {}
    cumulative = 0.0
    k = 0
    cap = int(lam + 40.0 * math.sqrt(lam) + 60.0)
    while cumulative < 1.0 - POISSON_TAIL and k <= cap:
        p = poisson_pmf(lam, k)
        mass[k] = p
        cumulative += p
        k += 1
    return Pmf(mass, tail_bound=max(0.0, 1.0 - cumulative))


def _int_keys(p: Pmf, name: str) -> None:
    for key in p.support():
        if not isinstance(key, int):
            raise UsageError(f"{name} requires integer-valued pmfs, found key {key!r}")


def _tail_correction(p: Pmf, q: Pmf) -> float:
    return float(p.tail_bound) + float(q.tail_bound)


def d_loc(p: Pmf, q: Pmf) -> float:
    """sup_j |p(j) - q(j)| over the union of supports (plus tail bounds)."""
    _int_keys(p, "d_loc")
    _int_keys(q, "d_loc")
    keys = set(p.support()) | set(q.support())
    best = max(abs(float(p[k]) - float(q[k])) for k in keys)
    return best + _tail_correction(p, q)


def d_K(p: Pmf, q: Pmf) -> float:
    """Kolmogorov distance sup_x |F_p(x) - F_q(x)| (plus tail bounds)."""
    _int_keys(p, "d_K")
    _int_keys(q, "d_K")
    keys = sorted(set(p.support()) | set(q.support()))
    fp = fq = 0.0
    best = 0.0
    for k in keys:
        fp += float(p[k])
        fq += float(q[k])
        best = max(best, abs(fp - fq))
    return best + _tail_correction(p, q)


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation (1/2) sum |p - q| over the union (plus tail bounds)."""
    keys = set(p.support()) | set(q.support())
    acc = sum(abs(float(p[k]) - float(q[k])) for k in keys)
    return 0.5 * acc + _tail_correction(p, q)


class ComparisonReport:
    """One metric tracked along an n-grid against a reference decay rate."""

    def __init__(self, metric: str, n_values: list, values: list, reference_rate: str,
                 reference_values: list, label: str = ""):
        self.metric, self.n_values, self.values = metric, n_values, values
        self.reference_rate, self.reference_values = reference_rate, reference_values
        self.label = label
        self.fitted_slope = _fit_slope(n_values, values)

    def metric_label(self) -> str:
        return f"{self.metric}({self.label})" if self.label else self.metric

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "label": self.label,
            "n_values": list(self.n_values),
            "values": list(self.values),
            "reference_rate": self.reference_rate,
            "reference_values": list(self.reference_values),
            "fitted_slope": self.fitted_slope,
        }


def _fit_slope(n_values: Sequence[int], values: Sequence[float]) -> Optional[float]:
    """Log-log least-squares slope of values against n; None without two distinct n."""
    if len(set(n_values)) < 2 or any(v <= 0 for v in values):
        return None
    xs, ys = [math.log(n) for n in n_values], [math.log(v) for v in values]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
            / sum((x - x_bar) ** 2 for x in xs))


def _reference(family: WeightFamily, n_values: Sequence[int]) -> tuple:
    """Reference decay of the transfer error term: 1/n for class F,
    log(n)/n^gamma for class eF."""
    cls = family.cls
    if cls.kind == "F":
        return "1/n", [1.0 / n for n in n_values]
    gamma = cls.gamma or 1.0
    return "log(n)/n^gamma", [math.log(n) / n**gamma for n in n_values]


def poisson_vector_report(family: WeightFamily, b: int,
                          n_values: Sequence[int]) -> list:
    """Exact law of (C_1..C_b) vs the product Poisson(theta_m r^m / m) limit.

    Emits total-variation and pointwise-sup rows; mass the product law
    puts outside the exact support enters both as an upper bound.  The law
    streams in as joint_cycle_blocks (tuples in lexicographic order, a
    bounded number per block), so memory does not grow with the support.
    Products run left to right in m, and sums left to right over the
    tuples (np.add.accumulate, carried from block to block), as the
    references pin their rounding.
    """
    cls = family.cls
    ns = _check_grid(n_values)
    lams = [family.weights.theta(m) * cls.r**m / m for m in range(1, b + 1)]
    if any(l <= 0 for l in lams):
        raise UsageError("product-Poisson limit needs positive theta_1..theta_b")
    import numpy as np
    tv_values, loc_values = [], []
    for n in ns:
        rows = [np.array([poisson_pmf(lams[m - 1], c) for c in range(n // m + 1)])
                for m in range(1, b + 1)]
        sum_diff = sum_q = max_diff = 0.0
        for counts, p_mass in joint_cycle_blocks(family.weights, n, b):
            q_mass = np.ones(len(p_mass))
            for m, row in enumerate(rows):
                q_mass = q_mass * row[counts[:, m]]
            diff = np.abs(p_mass - q_mass)
            sum_diff = float(np.add.accumulate(np.concatenate(([sum_diff], diff)))[-1])
            sum_q = float(np.add.accumulate(np.concatenate(([sum_q], q_mass)))[-1])
            max_diff = max(max_diff, float(diff.max()))
        outside = max(0.0, 1.0 - sum_q)
        tv_values.append(0.5 * sum_diff + 0.5 * outside)
        loc_values.append(max(max_diff, outside))
    rate, ref = _reference(family, ns)
    return [
        ComparisonReport("tv", ns, tv_values, rate, ref),
        ComparisonReport("d_loc", ns, loc_values, rate, ref, label="vector-pointwise"),
    ]


def mod_poisson_report(family: WeightFamily, n_values: Sequence[int],
                       s_grid: Sequence[float]) -> list:
    """sup_s |e^{lambda_n (1-e^{is})} E[e^{is K_n}] - Gamma(theta)/Gamma(theta e^{is})|.

    Primary parameter lambda_n = K + theta log n.  A second row uses
    lambda_n = theta log n, whose limit picks up the factor
    e^{K (e^{is}-1)}; that variant needs no knowledge of K, so both are
    reported.
    """
    cls = family.cls
    if cls.theta <= 0:
        raise UsageError("mod-Poisson limit needs theta > 0")
    ns = _check_grid(n_values)
    ss = [float(s) for s in s_grid]
    if not ss:
        raise UsageError("s_grid must be nonempty")
    if not all(map(math.isfinite, ss)):
        raise UsageError(f"s_grid values must be finite, got {ss}")
    import numpy as np
    pmfs = total_cycles_pmf_many(family.weights, ns, backend="double")
    values_primary = []
    values_bare = []
    for n in ns:
        pmf = pmfs[n]
        ks = np.array(pmf.support(), dtype=float)
        probs = np.array([pmf[int(k)] for k in pmf.support()])
        lam_primary = cls.K + cls.theta * math.log(n)
        lam_bare = cls.theta * math.log(n)
        worst_primary = 0.0
        worst_bare = 0.0
        for s in ss:
            char_fn = complex(np.sum(probs * np.exp(1j * s * ks)))
            limit = mod_poisson_limit(cls.theta, s)
            eis = complex(math.cos(s), math.sin(s))
            resid_p = abs(np.exp(lam_primary * (1 - eis)) * char_fn - limit)
            resid_b = abs(np.exp(lam_bare * (1 - eis)) * char_fn
                          - np.exp(cls.K * (eis - 1)) * limit)
            worst_primary = max(worst_primary, resid_p)
            worst_bare = max(worst_bare, resid_b)
        values_primary.append(worst_primary)
        values_bare.append(worst_bare)
    rate, ref = _reference(family, ns)
    return [
        ComparisonReport("sup-char-fn", ns, values_primary, rate, ref,
                         label="lambda=K+theta*log(n)"),
        ComparisonReport("sup-char-fn", ns, values_bare, rate, ref,
                         label="lambda=theta*log(n)"),
    ]


def clt_report(family: WeightFamily, n_values: Sequence[int]) -> list:
    """Kolmogorov distance of (K_n - theta log n)/sqrt(theta log n) to N(0,1).

    A second row uses the normalization theta*sqrt(log n); the two only
    agree at theta = 1, and the sqrt(theta log n) row is the one with a
    genuine Gaussian limit.
    """
    cls = family.cls
    if cls.theta <= 0:
        raise UsageError("CLT normalization needs theta > 0")
    ns = _check_grid(n_values)
    pmfs = total_cycles_pmf_many(family.weights, ns, "double", keep_k=0)
    primary = []
    alt = []
    for n in ns:
        pmf = pmfs[n]
        center = cls.theta * math.log(n)
        primary.append(_lattice_vs_normal(pmf, center, math.sqrt(cls.theta * math.log(n))))
        alt.append(_lattice_vs_normal(pmf, center, cls.theta * math.sqrt(math.log(n))))
    ref_rate = "1/sqrt(log n)"
    ref = [1.0 / math.sqrt(math.log(n)) for n in ns]
    return [
        ComparisonReport("d_K", ns, primary, ref_rate, ref,
                         label="normalization=sqrt(theta*log n)"),
        ComparisonReport("d_K", ns, alt, ref_rate, ref,
                         label="normalization=theta*sqrt(log n)"),
    ]


def _lattice_vs_normal(pmf: Pmf, center: float, scale: float) -> float:
    if scale <= 0:
        raise UsageError("normalization scale must be > 0")
    best = 0.0
    cdf = 0.0
    for k in pmf.support():
        x = (k - center) / scale
        phi = normal_cdf(x)
        best = max(best, abs(cdf - phi))  # left limit at the atom
        cdf += float(pmf[k])
        best = max(best, abs(cdf - phi))
    return best


def poisson_k_approx_report(family: WeightFamily, n_values: Sequence[int]) -> list:
    """d_loc and d_K between the law of K_n and Poisson(K + theta log n)."""
    cls = family.cls
    if cls.theta <= 0:
        raise UsageError("Poisson approximation needs theta > 0")
    ns = _check_grid(n_values)
    pmfs = total_cycles_pmf_many(family.weights, ns, "double", keep_k=0)
    loc_values = []
    kol_values = []
    for n in ns:
        lam = cls.K + cls.theta * math.log(n)
        reference = truncated_poisson(lam)
        loc_values.append(d_loc(pmfs[n], reference))
        kol_values.append(d_K(pmfs[n], reference))
    return [
        ComparisonReport("d_loc", ns, loc_values, "1/log(n)",
                         [1.0 / math.log(n) for n in ns]),
        ComparisonReport("d_K", ns, kol_values, "1/sqrt(log(n))",
                         [1.0 / math.sqrt(math.log(n)) for n in ns]),
    ]


def large_deviation_table(family: WeightFamily, n: int, k: Optional[int] = None,
                          sigmas: float = 3.0) -> dict:
    """Sharp tail estimate vs the exact P[K_n = k] at one (n, k).

    k defaults to round(E[K_n] + sigmas * sd), a point out in the upper
    tail; pass k explicitly to pin the evaluation spot instead.  The law
    of K_n is truncated at measure.K_TAIL, keeping its atoms through k.
    """
    cls = family.cls
    if cls.theta <= 0:
        raise UsageError("large-deviation estimate needs theta > 0")

    keep_k = k if k is not None and 1 <= k <= n else 0
    pmf = total_cycles_pmf_many(family.weights, [n], "double", keep_k)[n]
    mean = float(pmf.mean())
    sd = math.sqrt(float(pmf.variance()))
    if k is None:
        k = int(round(mean + sigmas * sd))
    if not 1 <= k <= n:
        raise UsageError(f"k = {k} outside support 1..{n}")
    if k not in pmf:  # a default k past the certified columns
        pmf = total_cycles_pmf_many(family.weights, [n], "double", k)[n]
    if not (exact := float(pmf[k])):
        raise UsageError(f"P[K_n = k] underflows to 0 in doubles at n = {n}, k = {k}")
    est = large_deviation_estimate(cls.theta, cls.K, n, k)
    rel = abs(est.estimate - exact) / exact
    return {
        "n": n,
        "k": k,
        "mean": mean,
        "sd": sd,
        "t_n": est.t_n,
        "x": est.x,
        "estimate": est.estimate,
        "exact": exact,
        "rel_error": rel,
        "rate_I": est.rate,
        "tilt_h": est.tilt,
    }


def _check_grid(n_values: Sequence[int]) -> list:
    ns = list(n_values)
    if not ns or any((not isinstance(n, int)) or n < 2 for n in ns):
        raise UsageError(f"n grid must contain integers >= 2, got {n_values!r}")
    return ns


# -- deterministic serialization --------------------------------------------


def format_scalar(x) -> str:
    """17-significant-digit (round-trip safe) rendering of a float."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise UsageError(f"cannot serialize non-finite value {x}")
        return format(x, ".17g")
    raise UsageError(f"cannot serialize {x!r}")


def _json_value(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (bool, int, float)):
        return format_scalar(obj)
    if isinstance(obj, (list, tuple)):
        if obj and set(map(type, obj)) <= {list, tuple} and set(
                map(type, chain.from_iterable(obj))) <= {int}:  # exact ints: no bool
            import json  # its C encoder writes int rows in the bytes of the join below
            return json.dumps(obj)
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise UsageError("JSON object keys must be strings")
            parts.append(_json_value(key) + ": " + _json_value(value))
        return "{" + ", ".join(parts) + "}"
    raise UsageError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_deterministic(obj) -> str:
    """JSON with floats at 17 significant digits; byte-stable output."""
    return _json_value(obj)


def _csv_cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (list, tuple)):
        return " ".join(str(c) for c in cell)
    return format_scalar(cell)


def dumps_csv(rows) -> str:
    """One CSV line per row: None is empty, a str is kept, a list is
    space-joined, and any other cell is a scalar rendered by format_scalar."""
    return "\n".join(",".join(_csv_cell(cell) for cell in row) for row in rows) + "\n"


def report_rows(reports: Sequence[ComparisonReport]) -> list:
    """A header and one row per (report, n) for dumps_csv."""
    return [["n", "metric", "value", "reference_rate_value"]] + [
        [n, report.metric_label(), float(value), float(ref)] for report in reports
        for n, value, ref in zip(report.n_values, report.values, report.reference_values)]
