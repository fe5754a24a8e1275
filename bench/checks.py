"""Output checks: a fast wrong answer counts as a failed command.

* Exact values (rational strings ``p/q`` in ``--backend exact`` output)
  must equal the reference as Fractions.
* Double values must agree to ``REL_TOL`` relative, with an absolute
  floor of ``ABS_FLOOR``; a pmf atom missing on one side counts as 0, so
  a law truncated at a certified 1e-12 tail still passes.
* ``--oracle`` commands must report ``"match"``.
* Samples must be valid partitions of n or bijections of 1..n, and
  carry the statistical test their command names.

No check compares stdout bytes: a new random stream or a truncated
double kernel changes bytes without changing the answer.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

REL_TOL = 1e-9
ABS_FLOOR = 1e-11
CHI2_MIN_P = 1e-3
MEAN_Z_MAX = 5.0


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_FLOOR


def check_output(cmd, stdout: bytes, refs: dict) -> list:
    """Problems found in one command's stdout; empty when it is right."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if cmd.check["kind"] == "sample":
        return check_samples(doc, cmd.check, refs)
    if cmd.key not in refs["outputs"]:
        return [f"no reference for {cmd.key!r}"]
    problems = []
    if "--oracle" in cmd.argv and doc.get("oracle") != "match":
        problems.append(f"oracle field is {doc.get('oracle')!r}, not 'match'")
    problems += compare(doc, refs["outputs"][cmd.key])
    return problems


def compare(doc, ref, path: str = "$") -> list:
    """Compare an output document with its reference, recursively.

    Keys the reference lacks are ignored (an additive output key is not
    an error); pmf documents are compared atom by atom.
    """
    if isinstance(ref, dict):
        if not isinstance(doc, dict):
            return [f"{path}: expected an object"]
        if "support" in ref and "mass" in ref:
            return _compare_pmf(doc, ref, path)
        problems = []
        for key, value in ref.items():
            if key not in doc:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += compare(doc[key], value, f"{path}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(doc, list) or len(doc) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        problems = []
        for i, (d, r) in enumerate(zip(doc, ref)):
            problems += compare(d, r, f"{path}[{i}]")
        return problems
    return _compare_scalar(doc, ref, path)


def _compare_scalar(doc, ref, path: str) -> list:
    if isinstance(ref, bool) or ref is None:
        ok = doc is ref
    elif isinstance(ref, int) and isinstance(doc, int) and not isinstance(doc, bool):
        ok = doc == ref
    elif isinstance(ref, (int, float)):
        ok = isinstance(doc, (int, float)) and not isinstance(doc, bool) and close(doc, ref)
    elif isinstance(ref, str) and _is_rational(ref):
        ok = isinstance(doc, str) and _is_rational(doc) and Fraction(doc) == Fraction(ref)
    else:
        ok = doc == ref
    return [] if ok else [f"{path}: got {_short(doc)}, expected {_short(ref)}"]


def _compare_pmf(doc, ref, path: str) -> list:
    rest = {key: value for key, value in ref.items() if key not in ("support", "mass")}
    problems = compare(doc, rest, path)
    try:
        got = _atoms(doc["support"], doc["mass"])
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"{path}: bad support/mass: {exc}"]
    want = _atoms(ref["support"], ref["mass"])
    if ref.get("backend") == "exact":
        if set(got) != set(want):
            return problems + [f"{path}: support differs from the reference"]
        if not all(isinstance(v, str) and _is_rational(v) for v in got.values()):
            return problems + [f"{path}: exact masses must be rational strings"]
        for key, value in want.items():
            if Fraction(got[key]) != Fraction(value):
                problems.append(f"{path}: mass at {key} is {got[key]}, expected {value}")
        if sum(Fraction(v) for v in got.values()) != 1:
            problems.append(f"{path}: exact masses do not sum to 1")
        return problems
    for key in set(got) | set(want):
        a, b = got.get(key, 0.0), want.get(key, 0.0)
        if not isinstance(a, (int, float)) or not close(a, b):
            problems.append(f"{path}: mass at {key} is {a}, expected {b}")
    return problems


def _atoms(support, mass) -> dict:
    if len(support) != len(mass):
        raise ValueError("support and mass differ in length")
    return {tuple(k) if isinstance(k, list) else k: v for k, v in zip(support, mass)}


def _is_rational(text: str) -> bool:
    num, _, den = text.partition("/")
    return num.lstrip("-").isdigit() and (not den or den.isdigit())


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


# -- samples -----------------------------------------------------------------


def check_samples(doc, spec: dict, refs: dict) -> list:
    n, count = spec["n"], spec["count"]
    samples = doc.get("samples") if isinstance(doc, dict) else None
    if not isinstance(samples, list) or len(samples) != count:
        return [f"expected {count} samples"]
    valid = is_partition if spec["draw"] == "cycle-type" else is_permutation
    bad = [i for i, s in enumerate(samples) if not valid(s, n)]
    if bad:
        return [f"{len(bad)} invalid {spec['draw']} draws, first at index {bad[0]}"]
    test = spec.get("test")
    if test == "chi2-ewens":
        p = chi2_pvalue(samples, ewens_cycle_type_law(Fraction(spec["theta"]), n))
        if not p > CHI2_MIN_P:
            return [f"chi-square p = {p:.3g} against the Ewens law"]
    elif test == "mean-k":
        mean = sum(len(s) for s in samples) / count
        ref = refs["constants"][spec["ref"]]
        z = abs(mean - ref["mean"]) / math.sqrt(ref["var"] / count)
        if not z <= MEAN_Z_MAX:
            return [f"mean K = {mean:.6g} is {z:.3g} sd from E[K] = {ref['mean']:.6g}"]
    return []


def is_partition(parts, n: int) -> bool:
    return (isinstance(parts, list) and all(isinstance(p, int) and p >= 1 for p in parts)
            and sum(parts) == n and all(a >= b for a, b in zip(parts, parts[1:])))


def is_permutation(image, n: int) -> bool:
    return (isinstance(image, list) and len(image) == n
            and all(isinstance(v, int) for v in image) and set(image) == set(range(1, n + 1)))


def partitions(n: int, largest: int = None):
    """Partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def ewens_cycle_type_law(theta: Fraction, n: int) -> dict:
    """Ewens sampling formula: P(lambda) proportional to theta^len / z_lambda."""
    weights = {}
    for lam in partitions(n):
        z = 1
        for m in set(lam):
            c = lam.count(m)
            z *= m ** c * math.factorial(c)
        weights[lam] = theta ** len(lam) / z
    total = sum(weights.values())
    return {lam: w / total for lam, w in weights.items()}


def chi2_pvalue(samples, law: dict) -> float:
    from scipy.stats import chi2

    observed = dict.fromkeys(law, 0)
    for s in samples:
        observed[tuple(s)] += 1
    count = len(samples)
    stat = sum((observed[lam] - count * float(p)) ** 2 / (count * float(p))
               for lam, p in law.items())
    return float(chi2.sf(stat, len(law) - 1))
