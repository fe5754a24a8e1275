"""Regenerate bench/refs.json, the reference values of the output checks.

Usage: python3 bench/make_refs.py

Runs every non-sampling command of the three workloads through the CLI
and stores its parsed output.  Before anything is written, the values
are cross-checked with this file's own arithmetic, which shares no code
with the package:

* hn: the recurrence n h_n = sum_k theta_k h_{n-k} (exact Fractions, or
  floats to 1e-12 for the double grid);
* exact laws with n <= 40: a partition sum over all cycle types;
* larger Ewens laws, exact or double: the unsigned Stirling numbers,
  P(K_n = k) = theta^k |s(n,k)| / theta^(n);
* the theta-shift K_50 law: its atoms at k = 1 and k = n and its mean
  against sum_m theta_m h_{n-m} / (m h_n);
* report large-dev (Ewens 1): mean, sd and the exact atom; report clt
  (Ewens 1): both Kolmogorov distances, recomputed from the Stirling law.

The other report values (poisson-k, mod-poisson, poisson-vector, the
alpha-exp clt) are the seed's output, checked only through the laws
above.  It also stores E[K_50] and Var[K_50] of theta-shift(1, 1, 2),
which the sampling workload's mean check uses.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import checks
import workloads
from procs import Spawner
from run import BENCH, ROOT, Runner

F = Fraction


def family_of(argv) -> tuple:
    """(name, theta_k as a Fraction) of the weighted families cross-checked here."""
    flags = dict(zip(argv, argv[1:]))
    family = flags.get("--family")
    if family == "ewens":
        value = F(flags["--theta"])
        return f"ewens {value}", lambda k: value
    if family == "theta-shift" and (flags.get("--theta"), flags.get("--amp", "1"),
                                    flags.get("--power", "2")) == ("1", "1", "2"):
        return "theta-shift", lambda k: 1 + F(1, k * k)
    if "--delta=-1/2" in argv:
        return "polylog", lambda k: F(float(k) ** 0.5)
    if family == "grid2":  # decays 1, 1/2 in families.ini
        return "spatial", lambda k: 1 + F(1, 2 ** k)
    if family == "exp-poly" and flags.get("--theta") == "1" and not any(
            a.startswith("--b") for a in argv):
        return "uniform", lambda k: F(1)  # F_m(k) = 1: the uniform measure
    return None, None


def h_recurrence(theta, n_max: int) -> list:
    h = [F(1)]
    for n in range(1, n_max + 1):
        h.append(sum(theta(k) * h[n - k] for k in range(1, n + 1)) / n)
    return h


def stirling_row(n: int) -> list:
    """Unsigned Stirling numbers of the first kind |s(n, k)|, k = 0..n."""
    row = [1]
    for m in range(n):
        nxt = [0] * (len(row) + 1)
        for k, c in enumerate(row):
            nxt[k] += m * c
            nxt[k + 1] += c
        row = nxt
    return row


def ewens_k_law(theta: Fraction, n: int) -> dict:
    row = stirling_row(n)
    rising = math.prod(theta + i for i in range(n))
    return {k: theta ** k * row[k] / rising for k in range(1, n + 1)}


def partition_law(theta, n: int) -> dict:
    weights = {}
    for lam in checks.partitions(n):
        w = F(1)
        for m in set(lam):
            c = lam.count(m)
            w *= theta(m) ** c / (m ** c * math.factorial(c))
        weights[lam] = w
    total = sum(weights.values())
    return {lam: w / total for lam, w in weights.items()}


def project(law: dict, key) -> dict:
    out: dict = {}
    for lam, p in law.items():
        k = key(lam)
        out[k] = out.get(k, 0) + p
    return out


def require(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"cross-check failed: {what}")


def check_hn(key: str, doc: dict, theta) -> None:
    ns = [row["n"] for row in doc["rows"]]
    if doc["backend"] == "exact":
        h = h_recurrence(theta, max(ns))
        for row in doc["rows"]:
            require(F(row["h"]) == h[row["n"]], f"{key}: h_{row['n']}")
        return
    theta0 = float(theta(1))  # the double grid is Ewens: h_n = h_{n-1} (theta + n - 1) / n
    h, n_done = 1.0, 0
    for row in doc["rows"]:
        for n in range(n_done + 1, row["n"] + 1):
            h *= (theta0 + n - 1) / n
        n_done = row["n"]
        require(abs(row["h"] - h) <= 1e-12 * h * max(1, math.log(n_done)), f"{key}: h_{n_done}")


def check_dist(key: str, doc: dict, name: str, theta) -> None:
    n, exact = doc["n"], doc["backend"] == "exact"
    got = checks._atoms(doc["support"], doc["mass"])
    if n <= 40:
        law = partition_law(theta, n)
        if doc["target"] == "k":
            want = project(law, len)
        else:
            want = project(law, lambda lam: tuple(lam.count(m) for m in range(1, doc["b"] + 1)))
    elif name.startswith("ewens") or name == "uniform":
        want = ewens_k_law(theta(1), n)
    else:  # theta-shift K_n law: end atoms and the mean identity
        h = h_recurrence(theta, n)
        mean = sum(theta(m) * h[n - m] / (m * h[n]) for m in range(1, n + 1))
        require(F(got[n]) == theta(1) ** n / (math.factorial(n) * h[n]), f"{key}: P(K=n)")
        require(F(got[1]) == theta(n) / (n * h[n]), f"{key}: P(K=1)")
        require(sum(k * F(p) for k, p in got.items()) == mean, f"{key}: mean")
        return
    for k in set(got) | set(want):
        a, b = got.get(k, 0), want.get(k, 0)
        ok = F(a) == b if exact else checks.close(a, float(b))
        require(ok, f"{key}: mass at {k}")


def check_report(key: str, doc: dict) -> None:
    if doc["kind"] == "large-dev":
        t = doc["table"]
        n = t["n"]
        law = ewens_k_law(F(1), n)
        mean = sum(F(1, i) for i in range(1, n + 1))
        var = mean - sum(F(1, i * i) for i in range(1, n + 1))
        require(checks.close(t["mean"], float(mean)), f"{key}: mean")
        require(checks.close(t["sd"], math.sqrt(var)), f"{key}: sd")
        require(checks.close(t["exact"], float(law[t["k"]])), f"{key}: exact atom")
    elif doc["kind"] == "clt" and "ewens" in key:
        for report in doc["reports"]:
            for n, value in zip(report["n_values"], report["values"]):
                law = ewens_k_law(F(1), n)
                # theta = 1: both normalizations are sqrt(log n) about log n
                c = math.log(n)
                require(checks.close(value, kolmogorov(law, c, math.sqrt(c))),
                        f"{key}: d_K at {n}")


def kolmogorov(law: dict, center: float, scale: float) -> float:
    best, cdf = 0.0, 0.0
    for k in sorted(law):
        phi = 0.5 * math.erfc(-(k - center) / scale / math.sqrt(2.0))
        best = max(best, abs(cdf - phi))
        cdf += float(law[k])
        best = max(best, abs(cdf - phi))
    return best


def k50_constants() -> dict:
    _, theta = family_of(["--family", "theta-shift", "--theta", "1"])
    n = 50
    # rows[j][k] = [t^j w^k] exp(w g(t)); n H_n(w) = w sum_k theta_k H_{n-k}(w)
    rows = [[F(1)]]
    for j in range(1, n + 1):
        acc = [F(0)] * (j + 1)
        for k in range(1, j + 1):
            for i, c in enumerate(rows[j - k]):
                acc[i + 1] += theta(k) * c
        rows.append([c / j for c in acc])
    hn = sum(rows[n])
    law = {k: c / hn for k, c in enumerate(rows[n]) if k}
    h = h_recurrence(theta, n)
    mean = sum(k * p for k, p in law.items())
    require(mean == sum(theta(m) * h[n - m] / (m * h[n]) for m in range(1, n + 1)), "E[K_50]")
    var = sum(k * k * p for k, p in law.items()) - mean ** 2
    return {"mean": float(mean), "var": float(var), "mean_exact": str(mean)}


def main() -> int:
    os.chdir(ROOT)
    outputs = {}
    os.makedirs(os.path.join(BENCH, "_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "_work")) as workdir, \
            Spawner() as spawner:
        runner = Runner(workdir, spawner)
        for cmd in workloads.reference_commands():
            res = runner.run(["-m", "cyclemeter.cli", *cmd.argv])
            require(res.returncode == 0, f"{cmd.key}: exit {res.returncode}")
            doc = json.loads(res.stdout)
            name, theta = family_of(cmd.argv)
            if doc["command"] == "hn" and theta is not None:
                check_hn(cmd.key, doc, theta)
            elif doc["command"] == "dist":
                check_dist(cmd.key, doc, name, theta)
            elif doc["command"] == "report":
                check_report(cmd.key, doc)
            outputs[cmd.key] = doc
            print(f"ok {res.wall_s:6.2f}s {cmd.key}", file=sys.stderr)
    refs = {"outputs": outputs,
            "constants": {"theta-shift-1-1-2/K50": k50_constants()}}
    with open(os.path.join(BENCH, "refs.json"), "w") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
