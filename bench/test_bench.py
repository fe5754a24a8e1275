"""Tests of the benchmark's own code: checker, self-time arithmetic, wait4 RSS.

Run with: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from procs import Spawner  # noqa: E402

with open(os.path.join(BENCH, "refs.json")) as _fh:
    REFS = json.load(_fh)


def _command(key):
    return next(c for c in workloads.reference_commands() if c.key == key)


def _check(cmd, doc):
    return checks.check_output(cmd, json.dumps(doc).encode(), REFS)


def _ref(key):
    return json.loads(json.dumps(REFS["outputs"][key]))


REF_KEYS = [c.key for c in workloads.reference_commands()]
EXACT_KEY = next(k for k in REF_KEYS if k.startswith("dist --family ewens --theta 1/2 --n "))
DOUBLE_KEY = next(k for k in REF_KEYS if k.startswith("dist") and "--backend double" in k)


def test_reference_outputs_pass():
    for cmd in workloads.reference_commands():
        assert _check(cmd, REFS["outputs"][cmd.key]) == [], cmd.key


def test_exact_mass_one_ulp_of_its_denominator_off_is_rejected():
    doc = _ref(EXACT_KEY)
    i = len(doc["mass"]) // 2
    p = Fraction(doc["mass"][i])
    doc["mass"][i] = f"{p.numerator + 1}/{p.denominator}"
    problems = _check(_command(EXACT_KEY), doc)
    assert any("mass at" in p for p in problems)
    assert any("do not sum to 1" in p for p in problems)


def test_double_mass_1e_6_off_is_rejected_and_rounding_is_not():
    cmd = _command(DOUBLE_KEY)
    doc = _ref(DOUBLE_KEY)
    i = max(range(len(doc["mass"])), key=lambda j: doc["mass"][j])
    doc["mass"][i] += 1e-6
    assert _check(cmd, doc)
    doc = _ref(DOUBLE_KEY)
    doc["mass"][i] *= 1 + 1e-13
    doc["mass"][-1] = 0.0  # an atom dropped below a 1e-12 truncation
    assert _check(cmd, doc) == []


def test_oracle_commands_must_report_match():
    key = next(k for k in REF_KEYS if k.startswith("dist --family theta-shift") and "--oracle" in k)
    doc = _ref(key)
    doc["oracle"] = None
    assert _check(_command(key), doc)


def test_additive_output_keys_are_accepted():
    key = next(k for k in REF_KEYS if k.startswith("hn") and "--backend" not in k)
    doc = _ref(key)
    for row in doc["rows"]:
        row["log_h"] = 0.0
    assert _check(_command(key), doc) == []


def _sample_cmd(i):
    return workloads.commands("sampling")[i]


def test_non_bijective_permutation_is_rejected():
    cmd = _sample_cmd(3)
    n = cmd.check["n"]
    good = list(range(1, n + 1))
    bad = good[:-1] + [1]
    doc = {"samples": [good] * (cmd.check["count"] - 1) + [bad]}
    assert checks.check_samples(doc, cmd.check, REFS)
    doc = {"samples": [good] * cmd.check["count"]}
    assert checks.check_samples(doc, cmd.check, REFS) == []


def test_partition_draws_are_validated():
    assert checks.is_partition([3, 2, 2, 1], 8)
    assert not checks.is_partition([2, 3, 2, 1], 8)
    assert not checks.is_partition([3, 2, 2], 8)
    assert not checks.is_partition([4, 4, 0], 8)


def test_chi_square_accepts_the_law_and_rejects_another():
    cmd = _sample_cmd(0)
    law = checks.ewens_cycle_type_law(Fraction(2), 8)
    assert len(law) == 22 and sum(law.values()) == 1
    # draws in exact proportion to the law: p = 1
    count = cmd.check["count"]
    samples = [list(lam) for lam, p in law.items() for _ in range(round(float(p) * count))]
    assert checks.chi2_pvalue(samples, law) > 0.99
    uniform1 = checks.ewens_cycle_type_law(Fraction(1), 8)
    samples = [list(lam) for lam, p in uniform1.items() for _ in range(round(float(p) * count))]
    assert checks.chi2_pvalue(samples, law) < 1e-3


def test_mean_k_check_rejects_a_shifted_mean():
    cmd = _sample_cmd(1)
    count = cmd.check["count"]
    ref = REFS["constants"][cmd.check["ref"]]
    k = round(ref["mean"]) + 2
    doc = {"samples": [[50 - k + 1] + [1] * (k - 1)] * count}
    assert checks.check_samples(doc, cmd.check, REFS)


def _span(layer, parent, t0, t1, x=0.0, **attrs):
    return {"layer": layer, "parent": parent, "t0": t0, "t1": t1, "x": x, **attrs}


def test_self_time_on_nested_spans():
    trace = [
        _span("cli", -1, 0.0, 10.0),
        _span("measure", 0, 1.0, 4.0, x=0.5),
        _span("series", 1, 2.0, 3.0, kind="exact", ops=10, minflt=7),
        _span("measure", 1, 3.0, 3.5),
        _span("pmf", 0, 5.0, 6.0, atoms=4),
    ]
    assert spans.self_times(trace) == pytest.approx([5.5, 1.5, 1.0, 0.5, 1.0])
    m = spans.layer_metrics(trace)
    assert m["measure.self_s"] == pytest.approx(2.0)
    assert m["series.exact.self_s"] == pytest.approx(1.0)
    assert m["measure.calls"] == 1  # the nested measure call is not a new entry
    assert m["series.calls"] == 1 and m["series.coeff_ops"] == 10 and m["series.minflt"] == 7
    assert m["pmf.atoms"] == 4
    # self times cover the wall except the bookkeeping next to a span
    assert 10.0 - m["attributed_s"] == pytest.approx(0.5)


def test_a_call_that_raised_counts_zero():
    trace = [_span("cli", -1, 0.0, 2.0), _span("series", 0, 0.5, 1.0, kind="double", ops=5)]
    m = spans.layer_metrics(trace)
    assert m["series.minflt"] == 0 and m["series.double.bytes_computed"] == 40


def test_partition_count():
    assert [spans.partition_count(n) for n in (1, 5, 10, 30)] == [1, 7, 42, 5604]


def test_rss_is_taken_per_child_from_wait4(tmp_path):
    ballast = bytearray(96 << 20)  # this process is big; its children must not inherit that

    def child(spawner, megabytes):
        code = (f"b = bytearray({megabytes} << 20)\n"
                "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        return spawner.run([sys.executable, "-c", code], dict(os.environ),
                           str(tmp_path / "out"), str(tmp_path / "err"))

    with Spawner() as spawner:
        big = child(spawner, 64)
        small = child(spawner, 1)
    assert big.returncode == 0 and small.returncode == 0
    assert big.maxrss_kb >= int(big.stdout) >= 64 << 10
    # a running maximum over children would report the big child again
    assert small.maxrss_kb < 32 << 10 < len(ballast) >> 10
    assert small.cpu_s > 0 and small.wall_s > 0


def test_traced_command_covers_every_target_and_adds_up(tmp_path):
    root = os.path.dirname(BENCH)
    out = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = ["dist", "--family", "ewens", "--theta", "1", "--n", "6", "--oracle"]
    with Spawner() as spawner:
        res = spawner.run([sys.executable, os.path.join(BENCH, "traced_cli.py"), str(out), *argv],
                          env, str(tmp_path / "o"), str(tmp_path / "e"))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["oracle"] == "match"
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[-1]["missing"] == []
    assert lines[-1]["counters"]["weights.evals"] > 0
    m = spans.layer_metrics(lines[:-1])
    assert m["partitions.classes"] == 11 and m["series.calls"] == 1
    main = lines[0]
    assert main["layer"] == "cli"
    assert 0 <= main["t1"] - main["t0"] - m["attributed_s"] < 1e-3


def test_benchmark_json_declares_the_metrics_run_prints():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "sampling",
                          "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0 and res.stdout == ""
