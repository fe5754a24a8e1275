"""Command-line interface: exit codes, determinism, config handling.

The CLI is driven in-process through main(argv); stdout is captured by
pytest.  Oracles are the library calls the commands wrap.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemeter import asymptotics, catalog
from cyclemeter.asymptotics import ewens_family, theta_shift_family
from cyclemeter.catalog import FAMILIES, KINDS, build_family, parse_number
from cyclemeter.cli import (EXIT_MATH, EXIT_OK, EXIT_TREND, EXIT_USAGE, main)
from cyclemeter.diagnostics import dumps_csv, dumps_deterministic
from cyclemeter.errors import DegenerateMeasureError, ResourceError
from cyclemeter.generalized import (exp_polynomial_weights,
                                    generalized_joint_cycle_pmf)
from cyclemeter.measure import (joint_cycle_pmf, normalization_constants,
                                sample_cycle_type, sample_permutation,
                                total_cycles_pmf)
from cyclemeter.partitions import brute_force_normalization


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hn_exact_json(capsys):
    code, out, _ = run_cli(capsys, "hn", "--family", "ewens", "--theta", "2",
                           "--n-grid", "3,10")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["backend"] == "exact"
    assert [row["h"] for row in doc["rows"]] == ["4", "11"]
    assert doc["rows"][1]["ratio"] == pytest.approx(1.1, rel=1e-12)


def test_hn_csv_format(capsys):
    code, out, _ = run_cli(capsys, "hn", "--family", "ewens", "--theta", "1",
                           "--n", "5", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "n,h,asymptotic,ratio"
    assert lines[1].startswith("5,1,")


def test_dist_oracle_match(capsys):
    code, out, _ = run_cli(capsys, "dist", "--family", "ewens", "--theta", "1",
                           "--target", "k", "--n", "4", "--oracle")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["oracle"] == "match"
    assert doc["support"] == [1, 2, 3, 4]
    assert doc["mass"][0] == "1/4"


def test_dist_cycles_target(capsys):
    code, out, _ = run_cli(capsys, "dist", "--family", "ewens", "--theta", "2",
                           "--target", "cycles", "--n", "5", "--b", "2",
                           "--oracle")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["b"] == 2
    assert all(len(key) == 2 for key in doc["support"])


def test_sample_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = main(["sample", "--family", "ewens", "--theta", "2", "--n", "12",
                     "--count", "4", "--seed", "9", "--output", str(path)])
        assert code == EXIT_OK
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    assert len(doc["samples"]) == 4
    for img in doc["samples"]:
        assert sorted(img) == list(range(1, 13))


@pytest.mark.parametrize("seed", [2**128, 2**200], ids=["2^128", "2^200"])
def test_sample_takes_any_nonnegative_seed(capsys, seed):
    # numpy's Philox keys stop below 2^128; random.Random takes any size
    argv = ("sample", "--family", "ewens", "--theta", "2", "--n", "5", "--seed", str(seed))
    first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
    assert first == second and first[0] == EXIT_OK and first[2] == ""
    assert json.loads(first[1])["seed"] == seed


def test_report_csv_deterministic(capsys):
    args = ("report", "--family", "ewens", "--theta", "2", "--kind",
            "poisson-vector", "--b", "2", "--n-grid", "25,50", "--format", "csv")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert out1.startswith("n,metric,value,reference_rate_value\n")


@pytest.mark.parametrize("s_value", ["inf", "nan"])
def test_non_finite_s_grid_is_usage_error(capsys, s_value):
    code, out, err = run_cli(capsys, "report", "--family", "ewens", "--theta", "2",
                             "--kind", "mod-poisson", "--n-grid", "10,20",
                             "--s-grid", s_value)
    assert code == EXIT_USAGE and out == ""
    assert "finite" in err


def test_repeated_n_fits_no_slope(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "report", "--family", "ewens", "--theta", "2",
                               "--kind", "clt", "--n-grid", "10,10")
    assert code == EXIT_OK
    assert [r["fitted_slope"] for r in json.loads(out)["reports"]] == [None, None]


def test_dist_csv_format(capsys):
    code, out, _ = run_cli(capsys, "dist", "--family", "ewens", "--theta", "1",
                           "--n", "4", "--format", "csv")
    assert code == EXIT_OK
    assert out == "support,mass\n1,1/4\n2,11/24\n3,1/4\n4,1/24\n"
    code, out, _ = run_cli(capsys, "dist", "--family", "ewens", "--theta", "1",
                           "--target", "cycles", "--b", "2", "--n", "4", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "support,mass"
    assert "0 2,1/8" in lines and "2 1,1/4" in lines and "4 0,1/24" in lines


def test_sample_csv_format(capsys):
    base = ("sample", "--family", "ewens", "--theta", "1", "--n", "5", "--count", "3",
            "--seed", "7", "--format", "csv")
    code, out, _ = run_cli(capsys, *base)
    assert code == EXIT_OK
    assert out == "5,2,4,3,1\n2,3,5,1,4\n1,3,4,2,5\n"
    code, out, _ = run_cli(capsys, *base, "--cycle-type-only")
    assert code == EXIT_OK
    assert out == "2,2,1\n3,1,1\n3,1,1\n"


def test_large_dev_csv_format(capsys):
    code, out, _ = run_cli(capsys, "report", "--family", "ewens", "--theta", "1",
                           "--kind", "large-dev", "--n", "50", "--format", "csv")
    assert code == EXIT_OK
    rows = dict(line.split(",") for line in out.splitlines())
    assert list(rows) == ["key", "n", "k", "mean", "sd", "t_n", "x", "estimate", "exact",
                          "rel_error", "rate_I", "tilt_h"]
    assert rows["key"] == "value" and rows["n"] == "50" and rows["k"] == "10"
    assert float(rows["t_n"]) == pytest.approx(math.log(50), rel=1e-15)


def test_config_file_family(tmp_path, capsys):
    cfg = tmp_path / "families.ini"
    cfg.write_text("""
[bent]
kind = theta-shift
theta = 1
amp = 1
power = 2

[grid2]
kind = spatial
decays = 1,1/2
""")
    code, out, _ = run_cli(capsys, "hn", "--family", "bent", "--config",
                           str(cfg), "--n", "6")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["backend"] == "exact"
    code, out, _ = run_cli(capsys, "dist", "--family", "grid2", "--config",
                           str(cfg), "--target", "k", "--n", "6", "--oracle")
    assert code == EXIT_OK
    assert json.loads(out)["oracle"] == "match"


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "hn", "--family", "nope", "--n", "4")
    assert code == EXIT_USAGE
    assert "error" in err


def _assert_sample_refused(capsys, tmp_path, argv, code, err):
    # A refusal comes before the first draw: nothing on stdout, no --output file.
    target = tmp_path / "samples.out"
    for flags in ((), ("--cycle-type-only",)):
        for fmt in ("json", "csv"):
            for output in ((), ("--output", str(target))):
                assert run_cli(capsys, "sample", *argv, *flags,
                               "--format", fmt, *output) == (code, "", err)
                assert not target.exists()


def test_sample_generalized_is_usage_error(capsys, tmp_path):
    _assert_sample_refused(capsys, tmp_path, ("--family", "exp-poly", "--theta", "1", "--n", "5"),
                           EXIT_USAGE, "error: sampling is defined for weighted families only\n")


def test_sample_zero_count_is_usage_error(capsys, tmp_path):
    _assert_sample_refused(capsys, tmp_path, ("--family", "ewens", "--theta", "1", "--n", "5",
                                                "--count", "0"),
                           EXIT_USAGE, "error: count must be a positive integer, got 0\n")


@pytest.mark.parametrize("argv, code, err", [
    (("--theta", "1", "--n", "5", "--seed", "-1"), EXIT_USAGE,
     "error: seed must be a nonnegative integer, got -1\n"),
    pytest.param(("--theta=4e-323", "--n", "40"), EXIT_USAGE,  # h_40 underflows to 0
                 "error: h_40 underflows the double range to 0, though h_40 >= "
                 "theta_1^40/40! > 0; hn and dist compute it with --backend exact\n",
                 id="theta=4e-323")])
def test_sample_refusals_write_nothing(capsys, tmp_path, argv, code, err):
    _assert_sample_refused(capsys, tmp_path, ("--family", "ewens", *argv), code, err)


def test_sample_failing_draw_leaves_the_blocks_written(monkeypatch, capsys):
    # _length_drawer fails mid-draw only at a remainder s where every
    # theta_j h_{s-j} is 0 though ts_exp's h_s > 0, which needs products at
    # the bottom of the subnormal range; no family is known to reach it.  A
    # drawer that fails at the fifth draw stands in: exit 3 after the first
    # block of three rows.
    import cyclemeter.cli as cli_mod
    import cyclemeter.measure as measure_mod

    real = measure_mod._length_drawer

    def failing_drawer(theta, n):
        draw, calls = real(theta, n), []

        def flaky(uniform):
            calls.append(1)
            if len(calls) == 5:
                raise DegenerateMeasureError("reached remainder size 1 with h_1 = 0")
            return draw(uniform)
        return flaky

    monkeypatch.setattr(cli_mod, "_BLOCK", 3)
    monkeypatch.setattr(measure_mod, "_length_drawer", failing_drawer)
    argv = ("sample", "--family", "ewens", "--theta", "1", "--n", "1", "--count", "9")
    err = "error: reached remainder size 1 with h_1 = 0\n"
    assert run_cli(capsys, *argv) == (EXIT_MATH, '{"command": "sample", "family": "ewens", '
                                      '"n": 1, "seed": 0, "count": 9, "kind": "permutation", '
                                      '"samples": [[1], [1], [1]', err)
    assert run_cli(capsys, *argv, "--format", "csv") == (EXIT_MATH, "1\n1\n1\n", err)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("cycle_type_only", [True, False])
def test_sample_blocks_join_to_the_whole_document(monkeypatch, capsys, n, cycle_type_only):
    # Blocks of 3 integers: max(1, 3 // n) rows each.  Each count below is
    # checked against the whole document rendered at once from the library's draws.
    import cyclemeter.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_BLOCK", 3)
    block = max(1, 3 // n)
    draw, kind, flags = ((sample_cycle_type, "cycle-type", ["--cycle-type-only"])
                         if cycle_type_only else (sample_permutation, "permutation", []))
    for count in sorted({c for c in (1, block - 1, block, block + 1, 3 * block + 2) if c}):
        samples = draw(ewens_family(2).weights, n, seed=5, count=count)
        if cycle_type_only:
            samples = [list(lam.parts) for lam in samples]
        doc = {"command": "sample", "family": "ewens", "n": n, "seed": 5, "count": count,
               "kind": kind, "samples": samples}
        argv = ("sample", "--family", "ewens", "--theta", "2", "--n", str(n),
                "--count", str(count), "--seed", "5", *flags)
        assert run_cli(capsys, *argv) == (EXIT_OK, dumps_deterministic(doc) + "\n", "")
        assert run_cli(capsys, *argv, "--format", "csv") == (EXIT_OK, dumps_csv(samples), "")


@pytest.mark.parametrize("flags, digest", [
    ("--n 8 --count 5000 --cycle-type-only",
     "8b4c0c8126da0e0f40221d241addaec0d1fd96d4d8051fa1ad32c6aa0504a31c"),
    ("--n 2000 --count 20", "52191fc88991f6aceda1ced49746d377fb551dbd20aed48b6c9928ab2aee4ec0"),
    ("--n 8 --count 5000 --cycle-type-only --format csv",
     "4faadd28c0c3dca94dbdb825b24d8a96aa64aa7fdc7b52ae34c97c392229fe96"),
    ("--n 2000 --count 20 --format csv",
     "16010c61b8e2d51dc8a5e87be52c1e0327e822af21b4747d0d0adf5ede173bf8")])
def test_multi_block_sample_bytes_are_pinned(capsys, flags, digest):
    # Recorded when the whole document was rendered at once; each spans
    # several blocks of the default size.
    code, out, err = run_cli(capsys, "sample", "--family", "ewens", "--theta", "2",
                             "--seed", "3", *flags.split())
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sample_memory_does_not_grow_with_count():
    # tracemalloc's peak over one sample command: about one block of
    # 2^14 integers (2048 rows of n = 8) whatever the count.  Holding every
    # draw read 1.6 MB at 4,100 draws and 4.1 MB at 12,000.
    argv = ["sample", "--family", "ewens", "--theta", "2", "--n", "8",
            "--cycle-type-only", "--output", os.devnull]
    assert main([*argv, "--count", "10"]) == EXIT_OK  # imports and caches, untraced
    peaks = []
    for count in ("4100", "12000"):
        tracemalloc.start()
        try:
            assert main([*argv, "--count", count]) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2e6 and peaks[1] < peaks[0] + 2.5e5, peaks


def test_sample_closed_stdout_gives_no_traceback():
    # A reader that stops early, as `| head -c 50` does: the writer stops
    # drawing at the broken pipe and exits 0, as it did when it wrote once.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "cyclemeter.cli", "sample", "--family",
                             "ewens", "--theta", "2", "--n", "8", "--count", "300000",
                             "--cycle-type-only"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(50).startswith(b'{"command": "sample"')
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_OK
    assert b"Traceback" not in err and err == b""


@pytest.mark.parametrize("block", [3, 1 << 14])  # one atom per block, or every atom in one
@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("backend", ["exact", "double"])
@pytest.mark.parametrize("target", ["k", "cycles"])
def test_dist_blocks_join_to_the_library_law(monkeypatch, capsys, tmp_path, target, backend,
                                            oracle, block):
    # dist writes its law from walks, block by block; the bytes are those of
    # the whole document built from the library's Pmf, on stdout and in --output.
    import cyclemeter.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_BLOCK", block)
    weights, n, b = ewens_family(Fraction(1, 2)).weights, 7, 2
    law = (total_cycles_pmf(weights, n, backend) if target == "k"
           else joint_cycle_pmf(weights, n, b, backend))
    mass = [str(v) if backend == "exact" else float(v) for _, v in law.items()]
    doc = {"command": "dist", "family": "ewens", "target": target, "n": n,
           "b": b if target == "cycles" else None, "backend": backend,
           "oracle": "match" if oracle else None, "support": list(law.support()), "mass": mass}
    argv = ["dist", "--family", "ewens", "--theta", "1/2", "--target", target, "--n", str(n),
            "--b", str(b), "--backend", backend] + ["--oracle"] * oracle
    csv_rows = [["support", "mass"]] + [list(pair) for pair in zip(law.support(), mass)]
    for flags, want in (([], dumps_deterministic(doc) + "\n"),
                        (["--format", "csv"], dumps_csv(csv_rows))):
        assert run_cli(capsys, *argv, *flags) == (EXIT_OK, want, "")
        path = tmp_path / "out"
        assert run_cli(capsys, *argv, *flags, "--output", str(path)) == (EXIT_OK, "", "")
        assert path.read_text() == want


def _faulty_tables(tables, fault):
    def faulty(*args):
        factors, tail, hn = tables(*args)
        if fault == "mass sum":  # the all-zero tuple's tail weight doubled
            return factors, [*tail[:-1], 2 * tail[-1]], hn
        return [[-factors[0][0], *factors[0][1:]], *factors[1:]], tail, hn
    return faulty


@pytest.mark.parametrize("backend", ["exact", "double"])
@pytest.mark.parametrize("fault, code", [("mass sum", EXIT_USAGE), ("negative mass", EXIT_USAGE),
                                         ("oracle", EXIT_MATH)])
def test_failed_dist_check_writes_nothing(monkeypatch, capsys, tmp_path, backend, fault, code):
    # Every check walks the law before the first byte: a law whose masses
    # do not sum to 1, that has a negative mass (a negative factor-table
    # entry), or that the oracle disputes, leaves stdout empty and --output
    # unwritten.  The exact checks walk integer numerators only.
    import cyclemeter.cli as cli_mod
    import cyclemeter.measure as measure_mod
    from cyclemeter.pmf import Pmf

    if fault == "oracle":
        monkeypatch.setattr(cli_mod, "brute_force_cycle_counts_pmf",
                            lambda weights, n, b, kind: Pmf({(n, 0): Fraction(1)}))
    else:
        monkeypatch.setattr(measure_mod, "_joint_tables",
                            _faulty_tables(measure_mod._joint_tables, fault))
    walks, walk = [], measure_mod._joint_walk
    monkeypatch.setattr(measure_mod, "_joint_walk", lambda *args, raw=False: (
        walks.append(raw) or walk(*args, raw=raw)))
    argv = ("dist", "--family", "ewens", "--theta", "1", "--target", "cycles", "--b", "2",
            "--n", "6", "--backend", backend, "--oracle")
    path = tmp_path / "out"
    for flags in ((), ("--format", "csv"), ("--output", str(path))):
        walks.clear()
        got, out, err = run_cli(capsys, *argv, *flags)
        assert (got, out) == (code, "") and err.startswith("error: ")
        assert ("mismatch" if fault == "oracle" else "mass") in err
        assert not path.exists()
        assert walks == [backend == "exact"] * (1 + (fault == "oracle"))


def test_dist_memory_holds_no_copy_of_the_law():
    # tracemalloc's peak over one exact joint law of 7,106 tuples: the
    # walks hold one prefix and one block of output.  Holding the law, its
    # strings and the whole document read 13.9 MB; streaming reads 0.6 MB.
    argv = ["dist", "--family", "theta-shift", "--theta", "1", "--target", "cycles",
            "--b", "3", "--output", os.devnull]
    assert main([*argv, "--n", "8"]) == EXIT_OK  # imports and caches, untraced
    tracemalloc.start()
    try:
        assert main([*argv, "--n", "60"]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6, peak


def test_report_without_class_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "report", "--family", "polylog",
                           "--delta=-1/2", "--kind", "clt",
                           "--n-grid", "20,40")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("kind, message", [
    ("clt", "CLT normalization"), ("poisson-k", "Poisson approximation"),
    ("mod-poisson", "mod-Poisson limit"), ("large-dev", "large-deviation estimate")])
def test_reports_refuse_a_theta_zero_family(capsys, kind, message):
    # polylog with delta > 0 has class F with theta = 0: no limit law to compare with
    code, out, err = run_cli(capsys, "report", "--family", "polylog", "--delta", "3",
                             "--kind", kind, "--n", "30")
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message} needs theta > 0\n")


def test_large_dev_refuses_an_atom_that_underflows(capsys):
    # P[K_300 = 240] is 0.0 in doubles, so no relative error exists there
    code, out, err = run_cli(capsys, "report", "--family", "ewens", "--theta", "1",
                             "--kind", "large-dev", "--n", "300", "--k", "240")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: P[K_n = k] underflows to 0 in doubles at n = 300, k = 240\n"


def test_trend_assertion_failure(capsys):
    # Deliberately descending grid: the distances then rise along it.
    code, _, err = run_cli(capsys, "report", "--family", "ewens", "--theta",
                           "2", "--kind", "poisson-vector", "--b", "2",
                           "--n-grid", "100,25", "--assert-trends")
    assert code == EXIT_TREND
    assert "trend" in err


def test_trend_assertion_passes_on_ascending_grid(capsys):
    code, _, _ = run_cli(capsys, "report", "--family", "ewens", "--theta",
                         "2", "--kind", "poisson-vector", "--b", "2",
                         "--n-grid", "25,100", "--assert-trends")
    assert code == EXIT_OK


@pytest.mark.parametrize("grid", [("--n", "10", "--n-grid", "5"), ("--n-grid", "10,20")])
def test_large_dev_refuses_more_than_one_n(capsys, grid):
    code, out, err = run_cli(capsys, "report", "--family", "ewens", "--theta", "1",
                             "--kind", "large-dev", *grid)
    assert code == EXIT_USAGE and out == ""
    assert "large-dev takes a single n" in err


def test_large_dev_report(capsys):
    code, out, _ = run_cli(capsys, "report", "--family", "ewens", "--theta",
                           "1", "--kind", "large-dev", "--n", "500",
                           "--assert-trends")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["table"]["rel_error"] <= 0.25


@pytest.mark.parametrize("argv", [
    ("--family", "ewens", "--theta", "1000", "--kind", "large-dev", "--n", "20", "--k", "20"),
    ("--family", "alpha-exp", "--alpha=-6", "--kind", "large-dev", "--n", "20", "--k", "20"),
    *[("--family", "ewens", "--theta", theta, "--kind", "mod-poisson", "--n-grid", "10,20")
      for theta in ("150", "171", "172", "1000")]],
    ids=["large-dev-ewens", "large-dev-alpha-exp", *[f"mod-poisson-{t}" for t in
                                                      (150, 171, 172, 1000)]])
def test_overflowing_estimates_end_without_a_traceback(capsys, argv):
    # e^x and Gamma overflow a double here: an error line and exit 2, or a result
    code, out, err = run_cli(capsys, "report", *argv)
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out == "" and err.startswith("error: ")
    if "large-dev" in argv:
        assert code == EXIT_USAGE and "estimate overflows" in err


def test_overflowing_mod_poisson_limit_is_a_usage_error(capsys):
    # Gamma(140) and 1/Gamma(140 e^{2i}) are finite, their product is not:
    # this ended in "cannot serialize non-finite value inf".
    code, out, err = run_cli(capsys, "report", "--family", "ewens", "--theta", "140",
                             "--kind", "mod-poisson", "--n-grid", "10,20")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: mod-Poisson limit overflows at theta=140.0, s=2.0\n"


def test_oracle_mismatch_is_math_error(monkeypatch, capsys):
    # The --oracle tripwire: a disagreeing reference must exit 3.
    from fractions import Fraction

    from cyclemeter.pmf import Pmf
    import cyclemeter.cli as cli_mod

    def wrong_oracle(theta, n, backend="exact"):
        return Pmf({1: Fraction(1)})

    monkeypatch.setattr(cli_mod, "brute_force_k_pmf", wrong_oracle)
    code, _, err = run_cli(capsys, "dist", "--family", "ewens", "--theta", "1",
                           "--target", "k", "--n", "4", "--oracle")
    assert code == EXIT_MATH
    assert "mismatch" in err


def test_sample_single_point_identity(capsys):
    code, out, _ = run_cli(capsys, "sample", "--family", "ewens", "--theta",
                           "1", "--n", "1", "--count", "3")
    assert code == EXIT_OK
    assert json.loads(out)["samples"] == [[1], [1], [1]]


@pytest.mark.parametrize("kind, params, n, count", [
    ("ewens", {"theta": "2"}, 8, 2000),
    ("theta-shift", {"theta": "1"}, 50, 200),
    ("polylog", {"delta": "-1/2"}, 30, 50)])
def test_cycle_type_rows_are_the_library_draws(capsys, kind, params, n, count):
    code, out, _ = run_cli(capsys, "sample", "--family", kind,
                           *[f"--{key}={value}" for key, value in params.items()],
                           "--n", str(n), "--count", str(count), "--seed", "11",
                           "--cycle-type-only")
    assert code == EXIT_OK
    draws = sample_cycle_type(build_family(kind, params).weights, n, seed=11, count=count)
    assert json.loads(out)["samples"] == [list(p.parts) for p in draws]


def test_large_dev_k_spec_forms(capsys):
    base = ("report", "--family", "ewens", "--theta", "1", "--kind",
            "large-dev", "--n", "300")
    code, out, _ = run_cli(capsys, *base, "--k", "auto+2sigma")
    assert code == EXIT_OK
    auto_k = json.loads(out)["table"]["k"]
    code, out, _ = run_cli(capsys, *base, "--k", str(auto_k))
    assert code == EXIT_OK
    assert json.loads(out)["table"]["k"] == auto_k
    code, _, _ = run_cli(capsys, *base, "--k", "about-three")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("spec, k", [("120", 120), ("auto+30sigma", 71)])
def test_large_dev_k_past_the_certified_columns(capsys, spec, k):
    # At n = 300 the certified law stops at k = 35; the columns are kept
    # through a given k, or recomputed through a default one past them, so
    # exact is the full band's atom there.
    code, out, _ = run_cli(capsys, "report", "--family", "ewens", "--theta", "1",
                           "--kind", "large-dev", "--n", "300", "--k", spec)
    assert code == EXIT_OK
    table = json.loads(out)["table"]
    ref = total_cycles_pmf(ewens_family(1).weights, 300, "double")[k]
    assert table["k"] == k
    assert 0 < ref and abs(table["exact"] - ref) <= 1e-13 * ref


def test_double_k_law_over_memory_budget_is_refused(capsys, monkeypatch):
    # The (n+1)^2 band at n = 40000 would take 12.8 GB: exit 2 before any
    # array is allocated.
    import numpy as np

    def no_alloc(*args, **kwargs):
        raise RuntimeError("reached np.zeros")

    monkeypatch.setattr(np, "zeros", no_alloc)
    code, out, err = run_cli(capsys, "dist", "--family", "ewens", "--theta", "1",
                             "--n", "40000", "--backend", "double")
    assert (code, out) == (EXIT_USAGE, "")
    assert "byte budget" in err


def test_missing_n_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "hn", "--family", "ewens", "--theta", "1")
    assert code == EXIT_USAGE


def test_exp_poly_dist(capsys):
    code, out, _ = run_cli(capsys, "dist", "--family", "exp-poly", "--theta",
                           "1", "--n", "4", "--oracle")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["mass"] == ["1/4", "11/24", "1/4", "1/24"]


def test_exp_poly_double_with_F_outside_the_double_range(capsys):
    # F(679) underflows a double for theta = 1/3, yet its share of h_700 is
    # negligible; with no b_j, h_n = prod_{k<=n} (k - 1 + theta) / k.
    code, out, err = run_cli(capsys, "hn", "--family", "exp-poly", "--theta", "1/3",
                             "--n", "700", "--backend", "double")
    assert (code, err) == (EXIT_OK, "")
    exact = math.prod(Fraction(3 * k - 2, 3 * k) for k in range(1, 701))
    assert abs(json.loads(out)["rows"][0]["h"] - float(exact)) <= 1e-12 * float(exact)


def test_exp_poly_config_family_past_F_overflow(tmp_path, capsys):
    # F(k) grows like sqrt(k!) for b2 = 1/4 and overflows a double at
    # k = 333; h_400 does not.  A negative b2 makes F(417) < 0.
    cfg = tmp_path / "families.ini"
    cfg.write_text("[quad]\nkind = exp-poly\ntheta = 1\nb2 = 1/4\n\n"
                   "[dip]\nkind = exp-poly\ntheta = 4\nb2 = -1/200\n")
    code, out, err = run_cli(capsys, "hn", "--family", "quad", "--config", str(cfg),
                             "--n", "400")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["backend"] == "double"
    assert abs(doc["rows"][0]["h"] - 1.5067826189071292) <= 1e-12 * 1.5067826189071292
    code, out, err = run_cli(capsys, "hn", "--family", "dip", "--config", str(cfg),
                             "--n", "417")
    assert code == EXIT_USAGE and out == ""
    assert "F_1(417) is negative" in err
    code, out, err = run_cli(capsys, "hn", "--family", "dip", "--config", str(cfg),
                             "--n", "416")
    assert (code, err) == (EXIT_OK, "")


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "hn", "--family", "ewens", "--theta", "1",
                             "--n", "5", "--output", str(target))
    assert code == EXIT_USAGE
    assert err.startswith("error:")
    assert out == ""
    for flags in ((), ("--cycle-type-only",)):
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, "sample", "--family", "ewens", "--theta", "1",
                                     "--n", "5", "--count", "3", "--format", fmt,
                                     "--output", str(target), *flags)
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error: cannot write --output:")


@pytest.mark.parametrize("n, b", [(150, 12), (600, 3)])
@pytest.mark.parametrize("joint, weights, family", [
    (joint_cycle_pmf, ewens_family(1).weights, "ewens"),
    (generalized_joint_cycle_pmf, exp_polynomial_weights(1, {}), "exp-poly"),
])
def test_joint_support_cap(capsys, joint, weights, family, n, b):
    # (C_1..C_12) at n=150 and (C_1..C_3) at n=600 (6,105,551 tuples) have
    # more tuples than the cap: both measures refuse at once instead of
    # enumerating for minutes.
    with pytest.raises(ResourceError):
        joint(weights, n, b)
    code, _, err = run_cli(capsys, "dist", "--family", family, "--theta", "1",
                           "--target", "cycles", "--b", str(b), "--n", str(n),
                           "--backend", "double")
    assert code == EXIT_USAGE
    assert "joint support" in err


@pytest.mark.parametrize("flags, backend", [
    (("ewens", "--theta", "1"), "exact"),
    (("polylog", "--delta", "0"), "exact"),
    (("exp-weight", "--c", "0", "--theta-exp", "1"), "exact"),
    (("alpha-exp", "--alpha", "1/2"), "double"),
    (("exp-weight", "--c", "1", "--theta-exp", "1"), "double"),
])
def test_auto_backend_follows_exact_rule(capsys, flags, backend):
    # auto is exact exactly when the weights have an exact rule and n <= 200;
    # the first three families all have constant-1 weights, so h_n = 1.
    code, out, _ = run_cli(capsys, "hn", "--family", *flags, "--n-grid", "5,200")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["backend"] == backend
    if backend == "exact":
        assert [row["h"] for row in doc["rows"]] == ["1", "1"]
    code, out, _ = run_cli(capsys, "hn", "--family", *flags, "--n", "201")
    assert code == EXIT_OK
    assert json.loads(out)["backend"] == "double"


@pytest.mark.parametrize("backend", ["exact", "double"])
@pytest.mark.parametrize("argv", [
    ("report", "--family", "ewens", "--theta", "1", "--kind", "clt", "--n-grid", "10,20"),
    ("sample", "--family", "ewens", "--theta", "2", "--n", "5"),
], ids=["report", "sample"])
def test_backend_is_refused_where_it_has_no_effect(capsys, argv, backend):
    # reports and sample always run doubles; only hn and dist take --backend
    code, out, err = run_cli(capsys, *argv, "--backend", backend)
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --backend" in err


def test_flags_override_config_values(tmp_path, capsys):
    cfg = tmp_path / "families.ini"
    cfg.write_text("[bent]\nkind = theta-shift\ntheta = 1\namp = 1\npower = 2\n")
    code, out, _ = run_cli(capsys, "hn", "--family", "bent", "--config", str(cfg),
                           "--theta", "5", "--n", "3")
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["h"] == "5773/108"
    code, out, _ = run_cli(capsys, "hn", "--family", "theta-shift", "--theta", "5",
                           "--amp", "1", "--power", "2", "--n", "3")
    assert json.loads(out)["rows"][0]["h"] == "5773/108"


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    # A typo must not fall back to the default power 2 without a word.
    cfg = tmp_path / "families.ini"
    cfg.write_text("[bent]\nkind = theta-shift\ntheta = 1\npwer = 3\n")
    code, out, err = run_cli(capsys, "hn", "--family", "bent", "--config", str(cfg),
                             "--n", "3")
    assert code == EXIT_USAGE
    assert out == ""
    assert "'pwer'" in err and "--theta, --amp, --power" in err


def test_zero_decay_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "families.ini"
    cfg.write_text("[z]\nkind = spatial\ndecays = 0, 1\n")
    code, _, err = run_cli(capsys, "hn", "--family", "z", "--config", str(cfg), "--n", "3")
    assert code == EXIT_USAGE
    assert "decay" in err


def test_alpha_exp_without_amplitude_ignores_power(capsys):
    # amp = 0 never forms m**power, which underflows to 0 for power=-1000
    code, out, _ = run_cli(capsys, "hn", "--family", "alpha-exp", "--alpha", "1",
                           "--power=-1000", "--n-grid", "3,10")
    assert code == EXIT_OK
    code, plain, _ = run_cli(capsys, "hn", "--family", "alpha-exp", "--alpha", "1",
                             "--n-grid", "3,10")
    assert json.loads(out)["rows"] == json.loads(plain)["rows"]


@pytest.mark.parametrize("argv", [
    # a flag the kind does not take
    ("--family", "ewens", "--theta", "1", "--delta", "3", "--n", "3"),
    ("--family", "spatial", "--eps", "0", "--theta", "1", "--n", "3"),
    # numbers outside the double range
    ("--family", "polylog", "--delta", "1e400", "--n", "5"),
    ("--family", "ewens", "--theta=1e400", "--n", "6"),
    ("--family", "spatial", "--eps", "0,-1e400", "--n", "6"),
    # exponents whose exact rule would never finish
    ("--family", "theta-shift", "--theta", "1", "--power", "1e300", "--n", "3"),
    ("--family", "polylog", "--delta", "1e300", "--n", "3"),
    # exp(-eps) underflows to a zero decay
    ("--family", "spatial", "--eps", "1e300", "--n", "3"),
    # weights that overflow a double: e^(m^2), and e^1000
    ("--family", "exp-weight", "--c", "1", "--theta-exp", "2", "--n", "50"),
    ("--family", "alpha-exp", "--alpha=-1000", "--n", "3"),
])
def test_bad_family_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "hn", *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    # e^-800 is 0 as a double: the exact rule printed h = 0 with exit 0
    ("hn", "--alpha=800", "--n", "3", "--backend", "exact"),
    ("hn", "--alpha=800", "--n", "3"),
    # ... and exit 3, "the measure is undefined there"
    ("dist", "--alpha=1e300", "--n", "3", "--backend", "exact"),
    # e^1000 overflows: the generic "overflows a double at these parameters"
    ("hn", "--alpha=-1000", "--n", "3"),
], ids=["hn-exact", "hn-auto", "dist-exact", "overflow"])
def test_spatial_site_factor_off_the_doubles_is_refused(capsys, argv):
    command, *rest = argv
    code, out, err = run_cli(capsys, command, "--family", "spatial", "--eps=0.5", *rest)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: site exponent --alpha=")


def test_huge_decimal_exponents_are_refused_at_once(capsys):
    # Fraction would build 10**(10**7) first; 1e-400 is 0 as a double, so
    # the exact and double backends would see different measures.
    start = time.monotonic()
    for value in ("1e10000000", "1e-10000000", "-1e400", "1e-400"):
        code, out, err = run_cli(capsys, "hn", "--family", "ewens", f"--theta={value}",
                                 "--n", "6")
        assert code == EXIT_USAGE and out == ""
        assert "outside the double range" in err
    assert parse_number("0e99999999999") == 0 and parse_number("-0.0") == 0
    assert time.monotonic() - start < 1.0


def test_exp_weight_overflow_is_no_traceback(capsys):
    # The e^m weights overflow a double before n = 1000.  Scaling them
    # out would make this command succeed; until then it must not crash.
    code, _, _ = run_cli(capsys, "hn", "--family", "exp-weight", "--c", "1",
                         "--theta-exp", "1", "--n", "1000")
    assert code != 1


def test_hn_prints_h_when_only_the_asymptotic_overflows(capsys):
    # K is about 1e13, so e^K overflows the estimate, not h_5.
    argv = ("hn", "--family", "exp-weight", "--c=30", "--theta-exp=-0.01", "--n-grid", "1,5")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [(row["asymptotic"], row["ratio"]) for row in rows] == [(None, None)] * 2
    weights = build_family("exp-weight", {"c": "30", "theta_exp": "-0.01"}).weights
    assert rows[1]["h"] == pytest.approx(brute_force_normalization(weights, 5, "double"),
                                         rel=1e-12)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    assert [line.split(",")[2:] for line in out.split()[1:]] == [["", ""]] * 2


def test_huge_poisson_reference_is_refused_at_once(capsys):
    # K = zeta(1 + 1e-10) = 1e10 makes the reference Poisson(1e10 + ...).
    start = time.monotonic()
    code, out, err = run_cli(capsys, "report", "--family", "theta-shift", "--theta", "1",
                             "--power", "1e-10", "--kind", "poisson-k", "--n-grid", "10,20")
    assert code == EXIT_USAGE and out == "" and err.startswith("error:")
    assert time.monotonic() - start < 1.0


def test_slow_perturbation_decay_is_refused_at_once(capsys):
    # alpha_m = 1/2 + 10^6/sqrt(m): K would need about 6e10 terms summed
    # one by one; a power whose 1 + power rounds to 1 has no usable zeta
    # series.  Both refusals come before any term is summed.
    start = time.monotonic()
    for amp, power in (("1000000", "1/2"), ("1", "1e-300")):
        code, out, err = run_cli(capsys, "report", "--family", "alpha-exp", "--alpha", "1/2",
                                 "--amp", amp, "--power", power, "--kind", "clt",
                                 "--n-grid", "10,20")
        assert code == EXIT_MATH and out == ""
        assert err.startswith("error:")
    assert time.monotonic() - start < 0.5


# one family per catalog kind; quad is an exp-poly family with b2 = 1/4
_ONE_PER_KIND = [
    ("ewens", "--theta", "3/2"),
    ("theta-shift", "--theta", "1", "--amp", "1", "--power", "2"),
    ("polylog", "--delta", "1"),
    ("exp-weight", "--c=-1", "--theta-exp=-1/2"),
    ("alpha-exp", "--alpha", "1/2", "--amp", "1", "--power", "2"),
    ("spatial", "--eps", "0.5,1"),
    ("quad", "--config", str(Path(__file__).resolve().parent / "exp_poly.ini")),
]


@pytest.mark.parametrize("family", _ONE_PER_KIND, ids=KINDS)
def test_dist_and_sample_compute_no_class_constant(capsys, monkeypatch, family):
    commands = [("dist", "--family", *family, "--n", "6")]
    if family[0] != "quad":  # sample takes weighted families only
        commands.append(("sample", "--family", *family, "--n", "6", "--count", "3"))
    before = [run_cli(capsys, *argv) for argv in commands]

    def refuse(*args):
        raise AssertionError("a class constant was computed")

    for module, name in ((asymptotics, "_exp_perturbation_class"),
                         (asymptotics, "riemann_zeta"), (catalog, "riemann_zeta")):
        monkeypatch.setattr(module, name, refuse)
    assert [run_cli(capsys, *argv) for argv in commands] == before
    assert [code for code, _, _ in before] == [EXIT_OK] * len(commands)
    if family[0] not in ("ewens", "spatial"):  # hn reads the class, so the patch bites
        with pytest.raises(AssertionError):
            run_cli(capsys, "hn", "--family", *family, "--n", "6")


@pytest.mark.parametrize("n", ["5", "48"])
@pytest.mark.parametrize("family", _ONE_PER_KIND, ids=KINDS)
def test_double_h_never_reaches_the_integer_kernel(capsys, monkeypatch, family, n):
    # Double h_n runs the float kernel at every order: with the integer h_n kernel
    # patched to raise, double hn, dist --target cycles and sample keep their
    # bytes, while exact hn meets the patch.
    import cyclemeter.measure as measure_mod
    import cyclemeter.series as series_mod

    commands = [("hn", "--family", *family, "--n", n),
                ("dist", "--family", *family, "--target", "cycles", "--b", "2", "--n", n)]
    commands = [(*argv, "--backend", "double") for argv in commands]
    if family[0] != "quad":  # sample takes weighted families only
        commands.append(("sample", "--family", *family, "--n", n, "--count", "3"))
    before = [run_cli(capsys, *argv) for argv in commands]

    def refuse(*args):
        raise AssertionError("the integer h_n kernel was run")

    for module in (series_mod, measure_mod):
        monkeypatch.setattr(module, "_exact_h", refuse)
    assert [run_cli(capsys, *argv) for argv in commands] == before
    assert [code for code, _, _ in before] == [EXIT_OK] * len(commands)
    with pytest.raises(AssertionError, match="integer h_n kernel"):
        run_cli(capsys, "hn", "--family", *family, "--n", n, "--backend", "exact")


# K cannot be summed for these weights, but only report reads it
@pytest.mark.parametrize("argv", [
    ("--family", "alpha-exp", "--alpha=-1", "--amp=1", "--power=1e-5", "--n", "8"),
    ("--family", "exp-weight", "--c=700", "--theta-exp=-1/2", "--n", "5"),
])
def test_dist_needs_no_class_constant(capsys, argv):
    code, out, err = run_cli(capsys, "dist", *argv, "--backend", "exact", "--oracle")
    assert (code, err, json.loads(out)["oracle"]) == (EXIT_OK, "", "match")


@pytest.mark.parametrize("kind, params", [
    ("exp-weight", {"c": "700", "theta_exp": "-1/2"}),
    ("alpha-exp", {"alpha": "0", "amp": "1/2", "power": "1e-300"}),
])
def test_hn_needs_no_class_constant(capsys, kind, params):
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in params.items()]
    code, out, err = run_cli(capsys, "hn", "--family", kind, *flags, "--n", "5",
                             "--backend", "exact")
    assert (code, err) == (EXIT_OK, "")
    [row] = json.loads(out)["rows"]
    weights = build_family(kind, params).weights
    assert Fraction(row["h"]) == brute_force_normalization(weights, 5, "exact")
    assert (row["asymptotic"], row["ratio"]) == (None, None)


@pytest.mark.parametrize("family, err", [
    (("polylog", "--delta=-1/2"), "family polylog has no usable singularity class for "
     "reports: g has an algebraic blow-up at 1, outside classes F/eF"),
    (("exp-weight", "--c=1", "--theta-exp=2"), "family exp-weight has no usable singularity "
     "class for reports: weights grow faster than geometrically; g has radius 0"),
    (("exp-weight", "--c=-1", "--theta-exp=2"), "family exp-weight has no usable singularity "
     "class for reports: g is entire; no dominant singularity to transfer"),
    (("exp-weight", "--c=1", "--theta-exp=1/2"), "family exp-weight has no usable singularity "
     "class for reports: stretched-exponential growth: asymptotics open"),
    (("exp-weight", "--c=-1", "--theta-exp=1/2"), "family exp-weight has no usable singularity "
     "class for reports: g bounded at 1 without log term; transfer not applicable"),
    (("exp-weight", "--c=-800", "--theta-exp=1"),
     "family exp-weight overflows a double at these parameters"),
    (("alpha-exp", "--alpha=-800"), "family alpha-exp overflows a double at these parameters"),
    (("alpha-exp", "--alpha=1/2", "--amp=1000000", "--power=1/2"),
     "perturbation -1000000.0*m^-0.5 decays too slowly to sum K"),
    (("alpha-exp", "--alpha=-1", "--amp=1", "--power=1e-5"),
     "perturbation -1.0*m^-1e-05 decays too slowly to sum K"),
    (("exp-weight", "--c=700", "--theta-exp=-1/2"),
     "K for weights exp(700.0*m^-0.5) did not converge"),
    (("alpha-exp", "--alpha=0", "--amp=1/2", "--power=1e-300"),
     "perturbation -0.5*m^-1e-300 decays too slowly to sum K"),
])
def test_report_refuses_a_family_without_a_class(capsys, family, err):
    # the class is read before any law: no class is exit 2, a K that cannot be summed 3
    code, out, got = run_cli(capsys, "report", "--family", *family, "--kind", "clt",
                             "--n-grid", "10,20")
    code_of_k = EXIT_MATH if "K" in err else EXIT_USAGE
    assert (code, out, got) == (code_of_k, "", f"error: {err}\n")


# K against 90-digit values: the exp-weight/alpha-exp series summed with
# mpmath at 90 digits, and -e^{-alpha} sum log(1 - q/qmax) for spatial with
# the model's decay q, the double nearest e^{-10^-6}.
@pytest.mark.parametrize("argv, K", [
    (("alpha-exp", "--alpha", "1/2", "--amp", "1", "--power", "1/2"), -1.1957607364357795),
    (("alpha-exp", "--alpha", "1/2", "--amp", "3", "--power", "1/2"), -2.3848970335254113),
    (("exp-weight", "--c", "-100", "--theta-exp", "-2"), -3.1684085248217695),
    (("exp-weight", "--c", "-40", "--theta-exp", "-2"), -2.7102538612141183),
    (("spatial", "--eps", "0,1e-6"), 13.815511057980094),
])
def test_class_constant_matches_high_precision_value(capsys, argv, K):
    code, out, _ = run_cli(capsys, "hn", "--family", *argv, "--n", "6")
    assert code == EXIT_OK
    flags = dict(zip(argv[1::2], argv[2::2]))
    params = {flag[2:].replace("-", "_"): value for flag, value in flags.items()}
    assert build_family(argv[0], params).cls.K == pytest.approx(K, rel=1e-13, abs=0)


def test_double_overflow_leaks_no_numpy_warning(capsys):
    # theta = 1e300 overflows h_5 in a numpy dot; the refusal is the error
    # line alone, even when warnings are errors.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "hn", "--family", "ewens", "--theta", "1e300",
                                 "--n", "5", "--backend", "double")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, code, err", [
    # the K_n band on numpy (see below), then on the float kernel
    ("dist --family ewens --theta 100000 --n 500 --backend double", EXIT_USAGE,
     "error: h_500 overflows the double range; hn and dist compute it with --backend exact\n"),
    ("dist --family ewens --theta 100000 --n 100 --backend double", EXIT_USAGE,
     "error: h_100 overflows the double range; hn and dist compute it with --backend exact\n"),
    ("hn --family exp-weight --c 1 --theta-exp 1 --n 1000", EXIT_USAGE,
     "error: theta_710 = inf is not a finite nonnegative weight\n"),
])
def test_overflow_prints_only_the_error_line(argv, code, err):
    # A fresh interpreter with the default warning filters, as a user runs it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "cyclemeter.cli", *argv.split()],
                         env=env, capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout, res.stderr) == (code, "", err)


def test_overflow_command_does_overflow_in_numpy():
    # Keeps the first case above from passing without a warning to hide: the
    # full band at n = 500 passes the float kernel's budget and runs on numpy.
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ResourceError):
            total_cycles_pmf(ewens_family(100000).weights, 500, "double")


def test_exact_output_beyond_str_digit_limit(capsys):
    # h_30 has a 5,331-digit numerator, past the default int/str limit.
    code, out, _ = run_cli(capsys, "hn", "--family", "theta-shift", "--theta", "1",
                           "--power", "200", "--n", "30")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["backend"] == "exact"
    h = normalization_constants(theta_shift_family(1, 1, 200).weights, 30, "exact")
    assert Fraction(doc["rows"][0]["h"]) == h[30]


_EDGE_VALUES = ("0", "1/2", "-1/2", "3", "-3", "1e-300", "1e300", "1e400", "-1e400")
_FORMS = (("hn", "--n", "6"), ("dist", "--n", "6", "--oracle"),
          ("dist", "--target", "cycles", "--b", "2", "--n", "6"),
          ("sample", "--n", "6"), ("report", "--kind", "clt", "--n-grid", "10,20"))


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_cli_fuzz_ends_in_documented_exit_code(kind, data):
    argv = [*data.draw(st.sampled_from(_FORMS)), "--family", kind]
    for param in FAMILIES[kind][1]:
        if param.flag:
            argv.append(f"{param.shown}={data.draw(st.sampled_from(_EDGE_VALUES))}")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_MATH, EXIT_TREND), argv


def test_readme_family_table_matches_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Built-in family kinds")[1].split("\n\n")[1]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        rows[cells[0]] = set(re.findall(r"`([^`]+)`", cells[1]))
    assert rows == {kind: {p.shown for p in params} for kind, (_, params) in FAMILIES.items()}


def test_readme_library_example_runs():
    # A library name the example calls and the package lost fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("\n## Library\n")[1].split("```python\n")[1].split("```")[0]
    exec(compile(example, "README.md", "exec"), {})


@pytest.mark.parametrize("family", ["ewens", "exp-poly"])
@pytest.mark.parametrize("target, oracle", [("k", "k"), ("cycles", "cycle_counts")])
def test_oracle_tripwire_per_measure_and_target(monkeypatch, capsys, family, target, oracle):
    # The law lookup runs per call, so a patched oracle of either target is
    # the one --oracle consults, for either measure.
    import cyclemeter.cli as cli_mod
    from cyclemeter.pmf import Pmf

    def wrong_oracle(weights, n, *b_and_backend):
        return Pmf({1 if oracle == "k" else (n,): Fraction(1)})

    monkeypatch.setattr(cli_mod, f"brute_force_{oracle}_pmf", wrong_oracle)
    code, out, err = run_cli(capsys, "dist", "--family", family, "--theta", "1",
                             "--target", target, "--n", "4", "--oracle")
    assert code == EXIT_MATH and out == ""
    assert "mismatch" in err


def test_sub_double_ratio_is_refused(capsys):
    # 10^-400 as a ratio is 0 as a double: the exact backend would see a
    # nonzero weight and the double backend none.
    for value in ("1/1" + "0" * 400, "1" + "0" * 400 + "/3"):
        code, out, err = run_cli(capsys, "hn", "--family", "ewens", f"--theta={value}",
                                 "--n", "3")
        assert code == EXIT_USAGE and out == ""
        assert "outside the double range" in err
    assert parse_number("0/7") == 0 and parse_number("-3/7") == Fraction(-3, 7)


_GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("command", list(_GOLDEN))
def test_stdout_bytes_are_pinned(capsys, command):
    # Full stdout of each subcommand in both formats, recorded before the
    # runners shared one renderer: exact and double values, null cells,
    # list keys, headerless sample rows and both report layouts.  The
    # sample entries were re-recorded, each whole document rendered at
    # once from the library's draws, when the generator became random.Random.
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (EXIT_OK, "")
    assert out == _GOLDEN[command]


@pytest.mark.parametrize("kind, grid", [
    ("poisson-vector", ("--n-grid", "20,40")), ("mod-poisson", ("--n-grid", "20,40")),
    ("clt", ("--n-grid", "20,40")), ("poisson-k", ("--n-grid", "20,40")),
    ("large-dev", ("--n", "40"))])
def test_report_refuses_generalized_family(capsys, kind, grid):
    code, out, err = run_cli(capsys, "report", "--family", "exp-poly", "--theta", "1",
                             "--kind", kind, *grid)
    assert code == EXIT_USAGE and out == ""
    assert "reports need a weighted family" in err


@pytest.mark.parametrize("command", [
    ("hn", "--n-grid", "50,100,200,300,400", "--backend", "double"),
    ("hn", "--n-grid", "50,100", "--backend", "exact", "--format", "csv"),
    ("dist", "--n", "60", "--backend", "double"),
    ("dist", "--target", "cycles", "--b", "2", "--n", "30", "--backend", "double")])
def test_exp_poly_key_order_changes_no_byte(capsys, tmp_path, command):
    # The b<j> keys of one polynomial, in degree order and not: the sums
    # over j run in degree order, so only the family name differs.
    config = tmp_path / "families.ini"
    config.write_text("[sorted]\nkind = exp-poly\ntheta = 1/3\nb2 = 1/2\nb3 = 2/3\nb5 = 1/7\n"
                      "[shuffled]\nkind = exp-poly\ntheta = 1/3\nb5 = 1/7\nb2 = 1/2\nb3 = 2/3\n")
    outs = []
    for name in ("sorted", "shuffled"):
        code, out, err = run_cli(capsys, command[0], "--family", name, "--config", str(config),
                                 *command[1:])
        assert (code, err) == (EXIT_OK, "")
        outs.append(out.replace(name, "NAME"))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("target", ["k", "cycles"])
def test_oracle_cap_is_met_before_the_engine_law(capsys, monkeypatch, target):
    # Building the exact K law at n = 3000 took 3.7 s and 107 MB before
    # this refusal; the partition module's own check now comes first.
    import cyclemeter.cli as cli_mod

    def no_law(*args, **kwargs):
        raise AssertionError("built the engine law")

    monkeypatch.setattr(cli_mod, "total_cycles_pmf", no_law)
    monkeypatch.setattr(cli_mod, "_joint_law", no_law)
    code, out, err = run_cli(capsys, "dist", "--family", "ewens", "--theta", "1",
                             "--target", target, "--n", "3000", "--oracle")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: partition enumeration capped at n <= 80, got 3000\n"


def test_small_double_overflow_ends_as_numpy_did(capsys):
    # h_40(8) ~ 2^1041 inside the report's Chernoff bound overflows on the
    # exact kernel too; the report keeps the numpy kernels' values.
    code, out, err = run_cli(capsys, "report", "--family", "exp-weight", "--c", "17.6",
                             "--theta-exp", "1", "--kind", "clt", "--n-grid", "20,40")
    assert (code, err) == (EXIT_OK, "")
    for report in json.loads(out)["reports"]:
        for got, want in zip(report["values"] + [report["fitted_slope"]],
                             [0.27359669908910944, 0.22858211809886478, -0.25933827796291126]):
            assert abs(got - want) <= 1e-12 * abs(want)
    code, out, err = run_cli(capsys, "hn", "--family", "exp-weight", "--c", "30",
                             "--theta-exp", "1", "--n", "40")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: theta_24 = inf is not a finite nonnegative weight\n"


def test_h30_agrees_on_both_sides_of_the_exact_double_cut(capsys):
    # --n 30 runs the exact kernel rounded once, --n-grid 30,1000 numpy
    hs = []
    for grid in (("--n", "30"), ("--n-grid", "30,1000")):
        code, out, err = run_cli(capsys, "hn", "--family", "polylog", "--delta=-1/2", *grid)
        assert (code, err) == (EXIT_OK, "")
        hs.append(json.loads(out)["rows"][0]["h"])
    assert abs(hs[0] - hs[1]) <= 1e-15 * hs[1]


@pytest.mark.parametrize("argv", [
    # on the float kernel: theta_m = e^-m, and h_3 of theta_1 ~ 5e-324
    ("--family", "exp-weight", "--c=-1", "--theta-exp", "1", "--n", "1000"),
    ("--family", "spatial", "--alpha=744", "--eps=0.5", "--n", "3"),
], ids=["exp-weight", "spatial"])
def test_double_hn_refuses_an_underflow_to_zero(capsys, argv):
    # theta_1 > 0 makes h_n >= theta_1^n / n! > 0, so a double 0 is an underflow
    n = argv[-1]
    code, out, err = run_cli(capsys, "hn", *argv, "--backend", "double")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: h_{n} underflows the double range to 0, though "
                   f"h_{n} >= theta_1^{n}/{n}! > 0; hn and dist compute it with "
                   "--backend exact\n")
    if n == "3":
        code, out, _ = run_cli(capsys, "hn", *argv, "--backend", "exact")
        assert code == EXIT_OK and Fraction(json.loads(out)["rows"][0]["h"]) > 0


@pytest.mark.parametrize("n", ["48", "60"])
def test_double_hn_refuses_an_overflow(capsys, n):
    # h_n = (1e300)^(n) / n! passes the double range; the exact backend prints it
    argv = ("hn", "--family", "ewens", "--theta", "1e300", "--n", n)
    code, out, err = run_cli(capsys, *argv, "--backend", "double")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: h_{n} overflows the double range; hn and dist compute it "
                   "with --backend exact\n")
    code, out, _ = run_cli(capsys, *argv, "--backend", "exact")
    assert code == EXIT_OK and Fraction(json.loads(out)["rows"][0]["h"]) > 2**1024


@pytest.mark.parametrize("kind, grid", [
    ("clt", ("--n-grid", "20,40")), ("mod-poisson", ("--n-grid", "20,40")),
    ("poisson-k", ("--n-grid", "20,40")), ("large-dev", ("--n", "40"))])
@pytest.mark.parametrize("family", [("alpha-exp", "--alpha", "800"),
                                    ("exp-weight", "--c=-800", "--theta-exp", "0")])
def test_reports_refuse_a_class_theta_that_underflows(capsys, family, kind, grid):
    # theta = e^-800 > 0 rounds to 0: the class is refused, not read as theta = 0
    code, out, err = run_cli(capsys, "report", "--family", *family, "--kind", kind, *grid)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: family {family[0]} has no usable singularity class for reports: "
                   "class theta = e^-800.0 underflows the double range to 0\n")


@pytest.mark.parametrize("argv", [
    ("--family", "alpha-exp", "--alpha", "800", "--n", "3"),
    ("--family", "exp-weight", "--c=-800", "--theta-exp", "1/2", "--n", "3"),
    ("--family", "exp-weight", "--c=-800", "--theta-exp", "1", "--n", "3"),
    ("--family", "alpha-exp", "--alpha", "1/2", "--amp", "1000000", "--power", "1/2",
     "--n", "6"),
])
@pytest.mark.parametrize("backend", ["exact", "double"])
def test_hn_refuses_an_exponential_theta_1_that_underflows(capsys, argv, backend):
    # e^x is never 0, so h_n >= theta_1^n/n! > 0 however small the double h_n reads
    code, out, err = run_cli(capsys, "hn", *argv, "--backend", backend)
    assert (code, out) == (EXIT_USAGE, "")
    assert re.fullmatch(r"error: theta_1 = e\^-\d+\.\d+ underflows the double range to 0\n",
                        err)


@pytest.mark.parametrize("backend", ["exact", "double"])
def test_hn_prints_zero_when_a_power_perturbation_cancels_theta_1(capsys, backend):
    # theta_1 = 1 - 1/1^(5/2) is 0 exactly: power 5/2 has no exact rule, so both
    # backends read the double, and h_1 = theta_1 = 0 is a true zero
    code, out, err = run_cli(capsys, "hn", "--family", "theta-shift", "--theta", "1",
                             "--amp=-1", "--power", "5/2", "--n-grid", "1,60",
                             "--backend", backend)
    assert (code, err) == (EXIT_OK, "")
    rows = json.loads(out)["rows"]
    assert rows[0]["h"] in (0, "0") and Fraction(rows[1]["h"]) > 0


def test_double_hn_prints_zero_when_theta_1_is_zero(capsys):
    # theta-shift theta 1, amp -1 has theta_1 = 0, so h_1 = theta_1 = 0 exactly
    code, out, err = run_cli(capsys, "hn", "--family", "theta-shift", "--theta", "1",
                             "--amp=-1", "--n-grid", "1,60", "--backend", "double")
    assert (code, err) == (EXIT_OK, "")
    rows = json.loads(out)["rows"]
    assert rows[0]["h"] == 0 and rows[1]["h"] > 0


@pytest.mark.parametrize("family, n, grid", [
    # theta_m = e^-m, g(t) = -log(1 - t/e): h_1000 = e^-1000 underflows
    (("exp-weight", "--c=-1", "--theta-exp", "1"), "1000", "100,1000"),
    # h_n = (1e300)^(n) / n! overflows from n = 2 on; a grid is refused at its first n
    (("ewens", "--theta", "1e300"), "60", "60"),
    (("ewens", "--theta", "1e300"), "10", "10,20"),
], ids=["underflow", "overflow", "overflow-grid"])
def test_a_double_hn_past_its_range_is_one_refusal_in_every_command(capsys, family, n, grid):
    # theta_1 > 0, so h_n > 0: every law refuses as hn does, before any output
    fam, single, many = ("--family", *family), ("--n", n), ("--n-grid", grid)
    commands = [("hn", *fam, *many, "--backend", "double"),
                ("dist", *fam, *single, "--backend", "double"),
                ("dist", *fam, *single, "--backend", "double", "--target", "cycles", "--b", "2"),
                ("sample", *fam, *single),
                *(("report", *fam, "--kind", kind, *many)
                  for kind in ("clt", "poisson-k", "mod-poisson")),
                ("report", *fam, "--kind", "poisson-vector", "--b", "2", *many),
                ("report", *fam, "--kind", "large-dev", *single)]
    first, *rest = [run_cli(capsys, *argv) for argv in commands]
    assert first[:2] == (EXIT_USAGE, "")
    assert re.fullmatch(rf"error: h_{n} (under|over)flows the double range[^\n]*\n", first[2])
    assert rest == [first] * len(rest)


def test_double_dist_refuses_the_spatial_underflow_as_hn_does(capsys):
    # alpha = 744 passes the check on e^-alpha, but h_3 ~ theta_1^3/6 underflows
    argv = ("--family", "spatial", "--alpha=744", "--eps=0.5", "--n", "3", "--backend", "double")
    code, out, err = run_cli(capsys, "dist", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert run_cli(capsys, "hn", *argv) == (code, out, err)


@pytest.mark.parametrize("backend", ["exact", "double"])
def test_dist_on_a_true_zero_h_n_is_a_degenerate_measure(capsys, backend):
    # theta_1 = 0 makes h_1 = 0 exactly: the measure on S_1 is undefined
    assert run_cli(capsys, "dist", "--family", "theta-shift", "--theta", "1", "--amp=-1",
                   "--n", "1", "--backend", backend) == (
        EXIT_MATH, "", "error: normalization h_1 = 0; the measure is undefined there\n")
