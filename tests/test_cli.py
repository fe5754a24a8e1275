"""Command-line interface: exit codes, determinism, config handling.

The CLI is driven in-process through main(argv); stdout is captured by
pytest.  Oracles are the library calls the commands wrap.
"""

import contextlib
import io
import json
import re
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemeter.asymptotics import ewens_family, theta_shift_family
from cyclemeter.catalog import FAMILIES, KINDS, parse_number
from cyclemeter.cli import (EXIT_MATH, EXIT_OK, EXIT_TREND, EXIT_USAGE, main)
from cyclemeter.errors import ResourceError
from cyclemeter.generalized import (exp_polynomial_weights,
                                    generalized_joint_cycle_pmf)
from cyclemeter.measure import joint_cycle_pmf, normalization_constants


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


def test_report_csv_deterministic(capsys):
    args = ("report", "--family", "ewens", "--theta", "2", "--kind",
            "poisson-vector", "--b", "2", "--n-grid", "25,50", "--format", "csv")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert out1.startswith("n,metric,value,reference_rate_value\n")


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


def test_sample_generalized_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sample", "--family", "exp-poly",
                           "--theta", "1", "--n", "5")
    assert code == EXIT_USAGE


def test_report_without_class_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "report", "--family", "polylog",
                           "--delta=-1/2", "--kind", "clt",
                           "--n-grid", "20,40")
    assert code == EXIT_USAGE


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


def test_large_dev_report(capsys):
    code, out, _ = run_cli(capsys, "report", "--family", "ewens", "--theta",
                           "1", "--kind", "large-dev", "--n", "500",
                           "--assert-trends")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["table"]["rel_error"] <= 0.25


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


def test_missing_n_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "hn", "--family", "ewens", "--theta", "1")
    assert code == EXIT_USAGE


def test_exp_poly_dist(capsys):
    code, out, _ = run_cli(capsys, "dist", "--family", "exp-poly", "--theta",
                           "1", "--n", "4", "--oracle")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["mass"] == ["1/4", "11/24", "1/4", "1/24"]


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "hn", "--family", "ewens", "--theta", "1",
                             "--n", "5", "--output", str(target))
    assert code == EXIT_USAGE
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("joint, weights, family", [
    (joint_cycle_pmf, ewens_family(1).weights, "ewens"),
    (generalized_joint_cycle_pmf, exp_polynomial_weights(1, {}), "exp-poly"),
])
def test_joint_support_cap(capsys, joint, weights, family):
    # (C_1..C_12) at n=150 has more tuples than the cap: both measures
    # refuse at once instead of enumerating for minutes.
    with pytest.raises(ResourceError):
        joint(weights, 150, 12)
    code, _, err = run_cli(capsys, "dist", "--family", family, "--theta", "1",
                           "--target", "cycles", "--b", "12", "--n", "150",
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
    # weights that overflow a double: e^(m^2), and e^1000 in the class data
    ("--family", "exp-weight", "--c", "1", "--theta-exp", "2", "--n", "50"),
    ("--family", "alpha-exp", "--alpha=-1000", "--n", "3"),
])
def test_bad_family_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "hn", *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:")


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


def test_slow_perturbation_decay_is_refused_at_once(capsys):
    # alpha_m = 1/2 + 1/sqrt(m): the blocks of |theta_m - theta|/m decay
    # too slowly for K, which shows long before m = 2^21.
    start = time.monotonic()
    code, out, err = run_cli(capsys, "hn", "--family", "alpha-exp", "--alpha", "1/2",
                             "--amp", "1", "--power", "1/2", "--n", "6")
    assert code == EXIT_MATH and out == ""
    assert err.startswith("error:")
    assert time.monotonic() - start < 0.5


def test_double_overflow_leaks_no_numpy_warning(capsys):
    # theta = 1e300 overflows h_5 in a numpy dot; the refusal is the error
    # line alone, even when warnings are errors.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "hn", "--family", "ewens", "--theta", "1e300",
                                 "--n", "5", "--backend", "double")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:")


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


@pytest.mark.parametrize("family", ["ewens", "exp-poly"])
@pytest.mark.parametrize("target, oracle", [("k", "k"), ("cycles", "cycle_type")])
def test_oracle_tripwire_per_measure_and_target(monkeypatch, capsys, family, target, oracle):
    # The law lookup runs per call, so a patched oracle of either measure
    # and either target is the one --oracle consults.
    import cyclemeter.cli as cli_mod
    from cyclemeter.partitions import Partition
    from cyclemeter.pmf import Pmf

    def wrong_oracle(weights, n, backend="exact"):
        if oracle == "k":
            return Pmf({1: Fraction(1)})
        return Pmf({Partition((n,)): Fraction(1)}), Fraction(1)

    generalized = "generalized_" if family == "exp-poly" else ""
    monkeypatch.setattr(cli_mod, f"brute_force_{generalized}{oracle}_pmf", wrong_oracle)
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
