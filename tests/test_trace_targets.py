"""The per-layer benchmark's wrap targets still exist in the package.

bench/traced_cli.py wraps every SPANS and COUNTERS name at its import
sites and lists those the package no longer defines as ``missing``; its
hooks read a few attributes of the wrapped functions' arguments and
results.  The script is executed from its path without installing any
wrapper, so a rename or deletion in the package fails here.
"""

import importlib
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

from cyclemeter.diagnostics import ComparisonReport
from cyclemeter.partitions import Partition
from cyclemeter.pmf import Pmf
from cyclemeter.series import EXACT, TruncatedSeries

TRACED = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"))
TARGETS = ([(module, name) for _, module, name, _ in TRACED["SPANS"]]
           + [(module, name) for _, module, name in TRACED["COUNTERS"]])


@pytest.mark.parametrize("module, name", TARGETS, ids=lambda x: x)
def test_wrap_target_resolves(module, name):
    owner = importlib.import_module(f"cyclemeter.{module}")
    for attr in name.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_hook_attributes_exist():
    g = TruncatedSeries([0, 1], EXACT)
    assert (g.kind, g.order) == (EXACT, 1)
    assert len(Pmf({0: Fraction(1)})) == 1
    assert Partition((2, 1)).parts == (2, 1)
    assert ComparisonReport("tv", [2], [0.5], "1/n", [0.5], None).n_values == [2]
