"""The three command lists, one per workload, and how each output is checked.

Each command is one ``cyclemeter`` CLI invocation, run in a fresh
process.  ``key`` names the command independently of the seed; it
indexes the reference values in ``refs.json``.  ``check`` says how the
output is verified (see checks.py):

* ``{"kind": "ref"}`` -- compare against the stored reference document;
* ``{"kind": "sample", ...}`` -- validate every draw, plus the named
  statistical test.

Only ``sample`` commands depend on the seed: the i-th sample command of
the list gets ``--seed <seed + i>``.  The default is 20260817, the seed of
acceptance criterion 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 20260817
FAMILIES_INI = "bench/families.ini"


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple
    check: dict = field(default_factory=lambda: {"kind": "ref"})


_EXACT_RATIONAL = [
    "hn --family ewens --theta 1/2 --n-grid 100,200,300 --backend exact",
    "hn --family theta-shift --theta 1 --amp 1 --power 2 --n-grid 50,200 --backend exact",
    "dist --family ewens --theta 1/2 --n 120",
    "dist --family theta-shift --theta 1 --n 50",
    "dist --family theta-shift --theta 1 --n 28 --oracle",
    "dist --family polylog --delta=-1/2 --n 30 --oracle",
    "dist --family ewens --theta 1/2 --target cycles --b 3 --n 24 --oracle",
    f"dist --family grid2 --config {FAMILIES_INI} --n 14 --oracle",
    "dist --family theta-shift --theta 1 --target cycles --b 3 --n 40",
    "hn --family exp-poly --theta 1 --n 120",
    "dist --family exp-poly --theta 1 --n 40",
    "dist --family exp-poly --theta 1 --n 25 --oracle",
]

_DOUBLE_LIMIT_LAWS = [
    "hn --family ewens --theta 1/2 --n-grid 100,2000,4000,20000",
    "report --family ewens --theta 1 --kind poisson-k --n-grid 100,300,500",
    "report --family ewens --theta 1 --kind clt --n-grid 100,500",
    "report --family ewens --theta 1 --kind large-dev --n 1200",
    "report --family ewens --theta 2 --kind mod-poisson --n-grid 100,300,500",
    "report --family ewens --theta 2 --kind poisson-vector --b 2 --n-grid 50,100,200,400,600",
    "report --family theta-shift --theta 1 --kind poisson-vector --b 3 --n-grid 50,100,200",
    "report --family alpha-exp --alpha 1/2 --amp 1 --power 2 --kind clt --n-grid 100,500",
    "dist --family ewens --theta 1/2 --n 500 --backend double",
]

# (argv without --seed, check); the seed is appended per run
_SAMPLING = [
    ("sample --family ewens --theta 2 --n 8 --count 50000 --cycle-type-only",
     {"kind": "sample", "draw": "cycle-type", "n": 8, "count": 50000,
      "test": "chi2-ewens", "theta": "2"}),
    ("sample --family theta-shift --theta 1 --n 50 --count 10000 --cycle-type-only",
     {"kind": "sample", "draw": "cycle-type", "n": 50, "count": 10000,
      "test": "mean-k", "ref": "theta-shift-1-1-2/K50"}),
    ("sample --family ewens --theta 1/2 --n 1500 --count 10",
     {"kind": "sample", "draw": "permutation", "n": 1500, "count": 10}),
    ("sample --family ewens --theta 2 --n 200 --count 300",
     {"kind": "sample", "draw": "permutation", "n": 200, "count": 300}),
    ("sample --family ewens --theta 2 --n 4000 --cycle-type-only",
     {"kind": "sample", "draw": "cycle-type", "n": 4000, "count": 1}),
]

WORKLOADS = ("exact-rational", "double-limit-laws", "sampling")


def commands(workload: str, seed: int = DEFAULT_SEED) -> list:
    """The command list of one workload, in run order."""
    if workload == "exact-rational":
        return [Command(line, tuple(line.split())) for line in _EXACT_RATIONAL]
    if workload == "double-limit-laws":
        return [Command(line, tuple(line.split())) for line in _DOUBLE_LIMIT_LAWS]
    if workload == "sampling":
        return [Command(line, tuple(line.split()) + ("--seed", str(seed + i)), check)
                for i, (line, check) in enumerate(_SAMPLING)]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def reference_commands() -> list:
    """Every command whose output is compared against refs.json."""
    return [c for w in WORKLOADS for c in commands(w) if c.check["kind"] == "ref"]
