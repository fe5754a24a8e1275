"""Imports: every name a scope imports is used there, and commands on the
exact integer kernel start without numpy.

A module's imports may be read anywhere in its file, a function's only in
that function's body.  __init__.py is skipped: its imports are the
package's re-exports.  numpy is imported inside the functions that run
double K_n bands and h_n over the float kernels' budget of Python
products (bands up to the exact-double cut run the integer kernel), the
joint-law blocks of the poisson-vector report, the mod-poisson report
or the generalized lattice, so the package, the CLI module, exact
commands of weighted and exp-poly families and double hn, dist (either
target) and sample commands up to the cut never load it.  Past the cut,
h_n within the budget (Ewens at any n, dense weights up to n = 127)
keeps double hn, dist --target cycles and sample off numpy too, and
bands within it keep the Ewens clt, poisson-k and large-dev reports off
it; no sample command loads numpy.random.  Each of those runs in a fresh
interpreter.  json is imported only by the serializer's int-row branch,
so the CLI module starts without it.  The package defines no dataclasses, so the CLI
module loads neither dataclasses nor the inspect module it pulls in,
and configparser loads only where a --config file is read.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclemeter

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyclemeter"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """The nodes of scope that no function nested in it encloses."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list:
    found = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, *FUNCTIONS)):
            continue
        imported = {}
        for node in _own_nodes(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        found += [(line, name) for name, line in imported.items() if name not in used]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import math\nfrom os import path, sep as s\nprint(math.pi, s)\n"
    assert unused_imports(source) == [(2, "path")]


def test_unused_import_in_a_function_is_found():
    # g reads np, but from its own import: f's import of np is stale.
    source = ("import math\n"
              "def f():\n    import numpy as np\n    return math.pi\n"
              "def g():\n    import numpy as np\n    return np.pi\n")
    assert unused_imports(source) == [(3, "np")]


def _loads(code: str, module: str = "numpy") -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter; its last stderr line says whether
    module was loaded."""
    src = str(Path(cyclemeter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"import sys\n{code}\nprint({module!r} in sys.modules, file=sys.stderr)\n"
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)


def _cli(*argv) -> str:
    return f"from cyclemeter.cli import main\nassert main({list(argv)!r}) == 0"


EWENS = ("--family", "ewens", "--theta", "1/2")
EXP_POLY = ("--family", "exp-poly", "--theta", "1/2")
POLYLOG = ("--family", "polylog", "--delta=-1/2")  # no exact rule: double by default
# b2 = 1/4 gives two log-series parts: their sum at w = 1 and the joint tail
QUAD = ("--family", "quad", "--config", str(Path(__file__).resolve().parent / "exp_poly.ini"))


@pytest.mark.parametrize("code", [
    "import cyclemeter",
    "import cyclemeter.cli",
    _cli("hn", *EWENS, "--n", "10", "--backend", "exact"),
    _cli("dist", *EWENS, "--n", "20"),
    _cli("dist", *EWENS, "--n", "12", "--oracle"),
    _cli("dist", *EWENS, "--target", "cycles", "--b", "3", "--n", "12"),
    _cli("dist", *EWENS, "--target", "cycles", "--b", "3", "--n", "10", "--oracle"),
    _cli("hn", *EXP_POLY, "--n", "30"),
    _cli("dist", *EXP_POLY, "--n", "20"),
    _cli("dist", *EXP_POLY, "--n", "12", "--oracle"),
    _cli("dist", *EXP_POLY, "--target", "cycles", "--b", "2", "--n", "12"),
    _cli("hn", *QUAD, "--n", "30"),
    _cli("dist", *QUAD, "--n", "20"),
    _cli("dist", *QUAD, "--target", "cycles", "--b", "2", "--n", "12"),
    # double h_n run the float kernel, and the K_n band up to the cut the exact
    # kernel, rounded once
    _cli("hn", *POLYLOG, "--n", "30"),
    _cli("dist", *POLYLOG, "--n", "30", "--oracle"),
    _cli("dist", *EWENS, "--n", "20", "--backend", "double"),
    _cli("dist", *EXP_POLY, "--n", "20", "--backend", "double"),
    # double joint laws are filled one float per tuple
    _cli("dist", *EWENS, "--target", "cycles", "--b", "3", "--n", "48", "--backend", "double"),
    _cli("dist", *EXP_POLY, "--target", "cycles", "--b", "2", "--n", "30", "--backend", "double"),
    _cli("dist", *POLYLOG, "--target", "cycles", "--b", "2", "--n", "30", "--oracle"),
    # past the cut, h_n of summed or short terms runs on Python floats
    _cli("hn", *EWENS, "--n-grid", "100,20000", "--backend", "double"),
    _cli("dist", *EWENS, "--target", "cycles", "--b", "3", "--n", "60", "--backend", "double"),
    _cli("hn", "--family", "theta-shift", "--theta", "1", "--n", "100", "--backend", "double"),
    # a K_n band within that budget runs on Python floats at every order: the
    # certified columns of the Ewens reports, and its fitted slopes are plain sums
    _cli("report", *EWENS, "--kind", "clt", "--n-grid", "100,20000"),
    _cli("report", *EWENS, "--kind", "poisson-k", "--n-grid", "100,300,500"),
    _cli("report", *EWENS, "--kind", "large-dev", "--n", "1200"),
    _cli("dist", "--family", "ewens", "--theta=1e-300", "--n", "48", "--backend", "double"),
], ids=["package", "cli", "hn-exact", "dist-auto", "dist-oracle", "dist-cycles",
        "dist-cycles-oracle", "exp-poly-hn", "exp-poly-dist", "exp-poly-dist-oracle",
        "exp-poly-dist-cycles", "exp-poly-b2-hn", "exp-poly-b2-dist", "exp-poly-b2-dist-cycles",
        "polylog-hn-double", "polylog-dist-oracle-double", "dist-double", "exp-poly-dist-double",
        "dist-cycles-double", "exp-poly-dist-cycles-double", "polylog-dist-cycles-oracle-double",
        "hn-double-past-cut", "dist-cycles-double-past-cut", "theta-shift-hn-double-past-cut",
        "clt-report", "poisson-k-report", "large-dev-report", "dist-double-tiny-theta"])
def test_exact_paths_do_not_load_numpy(code):
    res = _loads(code)
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines()[-1] == "False"
    if "main" in code and "report" not in code:
        backend = "double" if "double" in code or "polylog" in code else "exact"
        assert f'"backend": "{backend}"' in res.stdout


@pytest.mark.parametrize("flags", [(), ("--cycle-type-only",)], ids=["permutation", "cycle-type"])
@pytest.mark.parametrize("n", [1, 8, 48, 60, 4000])
def test_sample_loads_no_numpy_random(n, flags):
    # random.Random draws; Ewens h_n past the exact-double cut is one summed
    # term per order on Python floats
    code = _cli("sample", *EWENS, "--n", str(n), "--count", "3", "--seed", "7", *flags)
    for module in ("numpy", "numpy.random"):
        res = _loads(code, module)
        assert res.returncode == 0, res.stderr
        assert '"command": "sample"' in res.stdout
        assert res.stderr.splitlines()[-1] == "False"


def test_cli_import_leaves_json_unloaded():
    res = _loads("import cyclemeter.cli", "json")
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines()[-1] == "False"


@pytest.mark.parametrize("module", ["dataclasses", "inspect", "configparser"])
@pytest.mark.parametrize("code", [
    "import cyclemeter",
    "import cyclemeter.cli",
    _cli("hn", *EWENS, "--n", "10", "--backend", "exact"),
    _cli("dist", *EWENS, "--n", "20", "--backend", "exact"),
], ids=["package", "cli", "hn-exact", "dist-exact"])
def test_startup_loads_no_dataclasses_inspect_or_configparser(code, module):
    res = _loads(code, module)
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines()[-1] == "False"


def test_config_command_loads_configparser():
    res = _loads(_cli("hn", *QUAD, "--n", "3"), "configparser")
    assert res.returncode == 0, res.stderr
    assert '"family": "quad"' in res.stdout and '"h": "' in res.stdout
    assert res.stderr.splitlines()[-1] == "True"


def test_double_command_loads_numpy():
    # a K_n band past the float kernel's budget of Python products runs on numpy
    # (the full Ewens band at n = 500 reads about 250 products per order), and so
    # does an h_n of dense weights past that budget
    for code in (_cli("dist", *EWENS, "--n", "500", "--backend", "double"),
                 _cli("hn", "--family", "theta-shift", "--theta", "1", "--n", "4000",
                      "--backend", "double")):
        res = _loads(code)
        assert res.returncode == 0, res.stderr
        assert '"backend": "double"' in res.stdout
        assert res.stderr.splitlines()[-1] == "True"
