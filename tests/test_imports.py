"""Imports: every name a scope imports is used there, and exact commands
start without numpy.

A module's imports may be read anywhere in its file, a function's only in
that function's body.  __init__.py is skipped: its imports are the
package's re-exports.  numpy is imported inside the functions that do
double arithmetic, sample or run the generalized lattice, so the package,
the CLI module and exact commands of weighted and exp-poly families never
load it; each of those runs in a fresh interpreter.  json is imported only
by the serializer's int-row branch, so the CLI module starts without it.
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
], ids=["package", "cli", "hn-exact", "dist-auto", "dist-oracle", "dist-cycles",
        "dist-cycles-oracle", "exp-poly-hn", "exp-poly-dist", "exp-poly-dist-oracle",
        "exp-poly-dist-cycles", "exp-poly-b2-hn", "exp-poly-b2-dist", "exp-poly-b2-dist-cycles"])
def test_exact_paths_do_not_load_numpy(code):
    res = _loads(code)
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines()[-1] == "False"
    if "main" in code:
        assert '"backend": "exact"' in res.stdout


def test_cli_import_leaves_json_unloaded():
    res = _loads("import cyclemeter.cli", "json")
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines()[-1] == "False"


def test_double_command_loads_numpy():
    res = _loads(_cli("hn", *EWENS, "--n", "10", "--backend", "double"))
    assert res.returncode == 0, res.stderr
    assert '"backend": "double"' in res.stdout
    assert res.stderr.splitlines()[-1] == "True"
