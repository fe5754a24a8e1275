"""Benchmark of the cyclemeter CLI: one workload, one closed-loop client.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root or anywhere else; the benchmark works on
the checkout it lives in and builds nothing: children import the package
from ``src/``.  A pass runs the workload's command list once, one
command after another, each in a fresh ``python -m cyclemeter.cli``
process, and checks every output.  Passes repeat until the next one
would end after ``--seconds``, with at least three passes.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (mean over
passes), ``max_op_s`` (the largest of the commands' mean times over
passes), ``peak_rss_mb`` (median over passes) and ``setup_s``.
``--trace 1`` alternates plain and traced passes (traced commands run
through bench/traced_cli.py) and prints the per-layer metrics of the
traced pass with the median wall time, plus the tracing overhead.

The last line of stdout is the result object; the line before it
records the environment.  Exit status is 0 whenever a result is printed,
also when a check failed (``correct`` is then false); 2 when the
checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads
from procs import Spawner

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BLAS_THREADS = 2
SETUP_SAMPLES = 9
MIN_PASSES = 3

END_TO_END = {"wall_s": "s", "max_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "series.double.self_s": "s", "series.exact.self_s": "s", "series.calls": "count",
    "series.coeff_ops": "ops_from_n", "series.double.bytes_computed": "bytes_from_n",
    "series.minflt": "count",
    "weights.evals": "count", "weights.log_series_s": "s",
    "measure.self_s": "s", "measure.calls": "count",
    "generalized.self_s": "s",
    "pmf.self_s": "s", "pmf.atoms": "count",
    "diagnostics.self_s": "s", "diagnostics.rows": "count",
    "asymptotics.self_s": "s",
    "sampler.self_s": "s", "sampler.draws": "count", "sampler.cycles": "count",
    "partitions.self_s": "s", "partitions.classes": "count",
    "catalog.self_s": "s",
    "cli.self_s": "s", "cli.serialize_s": "s", "cli.bytes_out": "bytes",
    "specfun.evals": "count",
    "proc.cpu_s": "s", "trace.wall_s": "s", "trace.overhead_frac": "ratio",
    "unattributed_s": "s",
}

_ENV_PROBE = """
import ctypes, json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for path in {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        if threads is None and hasattr(lib, name):
            get = getattr(lib, name)
            get.argtypes, get.restype = [], ctypes.c_int
            threads = get()
print(json.dumps({"numpy": numpy.__version__, "blas_threads": threads,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS))
    return env


class Runner:
    """Numbers the commands of a run and keeps their output files apart."""

    def __init__(self, workdir: str, spawner: Spawner):
        self.workdir = workdir
        self.spawner = spawner
        self.env = child_env()
        self.count = 0

    def run(self, argv: list):
        self.count += 1
        base = os.path.join(self.workdir, f"c{self.count}")
        return self.spawner.run([sys.executable, *argv], self.env, base + ".out", base + ".err")

    def spans_path(self) -> str:
        return os.path.join(self.workdir, f"c{self.count + 1}.spans")


def environment(runner: Runner) -> dict:
    probe = runner.run(["-c", _ENV_PROBE])
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"python": platform.python_version(),
            **(json.loads(probe.stdout) if probe.returncode == 0 else {}),
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit}


def setup_samples(runner: Runner) -> list:
    """Fresh interpreter to the end of ``import cyclemeter.cli``, per process."""
    code = "import cyclemeter.cli, sys, time; sys.stdout.write(repr(time.perf_counter()))"
    out = []
    for _ in range(SETUP_SAMPLES):
        res = runner.run(["-c", code])
        if res.returncode != 0:
            raise RuntimeError(f"import failed: {res.stderr.decode()[-500:]}")
        out.append(float(res.stdout) - res.start)
    return out


def run_pass(runner: Runner, cmds: list, traced: bool) -> list:
    results = []
    for cmd in cmds:
        if traced:
            path = runner.spans_path()
            res = runner.run([os.path.join(BENCH, "traced_cli.py"), path, *cmd.argv])
            results.append((cmd, res, path))
        else:
            results.append((cmd, runner.run(["-m", "cyclemeter.cli", *cmd.argv]), None))
    return results


class Verifier:
    """Checks outputs; identical bytes of one command are checked once."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.verdicts = {}

    def problems(self, cmd, res) -> list:
        if res.returncode != 0:
            return [f"exit {res.returncode}: {res.stderr.decode(errors='replace')[-300:]}"]
        key = (cmd.key, hashlib.sha256(res.stdout).hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = checks.check_output(cmd, res.stdout, self.refs)
        return self.verdicts[key]


def traced_metrics(results: list) -> dict:
    """Per-layer figures of one traced pass."""
    totals = dict.fromkeys(PER_LAYER, 0)
    attributed = 0.0
    for _, res, path in results:
        if not os.path.exists(path):
            continue  # the command failed before writing spans; counted as failed
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        for name, value in spans.layer_metrics(lines[:-1]).items():
            if name == "attributed_s":
                attributed += value
            else:
                totals[name] += value
        for name, value in lines[-1]["counters"].items():
            totals[name] += value
        totals["cli.bytes_out"] += len(res.stdout)
    wall = pass_wall(results)
    totals["trace.wall_s"] = wall
    totals["unattributed_s"] = wall - attributed
    return totals


def pass_wall(results: list) -> float:
    return results[-1][1].end - results[0][1].start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cyclemeter", "cli.py")):
        print(f"error: no cyclemeter package under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    with open(os.path.join(BENCH, "refs.json")) as fh:
        verifier = Verifier(json.load(fh))
    cmds = workloads.commands(args.workload, args.seed)
    workdir = os.path.join(BENCH, "_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        with Spawner() as spawner:
            runner = Runner(workdir, spawner)
            load_before = os.getloadavg()
            env = environment(runner)
            runner.run(["-m", "compileall", "-q", os.path.join("src", "cyclemeter"), "bench"])
            setup = [] if args.trace else setup_samples(runner)
            passes, failed, attempted = run_loop(runner, cmds, verifier, args)
        env.update(load_before=load_before, load_after=os.getloadavg(),
                   workload=args.workload, seed=args.seed, passes=len(passes),
                   setup_samples_s=setup)
        if args.trace:
            metrics, units = layer_result(passes), PER_LAYER
        else:
            metrics, units = end_to_end(passes, setup), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps({"passes": [{"traced": traced,
                                  "command_s": [res.wall_s for _, res, _ in results]}
                                 for traced, results in passes]}))
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


def run_loop(runner: Runner, cmds: list, verifier: Verifier, args) -> tuple:
    """Passes until the next would overrun --seconds; traced ones alternate."""
    start = time.perf_counter()
    passes, durations = [], []
    failed = attempted = 0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        results = run_pass(runner, cmds, traced)
        for cmd, res, _ in results:
            attempted += 1
            problems = verifier.problems(cmd, res)
            if problems:
                failed += 1
                print(f"FAILED {cmd.key}: " + "; ".join(problems[:5]), file=sys.stderr)
        passes.append((traced, results))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) > args.seconds:
            return passes, failed, attempted


def end_to_end(passes: list, setup: list) -> dict:
    runs = [results for _, results in passes]
    per_cmd = zip(*[[res.wall_s for _, res, _ in results] for results in runs])
    return {
        # Means, not medians: on a shared host a command's speed jumps between
        # a fast and a slow mode, and the median of the few passes a run holds
        # jumps with it, while the mean averages over the whole measured time.
        "wall_s": statistics.fmean(pass_wall(r) for r in runs),
        "max_op_s": max(statistics.fmean(times) for times in per_cmd),
        "peak_rss_mb": statistics.median(
            max(res.maxrss_kb for _, res, _ in r) for r in runs) / 1024,
        "setup_s": statistics.median(setup),
    }


def layer_result(passes: list) -> dict:
    plain = [r for traced, r in passes if not traced]
    traced = sorted((r for t, r in passes if t), key=pass_wall)
    chosen = traced[(len(traced) - 1) // 2]
    metrics = traced_metrics(chosen)
    metrics["proc.cpu_s"] = statistics.median(
        sum(res.cpu_s for _, res, _ in r) for r in plain)
    metrics["trace.overhead_frac"] = (statistics.median(pass_wall(r) for r in traced)
                                      / statistics.median(pass_wall(r) for r in plain) - 1)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
