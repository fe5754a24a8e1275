"""Run one cyclemeter CLI command with timing wrappers around each layer.

Usage: python bench/traced_cli.py SPANS_PATH CLI_ARGS...

The package binds names with ``from .x import y``, so a wrapper is
installed under every module attribute that holds the original function
(lazy ``from .x import y`` inside a function reads the patched module
attribute at call time).  Per-element functions -- weight evaluation and
special functions, called millions of times -- get counters, not spans.

Spans stay in memory and are written as JSON lines to SPANS_PATH when
the command ends: one line per span, then one line of counters.  Names
the package no longer defines are listed under ``missing``.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

SERIES_OPS = {
    # multiply-adds of the dense algorithm at truncation order N
    "ts_exp": lambda N, kind: N * (N + 1) // 2,
    "ts_log": lambda N, kind: N * (N + 1) // 2,
    "ts_mul": lambda N, kind: (N + 1) * (N + 2) // 2,
    "bv_exp_wg": lambda N, kind: (N * (N + 1) * (2 * N + 1) // 6 if kind == "double"
                                  else N * (N + 1) * (N + 2) // 6),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def span(self, layer, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            tb = clock()
            rec = {"layer": layer, "fn": fn.__name__, "parent": stack[-1] if stack else -1}
            if before:
                before(rec, args, kw)
            stack.append(len(spans))
            spans.append(rec)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                rec.update(t0=t0, t1=t1, x=t0 - tb)
            if after:
                after(rec, result, args)
            rec["x"] += clock() - t1
            return result

        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            cell[0] += 1
            return fn(*args, **kw)

        return wrapper

    def dump(self, path, missing):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counters": {k: c[0] for k, c in self.counts.items()},
                                 "missing": missing}) + "\n")


# -- hooks: attributes recorded per span, outside its timed interval ---------


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _series_before(rec, args, kw):
    g = args[0]
    rec["kind"] = g.kind
    rec["ops"] = SERIES_OPS[rec["fn"]](g.order, g.kind)
    rec["flt0"] = _minflt()


def _series_after(rec, result, args):
    rec["minflt"] = _minflt() - rec.pop("flt0")


def _partitions_before(rec, args, kw):
    rec["n"] = args[1] if len(args) > 1 else kw["n"]


def _pmf_after(rec, result, args):
    rec["atoms"] = len(args[0])


def _rows_after(rec, result, args):
    rec["rows"] = 1 if isinstance(result, dict) else sum(len(r.n_values) for r in result)


def _cycles_of(image) -> int:
    seen = bytearray(len(image) + 1)
    cycles = 0
    for start in range(1, len(image) + 1):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = 1
                j = image[j - 1]
    return cycles


def _sampler_after(rec, result, args):
    draws = result if isinstance(result, list) else [result]
    rec["draws"] = len(draws)
    if rec["fn"] == "sample_cycle_type":
        rec["cycles"] = sum(len(d.parts) for d in draws)
    else:
        rec["cycles"] = sum(_cycles_of(d) for d in draws)


_SERIES = (_series_before, _series_after)
_ROWS = (None, _rows_after)

# (layer, module, function, hooks); a "Class.method" name patches the class
SPANS = [
    *[("series", "series", f, _SERIES) for f in ("ts_exp", "ts_log", "ts_mul", "bv_exp_wg")],
    ("weights", "measure", "weight_log_series", ()),
    ("weights", "generalized", "eg_series", ()),
    *[("measure", "measure", f, ()) for f in (
        "normalization_constants", "total_cycles_pmf", "total_cycles_pmf_many",
        "joint_cycle_pmf", "expected_cycle_counts")],
    *[("sampler", "measure", f, (None, _sampler_after))
      for f in ("sample_cycle_type", "sample_permutation")],
    *[("generalized", "generalized", f, ()) for f in (
        "generalized_normalization", "generalized_joint_cycle_pmf",
        "generalized_total_cycles_pmf", "exp_polynomial_weights",
        "exp_polynomial_log_series", "spatial_effective_weights",
        "spatial_class_params", "spatial_F")],
    ("pmf", "pmf", "Pmf.__init__", (None, _pmf_after)),
    *[("diagnostics", "diagnostics", f, _ROWS) for f in (
        "poisson_vector_report", "mod_poisson_report", "clt_report",
        "poisson_k_approx_report", "large_deviation_table")],
    *[("diagnostics", "diagnostics", f, ()) for f in (
        "truncated_poisson", "d_loc", "d_K", "tv_distance")],
    *[("asymptotics", "asymptotics", f, ()) for f in (
        "asymptotic_hn", "large_deviation_estimate", "mod_poisson_limit",
        "hwang_estimate", "lindelof_eval", "theta_shift_constant", "ewens_family",
        "theta_shift_family", "polylog_family", "exp_weight_family", "alpha_exp_family")],
    *[("partitions", "partitions", f, (_partitions_before, None)) for f in (
        "brute_force_normalization", "brute_force_cycle_type_pmf", "brute_force_k_pmf",
        "brute_force_generalized_normalization",
        "brute_force_generalized_cycle_type_pmf", "brute_force_generalized_k_pmf")],
    *[("catalog", "catalog", f, ()) for f in (
        "family_from_request", "load_config", "build_family")],
    ("cli.serialize", "diagnostics", "dumps_deterministic", ()),
]

COUNTERS = [
    *[("weights.evals", "measure", f"WeightSequence.{m}") for m in ("theta", "theta_exact")],
    *[("weights.evals", "generalized", f"GeneralizedWeights.{m}")
      for m in ("value", "value_exact")],
    *[("specfun.evals", "specfun", f) for f in (
        "complex_gamma", "reciprocal_gamma", "riemann_zeta", "poisson_pmf",
        "poisson_log_pmf", "normal_cdf")],
]


def install(tracer: Tracer) -> list:
    """Patch every target; returns the names the package does not define."""
    import importlib
    import pkgutil

    import cyclemeter

    modules = {"cyclemeter": cyclemeter}
    for info in pkgutil.iter_modules(cyclemeter.__path__):
        modules[info.name] = importlib.import_module(f"cyclemeter.{info.name}")

    def patch(module_name, name, make):
        owner = modules.get(module_name)
        cls_name, _, attr = name.rpartition(".")
        if owner is not None and cls_name:
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return f"{module_name}.{name}"
        wrapped = make(original)
        if cls_name:
            setattr(owner, attr, wrapped)
            return None
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
        return None

    missing = []
    for layer, module_name, name, hooks in SPANS:
        miss = patch(module_name, name,
                     lambda fn, layer=layer, hooks=hooks: tracer.span(layer, fn, *hooks))
        missing += [miss] if miss else []
    for metric, module_name, name in COUNTERS:
        miss = patch(module_name, name, lambda fn, metric=metric: tracer.counter(metric, fn))
        missing += [miss] if miss else []
    return missing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    missing = install(tracer)
    import cyclemeter.cli

    code = tracer.span("cli", cyclemeter.cli.main)(argv)
    sys.stdout.flush()
    tracer.dump(spans_path, missing)
    return code


if __name__ == "__main__":
    sys.exit(main())
