"""Command-line interface.

Subcommands:

* hn      -- normalization constants h_n with asymptotic comparison;
* dist    -- exact pmf of the total cycle count or of (C_1..C_b);
* sample  -- seeded, reproducible sampling of cycle types/permutations;
* report  -- limit-law diagnostics along an n-grid.

Exit codes: 0 success; 2 usage or config error, a refused size, or an
unwritable --output; 3 mathematical inconsistency (oracle mismatch,
degenerate measure, unusable class); 4 failed trend assertion
(--assert-trends).

Output is deterministic: identical invocations produce identical bytes;
floats carry 17 significant digits.  `sample` draws and writes its rows
in blocks of about 2^14 integers, so its memory does not depend on
--count; every refusal comes before the first draw and writes nothing,
but a draw that fails later (exit 3) leaves the blocks already written.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings
from itertools import islice

from .asymptotics import WeightFamily, asymptotic_hn
from .catalog import KINDS, family_flags, family_from_request
from .diagnostics import (clt_report, dumps_csv, dumps_deterministic,
                          large_deviation_table, mod_poisson_report,
                          poisson_k_approx_report, poisson_vector_report,
                          report_rows)
from .errors import (ConvergenceError, DegenerateMeasureError, GammaPoleError,
                     ResourceError, UnsupportedClassError, UsageError)
from .generalized import GeneralizedWeights
from .measure import (_sample_rows, joint_cycle_pmf, normalization_constants,
                      total_cycles_pmf)
from .partitions import brute_force_cycle_counts_pmf, brute_force_k_pmf
from .series import EXACT, auto_kind, pmf_tol, to_kind

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3
EXIT_TREND = 4

_REPORT_KINDS = ("poisson-vector", "mod-poisson", "clt", "poisson-k", "large-dev")
_DEFAULT_S_GRID = "0,0.5,-0.5,1,-1,2,-2"
_SAMPLE_BLOCK = 1 << 14  # integers per block of sample output


class _TrendFailure(Exception):
    pass


def _family_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--family", required=True,
                   help=f"builtin kind ({', '.join(KINDS)}) or a config section name")
    for dest, text in family_flags().items():
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, help=text)
    p.add_argument("--config", help="INI file defining named families")
    p.add_argument("--backend", choices=("auto", "exact", "double"), default="auto")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cyclemeter",
                                     description="Exact cycle statistics of weighted "
                                                 "random permutations")
    sub = parser.add_subparsers(dest="command", required=True)
    fam = _family_parent()

    p_hn = sub.add_parser("hn", parents=[fam], help="normalization constants")
    p_hn.add_argument("--n", type=int)
    p_hn.add_argument("--n-grid", dest="n_grid", help="comma-separated n values")

    p_dist = sub.add_parser("dist", parents=[fam], help="exact distributions")
    p_dist.add_argument("--target", choices=("k", "cycles"), default="k")
    p_dist.add_argument("--n", type=int, required=True)
    p_dist.add_argument("--b", type=int, default=1)
    p_dist.add_argument("--oracle", action="store_true",
                        help="cross-check against the partition oracle")

    p_sample = sub.add_parser("sample", parents=[fam], help="seeded sampling")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--cycle-type-only", dest="cycle_type_only",
                          action="store_true")

    p_rep = sub.add_parser("report", parents=[fam], help="limit-law diagnostics")
    p_rep.add_argument("--kind", choices=_REPORT_KINDS, required=True)
    p_rep.add_argument("--n", type=int, help="single n (large-dev)")
    p_rep.add_argument("--n-grid", dest="n_grid", help="comma-separated n values")
    p_rep.add_argument("--b", type=int, default=2)
    p_rep.add_argument("--s-grid", dest="s_grid", default=_DEFAULT_S_GRID)
    p_rep.add_argument("--k", default="auto+3sigma",
                       help="large-dev target point: an integer or auto+<c>sigma")
    p_rep.add_argument("--assert-trends", dest="assert_trends", action="store_true")
    return parser


def _resolve_family(args) -> WeightFamily:
    flags = {k: getattr(args, k) for k in family_flags() if getattr(args, k) is not None}
    return family_from_request(args.family, flags, args.config)


def _resolve_backend(args, weights, n_max: int) -> str:
    if args.backend != "auto":
        return args.backend
    return auto_kind(weights.has_exact_rule, n_max)


def _parse_grid(args) -> list:
    values = []
    if getattr(args, "n", None) is not None:
        values.append(args.n)
    if getattr(args, "n_grid", None):
        try:
            values.extend(int(part) for part in args.n_grid.split(",") if part.strip())
        except ValueError as exc:
            raise UsageError(f"bad --n-grid {args.n_grid!r}") from exc
    if not values:
        raise UsageError("need --n or --n-grid")
    if any(n < 0 for n in values):
        raise UsageError("n values must be >= 0")
    return values


def _scalar_out(value, backend: str):
    value = to_kind(value, backend)
    return str(value) if backend == EXACT else value


def _pmf_out(pmf, backend: str) -> tuple:
    support = []
    mass = []
    for key, value in pmf.items():
        support.append(list(key) if isinstance(key, tuple) else key)
        mass.append(_scalar_out(value, backend))
    return support, mass


# -- subcommand implementations ---------------------------------------------
# Each runner returns (JSON document, CSV rows); main renders one of them.
# The sample runner's rows are an iterator, drawn as main writes them.


def _run_hn(args) -> tuple:
    handle = _resolve_family(args)
    ns = _parse_grid(args)
    n_max = max(ns)
    backend = _resolve_backend(args, handle.weights, n_max)
    h = normalization_constants(handle.weights, n_max, backend)
    cls = handle.cls
    rows = []
    for n in ns:
        asym = ratio = None
        if cls is not None and not cls.main_term_zero and n > 0:
            try:
                asym = asymptotic_hn(cls, n)
            except UsageError:  # only the estimate overflows; h is still printed
                asym = None
            ratio = float(h[n]) / asym if asym else None
        rows.append({"n": n, "h": _scalar_out(h[n], backend),
                     "asymptotic": asym, "ratio": ratio})
    doc = {"command": "hn", "family": args.family, "backend": backend, "rows": rows}
    return doc, [["n", "h", "asymptotic", "ratio"]] + [list(row.values()) for row in rows]


def _oracle_check(pmf, weights, args, backend: str) -> None:
    # the oracles are read from this module per call, so a wrapper installed here is used
    ref_law = (brute_force_k_pmf(weights, args.n, backend) if args.target == "k"
               else brute_force_cycle_counts_pmf(weights, args.n, args.b, backend))
    for key, value in pmf.items():
        ref = ref_law[key]
        if abs(value - ref) > pmf_tol(backend) * max(1, abs(ref)):
            raise DegenerateMeasureError(f"oracle mismatch at {key!r}: {value} vs {ref}")


def _run_dist(args) -> tuple:
    weights = _resolve_family(args).weights
    backend = _resolve_backend(args, weights, args.n)
    if args.target == "k":
        pmf = total_cycles_pmf(weights, args.n, backend)
    else:
        pmf = joint_cycle_pmf(weights, args.n, args.b, backend)
    oracle = None
    if args.oracle:
        _oracle_check(pmf, weights, args, backend)
        oracle = "match"
    support, mass = _pmf_out(pmf, backend)
    doc = {"command": "dist", "family": args.family, "target": args.target,
           "n": args.n, "b": args.b if args.target == "cycles" else None,
           "backend": backend, "oracle": oracle, "support": support, "mass": mass}
    return doc, [["support", "mass"]] + [list(pair) for pair in zip(support, mass)]


def _run_sample(args) -> tuple:
    handle = _resolve_family(args)
    samples = _sample_rows(handle.weights, args.n, args.seed, args.count,
                           args.cycle_type_only)
    kind = "cycle-type" if args.cycle_type_only else "permutation"
    doc = {"command": "sample", "family": args.family, "n": args.n,
           "seed": args.seed, "count": args.count, "kind": kind, "samples": samples}
    return doc, samples


def _sample_chunks(doc: dict, csv: bool):
    """The sample output in pieces, drawing max(1, _SAMPLE_BLOCK // n) rows
    at a time so that one block is held.  Each piece is cut from the
    serializers' output for the whole document, so the pieces join to its
    bytes."""
    size = max(1, _SAMPLE_BLOCK // doc["n"])
    blocks = iter(lambda: list(islice(doc["samples"], size)), [])
    if csv:
        yield from map(dumps_csv, blocks)
        return
    assert list(doc)[-1] == "samples"  # the rows close the document
    yield dumps_deterministic({**doc, "samples": []})[:-2]
    for i, block in enumerate(blocks):
        yield (", " if i else "") + dumps_deterministic(block)[1:-1]
    yield "]}\n"


def _parse_k_spec(text: str):
    match = re.fullmatch(r"auto\+(\d+(?:\.\d+)?)sigma", text.strip())
    if match:
        return None, float(match.group(1))
    try:
        return int(text), None
    except ValueError as exc:
        raise UsageError(f"--k must be an integer or auto+<c>sigma, got {text!r}") from exc


def _run_report(args) -> tuple:
    handle = _resolve_family(args)
    if isinstance(handle.weights, GeneralizedWeights):
        raise UsageError("reports need a weighted family (generalized handles "
                         "support hn and dist)")
    if handle.cls is None:
        raise UsageError(f"family {args.family} has no usable singularity class "
                         f"for reports: {handle.note or handle.status}")
    if args.kind == "large-dev":
        grid = _parse_grid(args)
        if len(grid) != 1:
            raise UsageError("large-dev takes a single n: --n or a one-value --n-grid")
        k, sigmas = _parse_k_spec(args.k)
        table = large_deviation_table(handle, grid[0], k,
                                      sigmas=3.0 if sigmas is None else sigmas)
        if args.assert_trends and table["rel_error"] > 0.25:
            raise _TrendFailure(
                f"large-deviation estimate off by {table['rel_error']:.3g} (> 0.25)")
        doc = {"command": "report", "kind": args.kind, "family": args.family, "table": table}
        return doc, [["key", "value"]] + [list(item) for item in table.items()]

    ns = _parse_grid(args)
    if args.kind == "poisson-vector":
        reports = poisson_vector_report(handle, args.b, ns)
    elif args.kind == "mod-poisson":
        try:
            s_values = [float(s) for s in args.s_grid.split(",") if s.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --s-grid {args.s_grid!r}") from exc
        reports = mod_poisson_report(handle, ns, s_values)
    elif args.kind == "clt":
        reports = clt_report(handle, ns)
    else:
        reports = poisson_k_approx_report(handle, ns)

    if args.assert_trends:
        for report in reports:
            if len(report.values) >= 2 and report.values[-1] > report.values[0]:
                raise _TrendFailure(
                    f"{report.metric_label()} rose from {report.values[0]:.3g} "
                    f"to {report.values[-1]:.3g} over the n grid")
    doc = {"command": "report", "kind": args.kind, "family": args.family,
           "reports": [r.to_dict() for r in reports]}
    return doc, report_rows(reports)


_RUNNERS = {"hn": _run_hn, "dist": _run_dist, "sample": _run_sample,
            "report": _run_report}


def main(argv=None) -> int:
    # Exact outputs can pass the 4300-digit str(int) limit, a guard meant for servers
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # every non-finite value is refused before it is printed, so numpy's
        # overflow warnings would only add noise ahead of the error line
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            doc, rows = _RUNNERS[args.command](args)
            csv = args.format == "csv"
            chunks = (_sample_chunks(doc, csv) if args.command == "sample" else
                      [dumps_csv(rows) if csv else dumps_deterministic(doc) + "\n"])
            if args.output:
                try:
                    with open(args.output, "w") as fh:
                        fh.writelines(chunks)
                except OSError as exc:
                    print(f"error: cannot write --output: {exc}", file=sys.stderr)
                    return EXIT_USAGE
            else:
                sys.stdout.writelines(chunks)
                sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (as `| head` does): stop drawing, and
        # point stdout at /dev/null so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (UsageError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateMeasureError, UnsupportedClassError, ConvergenceError,
            GammaPoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except _TrendFailure as exc:
        print(f"trend assertion failed: {exc}", file=sys.stderr)
        return EXIT_TREND
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
