"""Self-time arithmetic over the spans one traced command records.

A span is a dict with ``layer``, ``parent`` (index of the enclosing span,
-1 at top level), ``t0``, ``t1`` and ``x``.  ``x`` is tracer bookkeeping
done next to the span (reading rusage, counting results); it is part of
the parent's interval but belongs to no layer, so it is subtracted from
the parent's self time and ends up in ``unattributed_s``.

Self time of a span = its duration minus the time its child spans
(with their bookkeeping) cover.  Calls run in one thread, so children
never overlap and their durations add.
"""

from __future__ import annotations


def self_times(spans: list) -> list:
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["t1"] - s["t0"] + s["x"]
    return [s["t1"] - s["t0"] - c for s, c in zip(spans, covered)]


def entries(spans: list) -> list:
    """Spans that enter their layer from outside it (parent in another layer)."""
    return [s for s in spans
            if s["parent"] < 0 or spans[s["parent"]]["layer"] != s["layer"]]


def partition_count(n: int) -> int:
    """p(n), the number of integer partitions of n."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p[n]


def layer_metrics(spans: list) -> dict:
    """Per-layer figures of one command; keys are the benchmark's metric names.

    A call that raised has no attributes from after it returned; it counts 0.
    """
    out: dict = {}

    def add(name, value):
        out[name] = out.get(name, 0) + value

    for s, own in zip(spans, self_times(spans)):
        layer = s["layer"]
        if layer == "series":
            add(f"series.{s['kind']}.self_s", own)
        elif layer == "weights":
            add("weights.log_series_s", own)
        elif layer == "cli.serialize":
            add("cli.serialize_s", own)
        else:
            add(f"{layer}.self_s", own)
        add("attributed_s", own)
    for s in entries(spans):
        layer = s["layer"]
        if layer == "series":
            add("series.calls", 1)
            add("series.coeff_ops", s["ops"])
            add("series.minflt", s.get("minflt", 0))
            if s["kind"] == "double":
                add("series.double.bytes_computed", 8 * s["ops"])
        elif layer == "measure":
            add("measure.calls", 1)
        elif layer == "diagnostics":
            add("diagnostics.rows", s.get("rows", 0))
        elif layer == "sampler":
            add("sampler.draws", s.get("draws", 0))
            add("sampler.cycles", s.get("cycles", 0))
        elif layer == "partitions":
            add("partitions.classes", partition_count(s["n"]))
    for s in spans:
        if s["layer"] == "pmf":
            add("pmf.atoms", s.get("atoms", 0))
    return out
