"""Per-layer breakdown of a traced run.

A traced run passes a trace path to the sweep, whose built-in
:mod:`repro.obs` spans (``sweep.plan``, ``sweep.merge``, ``sweep.ingest``,
...) land in one JSONL file.  The benchmark adds spans of its own around the
calls into layers that have none: each operation (``bench.op``), every
store query it issues (``store.query``), and every shard-cache lookup
(``cache.load``, wrapped only for the traced run).

A span's *self time* is its duration minus the durations of its children.
Self times partition each ``bench.op`` exactly, so grouping them by layer
gives shares of operation time that sum to one.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict

from repro.obs.trace import iter_trace
from repro.sweep.cache import ShardCache

#: Span name -> layer; every other span's self time counts as ``other``
#: (harness, orchestration and root spans).
LAYER_OF_SPAN = {
    "sweep.plan": "plan",
    "cache.load": "cache",
    "sweep.merge": "merge",
    "sweep.ingest": "ingest",
    "store.query": "query",
    "sweep.stats": "stats",
}
LAYERS = ("plan", "cache", "merge", "ingest", "query", "stats", "other")


@contextlib.contextmanager
def cache_spans(tracer):
    """Record a ``cache.load`` span around every ``ShardCache.load`` call."""
    load = ShardCache.load

    @functools.wraps(load)
    def spanned(*args, **kwargs):
        with tracer.span("cache.load"):
            return load(*args, **kwargs)

    ShardCache.load = spanned
    try:
        yield
    finally:
        ShardCache.load = load


def layer_shares(trace_path) -> dict[str, float]:
    """Share of total ``bench.op`` time spent in each layer's self time."""
    spans = [r for r in iter_trace(trace_path) if r["kind"] == "span"]
    child_s: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent_id"] is not None:
            child_s[span["parent_id"]] += span["dur_s"]
    busy = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for span in spans:
        if span["name"] == "bench.op":
            total += span["dur_s"]
        layer = LAYER_OF_SPAN.get(span["name"], "other")
        busy[layer] += span["dur_s"] - child_s[span["span_id"]]
    return {layer: busy[layer] / total for layer in LAYERS}
