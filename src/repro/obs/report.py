"""Trace analysis: span trees, phase breakdowns, critical paths, top-N.

This is the reader half of :mod:`repro.obs.trace`: it loads a JSONL trace
file (possibly written by many processes of one run), reconstructs the span
tree from the ``span_id``/``parent_id`` links, and derives the summaries
``python -m repro.obs`` prints:

* **per-phase breakdown** — the root span's direct children grouped by
  name, with the un-instrumented remainder reported as ``(untraced)`` so
  the per-phase walls always sum to the root's wall time *exactly*;
* **critical path** — the chain of spans, from the root down, that
  finished last at each level: the spans a faster machine would have to
  shorten for the run to finish earlier;
* **top-N slowest spans** per name family (shards, queries, merges);
* **merged metrics** — every metrics-snapshot record in the file folded
  with :func:`repro.obs.metrics.merge_snapshots`.

Validation is deliberately split from analysis: :func:`validate_trace`
returns structural problems (unparseable lines, missing fields, children
longer than their parent) without raising, so fault-injection tests can
assert a trace survived a crashing run intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.metrics import merge_snapshots
from repro.obs.trace import iter_trace

__all__ = [
    "SpanNode",
    "TraceSummary",
    "critical_path",
    "load_summary",
    "phase_breakdown",
    "render_summary",
    "top_spans",
    "validate_trace",
]

#: Children may overrun their parent by this fraction (clock jitter between
#: ``perf_counter`` reads) before validation flags them.
_OVERRUN_TOLERANCE = 0.01


@dataclass
class SpanNode:
    """One span of a reconstructed trace tree."""

    name: str
    span_id: str
    parent_id: str | None
    ts: float
    dur_s: float
    pid: int
    status: str
    attrs: dict
    children: list["SpanNode"] = field(default_factory=list)
    #: True when ``parent_id`` named a span the file does not contain (the
    #: parent was lost — e.g. a killed worker); orphans are kept as roots.
    orphan: bool = False

    @property
    def end_ts(self) -> float:
        return self.ts + self.dur_s

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class TraceSummary:
    """Everything the CLI needs from one trace file."""

    roots: list[SpanNode]
    spans: list[SpanNode]
    metrics: dict
    n_records: int
    n_pids: int
    orphans: int


_REQUIRED_SPAN_FIELDS = ("name", "span_id", "ts", "dur_s", "pid", "status")


def _span_records(path) -> tuple[list[dict], list[dict], list[str]]:
    """Split a trace file into span records, metric records, and problems."""
    spans: list[dict] = []
    metrics: list[dict] = []
    problems: list[str] = []
    try:
        for record in iter_trace(path):
            kind = record.get("kind")
            if kind == "span":
                missing = [f for f in _REQUIRED_SPAN_FIELDS if f not in record]
                if missing:
                    problems.append(
                        f"span record missing fields {missing}: {record}"
                    )
                    continue
                spans.append(record)
            elif kind == "metrics":
                metrics.append(record)
            # Unknown kinds are skipped: a newer writer may add record
            # types without breaking old readers.
    except ValueError as exc:
        problems.append(str(exc))
    return spans, metrics, problems


def _build_tree(records: list[dict]) -> tuple[list[SpanNode], int]:
    nodes: dict[str, SpanNode] = {}
    for rec in records:
        node = SpanNode(
            name=str(rec["name"]),
            span_id=str(rec["span_id"]),
            parent_id=rec.get("parent_id"),
            ts=float(rec["ts"]),
            dur_s=float(rec["dur_s"]),
            pid=int(rec["pid"]),
            status=str(rec["status"]),
            attrs=dict(rec.get("attrs", {})),
        )
        nodes[node.span_id] = node
    roots: list[SpanNode] = []
    orphans = 0
    for node in nodes.values():
        if node.parent_id is None:
            roots.append(node)
        else:
            parent = nodes.get(str(node.parent_id))
            if parent is None:
                node.orphan = True
                orphans += 1
                roots.append(node)
            else:
                parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda c: (c.ts, c.span_id))
    # File order is append order; roots sort by start time for stability.
    roots.sort(key=lambda n: (n.ts, n.span_id))
    return roots, orphans


def load_summary(path) -> TraceSummary:
    """Load a trace file into its reconstructed summary form."""
    records, metric_records, problems = _span_records(path)
    if problems:
        raise ValueError("; ".join(problems))
    roots, orphans = _build_tree(records)
    spans = [node for root in roots for node in root.walk()]
    return TraceSummary(
        roots=roots,
        spans=spans,
        metrics=merge_snapshots(r.get("snapshot", {}) for r in metric_records),
        n_records=len(records) + len(metric_records),
        n_pids=len({s.pid for s in spans}),
        orphans=orphans,
    )


def validate_trace(path) -> list[str]:
    """Structural problems of a trace file (empty list = clean).

    Checks, in order: every line parses as a JSON record; every span record
    carries the required fields; span durations are finite and
    non-negative; and spans are *balanced* — no child runs longer than its
    parent beyond clock tolerance.  (Children may *sum* past the parent:
    parallel shard spans under one execute span overlap by design.)
    Orphaned spans (a parent that was never written, e.g. because its
    worker died) are NOT problems: crash-tolerance guarantees exactly that
    shape, and they surface via ``TraceSummary.orphans`` instead.
    """
    records, _metrics, problems = _span_records(path)
    for rec in records:
        dur = float(rec["dur_s"])
        if not math.isfinite(dur) or dur < 0.0:
            problems.append(
                f"span {rec['span_id']} ({rec['name']}) has bad dur_s {dur}"
            )
    roots, _ = _build_tree([r for r in records if _has_fields(r)])
    for root in roots:
        for node in root.walk():
            budget = node.dur_s * (1.0 + _OVERRUN_TOLERANCE) + 1e-6
            for child in node.children:
                if child.dur_s > budget:
                    problems.append(
                        f"span {child.span_id} ({child.name}): longer than "
                        f"parent {node.name} "
                        f"({child.dur_s:.6f}s > {node.dur_s:.6f}s)"
                    )
    return problems


def _has_fields(rec: dict) -> bool:
    return all(f in rec for f in _REQUIRED_SPAN_FIELDS)


# -- summaries ----------------------------------------------------------------


def phase_breakdown(root: SpanNode) -> list[tuple[str, float, int]]:
    """Root's direct children grouped by name: ``(name, wall_s, count)``.

    The gap the root spent outside any instrumented child is appended as
    ``(untraced)``, so the listed walls sum to ``root.dur_s`` exactly.
    """
    phases: dict[str, list[float]] = {}
    order: list[str] = []
    for child in root.children:
        if child.name not in phases:
            order.append(child.name)
            phases[child.name] = [0.0, 0]
        phases[child.name][0] += child.dur_s
        phases[child.name][1] += 1
    rows = [(name, phases[name][0], int(phases[name][1])) for name in order]
    traced = sum(wall for _, wall, _ in rows)
    remainder = root.dur_s - traced
    if rows:
        rows.append(("(untraced)", remainder, 0))
    return rows


def critical_path(root: SpanNode) -> list[SpanNode]:
    """The root-to-leaf chain through whichever child finished last.

    This is the straggler chain: at every level, the span whose end
    timestamp is latest is the one the run was waiting on.
    """
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda c: (c.end_ts, c.span_id))
        path.append(node)
    return path


def top_spans(
    spans: list[SpanNode], prefix: str | tuple[str, ...], n: int = 5
) -> list[SpanNode]:
    """The ``n`` slowest spans whose name starts with ``prefix`` (or with
    any of a tuple of prefixes)."""
    matching = [s for s in spans if s.name.startswith(prefix)]
    matching.sort(key=lambda s: (-s.dur_s, s.span_id))
    return matching[:n]


# -- rendering ----------------------------------------------------------------


def _fmt_attrs(attrs: dict, keys: tuple[str, ...]) -> str:
    parts = [f"{k}={attrs[k]}" for k in keys if k in attrs]
    return f" [{', '.join(parts)}]" if parts else ""


def render_summary(summary: TraceSummary, top_n: int = 5) -> str:
    """Human-readable report of one trace file."""
    lines: list[str] = []
    lines.append(
        f"{summary.n_records} records, {len(summary.spans)} spans, "
        f"{summary.n_pids} processes, {summary.orphans} orphaned"
    )
    for root in summary.roots:
        if root.orphan:
            continue
        lines.append("")
        lines.append(
            f"run: {root.name}  {root.dur_s:.6f} s  status={root.status}"
            + _fmt_attrs(root.attrs, ("seeds", "seed", "scale", "executor"))
        )
        rows = phase_breakdown(root)
        if rows:
            lines.append("  phase breakdown:")
            for name, wall, count in rows:
                share = wall / root.dur_s if root.dur_s > 0 else 0.0
                suffix = f" x{count}" if count > 1 else ""
                lines.append(
                    f"    {name:<24s} {wall:12.6f} s  {share:6.1%}{suffix}"
                )
            lines.append(f"    {'total':<24s} {root.dur_s:12.6f} s  100.0%")
        chain = critical_path(root)
        if len(chain) > 1:
            lines.append("  critical path:")
            for depth, node in enumerate(chain):
                lines.append(
                    f"    {'  ' * depth}{node.name}  {node.dur_s:.6f} s"
                    + _fmt_attrs(node.attrs, ("seed", "index", "attempt", "table"))
                )
    for title, prefix, keys in (
        ("slowest shards", "engine.shard", ("seed", "index", "records")),
        ("slowest queries", "store.query", ("table", "column", "agg")),
        ("slowest merges", ("engine.merge", "sweep.merge"), ("seed",)),
    ):
        top = top_spans(summary.spans, prefix, top_n)
        if top:
            lines.append("")
            lines.append(f"top {len(top)} {title}:")
            for node in top:
                lines.append(
                    f"  {node.dur_s:12.6f} s  {node.name}"
                    + _fmt_attrs(node.attrs, keys)
                )
    counters = summary.metrics.get("counters", {})
    hists = summary.metrics.get("histograms", {})
    if counters or hists:
        lines.append("")
        lines.append("metrics:")
        for name, value in counters.items():
            lines.append(f"  {name:<40s} {value}")
        for name, h in hists.items():
            mean = h["total"] / h["count"] if h["count"] else 0.0
            lines.append(
                f"  {name:<40s} n={h['count']} mean={mean:.6f} "
                f"min={h['min']:.6f} max={h['max']:.6f}"
            )
    return "\n".join(lines)
