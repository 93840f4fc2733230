"""Engine observability: per-shard execution metrics and the run report.

An :class:`EngineReport` is produced by every engine run.  It records, per
shard: the route span, wall time, record count, retry count, and whether the
shard was replayed from the shard cache — plus run-level
aggregates (worker utilisation, pool rebuilds after hard worker deaths,
merge time, cache hit/miss counters).  The report serialises to JSON so
campaign farms can scrape it; ``schema_version`` lets scrapers detect format
drift, and :meth:`EngineReport.from_obj` round-trips the JSON form.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field

__all__ = ["ShardMetrics", "EngineReport", "REPORT_SCHEMA_VERSION"]

#: Version of the JSON report format.  Bump whenever a field is added,
#: removed, or changes meaning; scrapers compare it before parsing.
#: History: 1 = initial engine report; 2 = adds schema_version itself,
#: per-shard ``from_cache``, and run-level ``cache_hits``/``cache_misses``;
#: 3 = per-shard ``wall_s`` at full precision, optional run-level
#: ``metrics`` snapshot (see ``repro.obs.metrics``); 4 = every replayed
#: shard is ``from_cache`` and counts in ``cache_hits`` (the separate
#: checkpoint flag and count are gone).
REPORT_SCHEMA_VERSION = 4


@dataclass(frozen=True, slots=True)
class ShardMetrics:
    """Execution statistics of one shard."""

    index: int
    start_km: float
    end_km: float
    wall_s: float
    records: int
    retries: int
    from_cache: bool = False

    def to_obj(self) -> dict:
        # Rounding policy: the route span (start_km/end_km) is rounded —
        # it is cosmetic positioning, metre precision in a JSON report
        # buys nothing.  Timings are NOT rounded: ``wall_s`` must carry
        # full float precision so critical-path sums reconstructed by
        # ``python -m repro.obs`` from the trace agree with report totals
        # exactly instead of drifting by the rounding error times the
        # shard count.  (Schema v2 rounded wall_s to 4 decimals; v3 fixed
        # that.)
        return {
            "index": self.index,
            "start_km": round(self.start_km, 3),
            "end_km": round(self.end_km, 3),
            "wall_s": self.wall_s,
            "records": self.records,
            "retries": self.retries,
            "from_cache": self.from_cache,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ShardMetrics":
        """Parse the JSON form; unknown fields are ignored.

        Only ``index`` and the route span are required — a report written
        by a newer schema version that added or renamed auxiliary fields
        still parses, with defaults standing in for what's missing.
        """
        return cls(
            index=int(obj["index"]),
            start_km=float(obj["start_km"]),
            end_km=float(obj["end_km"]),
            wall_s=float(obj.get("wall_s", 0.0)),
            records=int(obj.get("records", 0)),
            retries=int(obj.get("retries", 0)),
            # Schema v3 reported a checkpoint replay apart from a cache hit.
            from_cache=bool(obj.get("from_cache") or obj.get("from_checkpoint")),
        )


@dataclass
class EngineReport:
    """Everything observable about one engine run."""

    executor: str
    workers: int
    n_windows: int
    n_batches: int
    shards: list[ShardMetrics] = field(default_factory=list)
    total_wall_s: float = 0.0
    merge_s: float = 0.0
    pool_rebuilds: int = 0
    validated: bool = False
    #: Shards replayed from / missed by the run's shard cache (zero when
    #: no cache is configured).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Optional merged metrics snapshot (``repro.obs.metrics`` shape:
    #: counters/gauges/histograms).  Populated only when the run was
    #: traced; ``None`` keeps untraced reports byte-compatible with v2
    #: consumers that ignore unknown fields.
    metrics: dict | None = None

    @property
    def total_records(self) -> int:
        return sum(s.records for s in self.shards)

    @property
    def total_retries(self) -> int:
        return sum(s.retries for s in self.shards)

    @property
    def shard_wall_s(self) -> float:
        """Summed per-shard compute time (excludes replayed shards)."""
        return sum(s.wall_s for s in self.shards if not s.from_cache)

    def cache_hit_ratio(self) -> float:
        """Hits over store lookups; 0.0 when no store was configured."""
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    def worker_utilisation(self) -> float:
        """Fraction of worker capacity kept busy by shard compute.

        ``shard_wall / (workers × total_wall)``: 1.0 means perfectly packed
        workers, low values mean stragglers or per-run overhead dominate.
        """
        if self.total_wall_s <= 0.0 or self.workers <= 0:
            return 0.0
        return min(self.shard_wall_s / (self.workers * self.total_wall_s), 1.0)

    def to_obj(self) -> dict:
        # Same rounding policy as ShardMetrics.to_obj: derived ratios are
        # rounded (presentation), raw timings are not (must reconcile
        # exactly with trace-derived sums).
        obj = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "executor": self.executor,
            "workers": self.workers,
            "n_windows": self.n_windows,
            "n_batches": self.n_batches,
            "total_wall_s": self.total_wall_s,
            "merge_s": self.merge_s,
            "pool_rebuilds": self.pool_rebuilds,
            "validated": self.validated,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": round(self.cache_hit_ratio(), 4),
            "total_records": self.total_records,
            "total_retries": self.total_retries,
            "worker_utilisation": round(self.worker_utilisation(), 4),
            "shards": [s.to_obj() for s in self.shards],
        }
        if self.metrics is not None:
            obj["metrics"] = self.metrics
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "EngineReport":
        """Rebuild a report from its JSON form (derived fields recomputed).

        Tolerant of **newer** schema versions: fields this build doesn't
        know are ignored, and auxiliary fields that a future version might
        rename or drop fall back to defaults — only the structural quartet
        (executor/workers/n_windows/n_batches) is required.  Scrapers that
        need strict parsing should compare ``schema_version`` themselves.
        """
        return cls(
            executor=str(obj["executor"]),
            workers=int(obj["workers"]),
            n_windows=int(obj["n_windows"]),
            n_batches=int(obj["n_batches"]),
            shards=[ShardMetrics.from_obj(s) for s in obj.get("shards", [])],
            total_wall_s=float(obj.get("total_wall_s", 0.0)),
            merge_s=float(obj.get("merge_s", 0.0)),
            pool_rebuilds=int(obj.get("pool_rebuilds", 0)),
            validated=bool(obj.get("validated", False)),
            cache_hits=int(obj.get("cache_hits", 0)),
            cache_misses=int(obj.get("cache_misses", 0)),
            metrics=obj.get("metrics"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)

    def save(self, path: str | os.PathLike) -> None:
        """Write the report as JSON, atomically."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(self.to_json() + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
