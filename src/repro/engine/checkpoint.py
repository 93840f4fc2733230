"""Shard identity and the content-addressed shard cache.

Every shard an engine run computes is a pure function of
``(config_fingerprint, shard_index, shard_seed)``.  :class:`ShardCache`
stores shard results under the SHA-256 of exactly that triple
(:func:`shard_key`), so *any* later run that plans an identical shard — a
resumed campaign, the same seed re-appearing in a different sweep, a re-run
at the same scale — replays it instead of recomputing it.

The cache is the engine's only on-disk shard format.  The worker that
computes a shard writes its entry the moment the shard finishes (a
mid-batch crash loses at most the shard in flight); the orchestrating
process only replays entries and keeps the books.  A run's
``checkpoint_dir`` and a sweep's ``cache_dir`` each serve as the other.

On-disk layout (one entry per shard, fanned out by key prefix)::

    <cache_dir>/objects/<key[:2]>/<key>/
        data.rcol     shard-local dataset in the columnar store format
                      (byte-stable, atomic, fsync'd — repro.store.format)
        meta.json     sidecar: fingerprint, seed, index, wall time,
                      record count, worker metrics snapshot

Entries are columnar because replay is the hot path of a warm sweep:
:func:`~repro.store.format.read_dataset` decodes a shard into column arrays
(validating every column and dictionary member) and builds no record at
all — the shard's dataset holds each table as a
:class:`~repro.store.columnar.ColumnTable`, the merge concatenates those
columns, and records are only built if someone reads a record list.  The
price is disk: an ``.rcol`` entry takes about twice the bytes of the gzipped
JSON-lines it replaced (1.15 MB → 2.25 MB for the 22 version-2 shards of
a 2-seed, scale-0.004 sweep with 600 km windows), so a given
``max_bytes`` holds about half as many entries.  Entries of checkpoint version 1
(``data.ds.gz``) live under fingerprints this version never computes, so
they are orphaned — never read, and evicted first by a bounded cache since
nothing refreshes them.

Guarantees:

* **Atomic writes** — both files land via temp-file + ``os.replace``, and
  ``meta.json`` is written last, so a torn entry is never visible: an entry
  without a valid sidecar is simply a miss.
* **Safe reads** — a hit must match fingerprint, seed, *and* index; a
  corrupt sidecar or store file, or a foreign entry, is treated as absent.
  Seed, scale, cycle plan, the route and the exact window decomposition
  all participate in the fingerprint, so an entry written by a different
  configuration (or an incompatible engine version) is never replayed.  A
  cache can make a run faster, never wrong.
* **LRU size bounding** — with ``max_bytes`` set, the store evicts
  least-recently-used entries (hits refresh recency) until the cache fits.
  Recency is stamped from a **logical clock** — strictly increasing, seeded
  at or above every existing entry's timestamp — so access order survives
  coarse-mtime filesystems (batch hits would otherwise tie and fall back to
  size order) and clock skew (an entry stamped in the future would otherwise
  outrank the shard that was *just* used).  Seeding scans the directory, so
  only a bounded cache seeds; an unbounded one never evicts, and its
  stamps only order its own uses.  Eviction spares an entry the cache
  missed until it is recorded (it is being computed), so a process sweep
  can overshoot ``max_bytes`` by the entries in flight.
* **Counters** — hits/misses/stores/evictions accumulate in
  :class:`CacheStats` for the sweep report.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import time
from dataclasses import dataclass
from typing import Sequence

from repro.campaign.runner import CampaignConfig
from repro.engine.planner import ShardPlan
from repro.engine.worker import ShardResult
from repro.errors import ReproError, SweepError
from repro.geo.route import Route
from repro.obs.metrics import MetricsRegistry
from repro.store.format import STORE_FORMAT_VERSION, read_dataset, write_dataset

__all__ = [
    "CacheStats",
    "ShardCache",
    "config_fingerprint",
    "shard_key",
    "shard_meta",
    "shard_stem",
]

#: Bump when the shard execution semantics or the entry layout change in a
#: way that makes old cached shards unmergeable or unreadable.
#: 2: entries hold ``data.rcol`` (columnar) instead of ``data.ds.gz``.
#: 3: every shard is a window that also walks its passive loggers (no
#: passive shard, no cell counts in sidecars); fingerprints commit to the
#: route.
#: 4: every window drives through one whole-route deployment per (seed,
#: operator), drawn as arrays from its own stream (new draw order); windows
#: carry no overrun margin.
#: 5: zone lengths take libm ``exp`` instead of numpy's CPU-dispatched
#: array ``exp``, so the output no longer depends on the host CPU.
#: 6: RTT tests log their handovers and parked app runs write their test
#: rows.
ENGINE_CHECKPOINT_VERSION = 6


def config_fingerprint(config: CampaignConfig, plan: ShardPlan, route: Route) -> str:
    """Digest identifying the exact computation a shard belongs to."""
    payload = {
        "engine_version": ENGINE_CHECKPOINT_VERSION,
        "format": STORE_FORMAT_VERSION,
        "seed": config.seed,
        "scale": config.scale,
        "tick_s": config.tick_s,
        "include_apps": config.include_apps,
        "include_static": config.include_static,
        "video_duration_s": config.video_duration_s,
        "gaming_duration_s": config.gaming_duration_s,
        "inter_test_gap_s": config.inter_test_gap_s,
        "cycle": [t.name for t in config.cycle.tests],
        "route": route.digest,
        "windows": [
            [w.index, round(w.start_m, 3), round(w.end_m, 3)]
            for w in plan.windows
        ],
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def shard_stem(index: int) -> str:
    """Canonical name of one shard (``shard-0007``)."""
    return f"shard-{index:04d}"


def shard_key(fingerprint: str, index: int, seed: int) -> str:
    """Content address of one shard result.

    The digest of ``(config_fingerprint, shard_index, shard_seed)`` — the
    complete identity of a shard's computation.  The fingerprint already
    commits to the campaign seed, but the seed participates explicitly so a
    key is self-describing and survives fingerprint-scheme evolution.
    """
    canon = f"{fingerprint}:{shard_stem(index)}:{seed}"
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def shard_meta(result: ShardResult, fingerprint: str) -> dict:
    """JSON-able sidecar describing one shard result (sans dataset).

    The metrics snapshot a traced worker recorded rides along, so a shard
    replayed from the cache re-enters the run report with the counters of
    the computation that produced it — a resumed run's merged metrics match
    an uninterrupted run's (resume parity).
    """
    meta = {
        "fingerprint": fingerprint,
        "index": result.index,
        "wall_s": result.wall_s,
        "records": result.records,
    }
    if result.metrics is not None:
        meta["metrics"] = result.metrics
    return meta


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ShardCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_ratio(self) -> float:
        """Hits over lookups; 0.0 before any lookup happened."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_obj(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_ratio": round(self.hit_ratio(), 4),
        }


class ShardCache:
    """Content-addressed, LRU-bounded store of shard results on disk."""

    #: File names inside one entry directory.
    DATA_NAME = "data.rcol"
    META_NAME = "meta.json"

    def __init__(
        self,
        directory: str | os.PathLike,
        max_bytes: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise SweepError(f"max_bytes must be positive, got {max_bytes}")
        self.directory = pathlib.Path(directory)
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        #: Logical recency clock (ns): the last stamp handed out.
        self._recency_ns = 0
        #: Whether the clock has been raised to the newest existing entry's
        #: mtime, so every later stamp outranks what is already on disk.
        self._seeded = False
        #: Entries this instance missed and has not recorded since: its
        #: caller is computing them, so a worker may already have written
        #: one.  Eviction leaves them alone until they are recorded.
        self._awaited: set[pathlib.Path] = set()
        #: Optional ``repro.obs`` registry mirroring :attr:`stats` under
        #: ``cache.*`` counter names, so a traced sweep's report carries the
        #: same counts the cache itself saw (counted at source, not
        #: re-derived).  ``None`` keeps the untraced path allocation-free.
        self.metrics = metrics

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, n)

    # -- addressing --------------------------------------------------------

    @staticmethod
    def key(fingerprint: str, index: int, seed: int) -> str:
        """Content address of one shard (see :func:`shard_key`)."""
        return shard_key(fingerprint, index, seed)

    def entry_dir(self, key: str) -> pathlib.Path:
        return self.directory / "objects" / key[:2] / key

    # -- read --------------------------------------------------------------

    def load(self, fingerprint: str, seed: int, index: int) -> ShardResult | None:
        """Replay one shard, or ``None`` (counted as a miss) if absent.

        A hit revalidates the sidecar against the full identity triple —
        a key collision or a foreign/corrupt entry can only produce a miss,
        never a wrong result — and refreshes the entry's LRU recency.
        """
        entry = self.entry_dir(self.key(fingerprint, index, seed))
        meta_path = entry / self.META_NAME
        try:
            meta = json.loads(meta_path.read_text())
            if not isinstance(meta, dict):
                raise ValueError("cache sidecar is not a JSON object")
            if (
                meta.get("fingerprint") != fingerprint
                or meta.get("seed") != seed
                or meta.get("index") != index
            ):
                raise ValueError("cache entry does not match its address")
            wall_s = meta.get("wall_s", 0.0)
            if isinstance(wall_s, bool) or not isinstance(wall_s, (int, float)):
                raise ValueError(f"bad wall_s {wall_s!r}")
            metrics = meta.get("metrics")
            result = ShardResult(
                index=index,
                dataset=read_dataset(entry / self.DATA_NAME),
                wall_s=float(wall_s),
                from_cache=True,
                metrics=metrics if isinstance(metrics, dict) else None,
            )
        except (OSError, ValueError, KeyError, EOFError, ReproError):
            self._awaited.add(entry)
            self.stats.misses += 1
            self._count("cache.misses")
            return None
        self._touch(meta_path)
        self.stats.hits += 1
        self._count("cache.hits")
        return result

    def load_many(
        self, fingerprint: str, seed: int, indices: Sequence[int]
    ) -> dict[int, ShardResult]:
        """Replay every shard among ``indices`` the cache can serve.

        One :meth:`load` per index — the *same* path single lookups take —
        so every batch hit counts toward the stats/metrics and refreshes
        LRU recency, with strictly increasing stamps in ``indices`` order:
        eviction never punishes an entry for arriving via a batch.
        """
        found: dict[int, ShardResult] = {}
        for index in indices:
            result = self.load(fingerprint, seed, index)
            if result is not None:
                found[index] = result
        return found

    # -- write -------------------------------------------------------------

    def store(self, fingerprint: str, seed: int, result: ShardResult) -> None:
        """Persist one shard result: :meth:`write`, then :meth:`record`."""
        self.write(fingerprint, seed, result)
        self.record(fingerprint, seed, result.index)

    def write(self, fingerprint: str, seed: int, result: ShardResult) -> None:
        """Write one shard's entry atomically (a worker's half of a store).

        Rewriting a present key writes the same bytes, so last-write-wins
        races between runs sharing a cache directory are harmless.
        """
        entry = self.entry_dir(self.key(fingerprint, result.index, seed))
        entry.mkdir(parents=True, exist_ok=True)
        write_dataset(result.dataset, entry / self.DATA_NAME)
        meta = shard_meta(result, fingerprint)
        meta["seed"] = seed
        meta_path = entry / self.META_NAME
        tmp = meta_path.with_name(f"{self.META_NAME}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(meta, sort_keys=True, indent=1))
            os.replace(tmp, meta_path)
        finally:
            tmp.unlink(missing_ok=True)

    def record(self, fingerprint: str, seed: int, index: int) -> None:
        """Book a written entry: stamp its recency, count it, enforce the bound.

        The orchestrating process's half of a store, run as each computed
        result lands, so one instance holds the LRU order and the counters.
        """
        entry = self.entry_dir(self.key(fingerprint, index, seed))
        self._awaited.discard(entry)
        # Stamp the fresh entry through the same logical clock hits use,
        # so stores and hits share one total recency order.
        self._touch(entry / self.META_NAME)
        self.stats.stores += 1
        self._count("cache.stores")
        if self.max_bytes is not None:
            self._evict(keep=entry)

    # -- bookkeeping -------------------------------------------------------

    def _next_recency_ns(self) -> int:
        """Next stamp of the logical recency clock, strictly increasing.

        Tracks ``max(wall clock, previous stamp + 1)``, seeded in a bounded
        cache (on its first call) from the newest entry already on disk.  Two
        properties the raw wall clock lacks: consecutive accesses (e.g. the
        hits of one ``load_many`` batch) never tie even on coarse-mtime
        filesystems, and an entry whose stored mtime lies in the future
        (clock skew, another host's writes) can never outrank a shard that
        was just used.
        """
        if self.max_bytes is not None and not self._seeded:
            existing = [ns for ns, _, _ in self._entries()]
            self._recency_ns = max([self._recency_ns, *existing])
            self._seeded = True
        self._recency_ns = max(time.time_ns(), self._recency_ns + 1)
        return self._recency_ns

    def _touch(self, path: pathlib.Path) -> None:
        try:
            stamp = self._next_recency_ns()
            os.utime(path, ns=(stamp, stamp))
        except OSError:
            pass  # recency refresh is best-effort

    def _entries(self) -> list[tuple[int, int, pathlib.Path]]:
        """All valid-looking entries as ``(last_use_ns, bytes, entry_dir)``."""
        objects = self.directory / "objects"
        entries = []
        for meta_path in objects.glob(f"*/*/{self.META_NAME}"):
            entry = meta_path.parent
            try:
                mtime_ns = meta_path.stat().st_mtime_ns
                size = sum(p.stat().st_size for p in entry.iterdir())
            except OSError:
                continue  # concurrently evicted
            entries.append((mtime_ns, size, entry))
        return entries

    def total_bytes(self) -> int:
        """Disk footprint of every entry currently in the cache."""
        return sum(size for _, size, _ in self._entries())

    def __len__(self) -> int:
        return len(self._entries())

    def _evict(self, keep: pathlib.Path) -> None:
        """Drop LRU entries until the cache fits ``max_bytes``.

        The just-recorded entry is exempt, so a single oversized shard
        still caches (the bound is then best-effort) and a store can never
        evict its own result; so are awaited entries, which a worker may
        have written before their results reached this process.
        """
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        for _, size, entry in entries:
            if total <= self.max_bytes:
                break
            if entry == keep or entry in self._awaited:
                continue
            self._remove_entry(entry)
            total -= size
            self.stats.evictions += 1
            self._count("cache.evictions")

    def _remove_entry(self, entry: pathlib.Path) -> None:
        # Remove the sidecar first: a half-removed entry is invalid (a
        # miss), never a torn read.
        (entry / self.META_NAME).unlink(missing_ok=True)
        shutil.rmtree(entry, ignore_errors=True)
