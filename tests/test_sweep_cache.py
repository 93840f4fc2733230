"""The content-addressed shard cache: correctness before speed.

A cache entry is addressed by ``(config_fingerprint, shard_index,
shard_seed)`` — the complete identity of a shard's computation — so the
cardinal sin would be serving a shard that belongs to a different
computation.  These tests pin the three safety properties (address
revalidation, corrupt-entry rejection, atomic visibility) plus the
operational ones (LRU bounding, counters).
"""

from __future__ import annotations

import json

import pytest

from tests.conftest import RCOL_CORRUPTIONS, engine_dataset_bytes as dataset_bytes
from repro.campaign.dataset import DriveDataset, RttSample
from repro.campaign.persistence import save_dataset
from repro.engine import PlannerParams
from repro.engine.checkpoint import shard_key, shard_meta, shard_stem
from repro.engine.worker import ShardResult
from repro.errors import StoreError, SweepError
from repro.geo.coords import LatLon
from repro.geo.regions import RegionType
from repro.geo.route import Route, RouteSegment
from repro.geo.timezones import Timezone
from repro.net.servers import ServerKind
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.store.format import read_dataset
from repro.sweep import SweepConfig, run_sweep
from repro.sweep.cache import CacheStats, ShardCache

FP = "a" * 64
OTHER_FP = "b" * 64


def make_result(index: int = 0, seed: int = 42, n_rtts: int = 1) -> ShardResult:
    ds = DriveDataset(seed=seed, scale=0.01, route_length_km=100.0)
    ds.rtt_samples = [
        RttSample(
            test_id=1000 + i,
            operator=Operator.VERIZON,
            time_s=float(i),
            mark_m=10.0 * i,
            speed_mph=60.0,
            region=RegionType.HIGHWAY,
            timezone=Timezone.PACIFIC,
            tech=RadioTechnology.LTE,
            rtt_ms=50.0 + i,
            server_kind=ServerKind.CLOUD,
            static=False,
        )
        for i in range(n_rtts)
    ]
    return ShardResult(index=index, dataset=ds, wall_s=1.5)


class TestAddressing:
    def test_key_depends_on_all_three_coordinates(self):
        base = shard_key(FP, 0, 42)
        assert shard_key(FP, 0, 42) == base
        assert shard_key(OTHER_FP, 0, 42) != base
        assert shard_key(FP, 1, 42) != base
        assert shard_key(FP, 0, 43) != base

    def test_shard_stem_names_the_window(self):
        assert shard_stem(7) == "shard-0007"


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        cache = ShardCache(tmp_path)
        result = make_result(index=3)
        cache.store(FP, 42, result)
        loaded = cache.load(FP, 42, 3)
        assert loaded is not None
        assert loaded.from_cache
        assert loaded.index == 3
        assert loaded.wall_s == result.wall_s
        assert [s.rtt_ms for s in loaded.dataset.rtt_samples] == [
            s.rtt_ms for s in result.dataset.rtt_samples
        ]
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_load_many_returns_only_present(self, tmp_path):
        cache = ShardCache(tmp_path)
        cache.store(FP, 42, make_result(index=0))
        cache.store(FP, 42, make_result(index=2))
        found = cache.load_many(FP, 42, [0, 1, 2, 3])
        assert sorted(found) == [0, 2]
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ShardCache(tmp_path)
        cache.store(FP, 42, make_result())
        assert not list(tmp_path.rglob("*.tmp"))

class TestInvalidation:
    """A cache entry written under a different computation must be ignored."""

    def test_foreign_fingerprint_misses(self, tmp_path):
        cache = ShardCache(tmp_path)
        cache.store(FP, 42, make_result())
        assert cache.load(OTHER_FP, 42, 0) is None
        assert cache.stats.misses == 1

    def test_foreign_seed_misses(self, tmp_path):
        cache = ShardCache(tmp_path)
        cache.store(FP, 42, make_result())
        assert cache.load(FP, 43, 0) is None

    def test_mismatched_sidecar_rejected(self, tmp_path):
        """Even a key collision cannot serve a foreign shard: the sidecar
        is revalidated against the full identity triple on every hit."""
        cache = ShardCache(tmp_path)
        cache.store(FP, 42, make_result(index=5))
        entry = cache.entry_dir(cache.key(FP, 5, 42))
        meta = json.loads((entry / "meta.json").read_text())
        meta["seed"] = 99
        (entry / "meta.json").write_text(json.dumps(meta))
        assert cache.load(FP, 42, 5) is None

    def test_corrupt_dataset_misses(self, tmp_path):
        cache = ShardCache(tmp_path)
        cache.store(FP, 42, make_result())
        entry = cache.entry_dir(cache.key(FP, 0, 42))
        (entry / ShardCache.DATA_NAME).write_bytes(b"not a gzip stream")
        assert cache.load(FP, 42, 0) is None

    @pytest.mark.parametrize("corruption", sorted(RCOL_CORRUPTIONS))
    def test_corrupt_store_file_misses_then_recomputes(
        self, corruption, tmp_path
    ):
        """Every way a ``.rcol`` entry can be damaged is a ``StoreError``
        to the reader and a miss to the cache; storing the recomputed shard
        again serves it byte for byte."""
        result = make_result(n_rtts=20)
        expected = dataset_bytes(result.dataset, tmp_path)
        cache = ShardCache(tmp_path / "cache")
        cache.store(FP, 42, result)
        data = cache.entry_dir(cache.key(FP, 0, 42)) / ShardCache.DATA_NAME
        RCOL_CORRUPTIONS[corruption](data)
        with pytest.raises(StoreError):
            read_dataset(data)

        assert cache.load(FP, 42, 0) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.store(FP, 42, make_result(n_rtts=20))
        replayed = cache.load(FP, 42, 0)
        assert replayed is not None
        assert dataset_bytes(replayed.dataset, tmp_path) == expected

    def test_legacy_v1_entry_misses(self, tmp_path):
        """A version-1 entry (gzipped JSON-lines ``data.ds.gz``) is never
        read, even when its sidecar sits at the address being looked up."""
        result = make_result()
        cache = ShardCache(tmp_path)
        entry = cache.entry_dir(cache.key(FP, 0, 42))
        entry.mkdir(parents=True)
        save_dataset(result.dataset, entry / "data.ds.gz")
        meta = shard_meta(result, FP)
        meta["seed"] = 42
        (entry / ShardCache.META_NAME).write_text(json.dumps(meta))
        assert cache.load(FP, 42, 0) is None
        assert cache.stats.misses == 1
        cache.store(FP, 42, result)
        assert cache.load(FP, 42, 0) is not None

    def test_corrupt_sidecar_misses(self, tmp_path):
        cache = ShardCache(tmp_path)
        cache.store(FP, 42, make_result())
        entry = cache.entry_dir(cache.key(FP, 0, 42))
        (entry / "meta.json").write_text("{truncated")
        assert cache.load(FP, 42, 0) is None

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda meta: [], id="sidecar-is-a-list"),
        pytest.param(lambda meta: {**meta, "wall_s": None}, id="wall-s-null"),
    ])
    def test_ill_typed_sidecar_misses(self, tmp_path, damage):
        """A sidecar that parses as JSON but has the wrong types is a
        counted miss — not an exception, and never a hit whose counts
        break the merge later."""
        cache = ShardCache(tmp_path)
        cache.store(FP, 42, make_result())
        meta_path = cache.entry_dir(cache.key(FP, 0, 42)) / ShardCache.META_NAME
        meta_path.write_text(json.dumps(damage(json.loads(meta_path.read_text()))))
        assert cache.load(FP, 42, 0) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0

    def test_missing_entry_misses(self, tmp_path):
        cache = ShardCache(tmp_path)
        assert cache.load(FP, 42, 0) is None
        assert cache.load_many(FP, 42, [0, 1]) == {}
        assert cache.stats.hit_ratio() == 0.0


class TestLruBounding:
    def entry_bytes(self, tmp_path) -> int:
        probe = ShardCache(tmp_path / "probe")
        probe.store(FP, 42, make_result())
        return probe.total_bytes()

    def test_eviction_drops_least_recently_used(self, tmp_path):
        size = self.entry_bytes(tmp_path)
        cache = ShardCache(tmp_path / "c", max_bytes=3 * size + size // 2)
        for index in range(3):
            cache.store(FP, 42, make_result(index=index))
        assert len(cache) == 3
        # Touch shard 0 so shard 1 becomes the LRU entry, then overflow.
        assert cache.load(FP, 42, 0) is not None
        cache.store(FP, 42, make_result(index=3))
        assert cache.stats.evictions >= 1
        assert cache.load(FP, 42, 1) is None  # evicted
        assert cache.load(FP, 42, 0) is not None  # recently used, kept
        assert cache.load(FP, 42, 3) is not None  # just written, kept
        assert cache.total_bytes() <= 3 * size + size // 2

    def test_batch_hits_refresh_recency_in_access_order(self, tmp_path):
        """Regression: ``load_many`` hits must refresh LRU recency exactly
        like single ``load`` hits, in access order — eviction must never
        punish an entry for having been served as part of a batch."""
        size = self.entry_bytes(tmp_path)
        budget = 3 * size + size // 2
        cache = ShardCache(tmp_path / "c", max_bytes=budget)
        for index in range(3):
            cache.store(FP, 42, make_result(index=index))
        # Batch-replay shards 0 then 1: recency order is now 2 < 0 < 1.
        found = cache.load_many(FP, 42, [0, 1])
        assert sorted(found) == [0, 1]
        cache.store(FP, 42, make_result(index=3))  # evicts 2 (untouched)
        assert cache.load(FP, 42, 2) is None
        cache.store(FP, 42, make_result(index=4))  # evicts 0 (first in batch)
        assert cache.load(FP, 42, 0) is None
        for index in (1, 3, 4):
            assert cache.load(FP, 42, index) is not None, index

    def test_batch_hits_count_in_metrics_registry(self, tmp_path):
        """Every batch hit lands in the obs registry, same as single loads."""
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache = ShardCache(tmp_path, metrics=registry)
        for index in range(2):
            cache.store(FP, 42, make_result(index=index))
        cache.load_many(FP, 42, [0, 1, 7])
        counters = registry.snapshot()["counters"]
        assert counters["cache.hits"] == 2
        assert counters["cache.misses"] == 1

    def test_future_dated_entries_cannot_outrank_fresh_use(self, tmp_path):
        """Regression: with entry mtimes in the future (clock skew, another
        host's writes), a wall-clock recency stamp made the *just-used*
        shard the eviction victim.  The logical clock seeds at or above
        every existing stamp, so fresh use always wins."""
        import os
        import time

        size = self.entry_bytes(tmp_path)
        cache = ShardCache(tmp_path / "c", max_bytes=3 * size + size // 2)
        for index in range(3):
            cache.store(FP, 42, make_result(index=index))
        future = time.time_ns() + 10**12  # ~17 minutes ahead
        for index in range(3):
            meta = cache.entry_dir(cache.key(FP, index, 42)) / "meta.json"
            stamp = future + index
            os.utime(meta, ns=(stamp, stamp))
        # A fresh instance discovers the skewed stamps on first use.
        cache = ShardCache(tmp_path / "c", max_bytes=3 * size + size // 2)
        assert cache.load(FP, 42, 0) is not None  # just used: newest now
        cache.store(FP, 42, make_result(index=3))
        assert cache.load(FP, 42, 0) is not None  # survived the overflow
        assert cache.load(FP, 42, 3) is not None  # just written, kept
        assert cache.load(FP, 42, 1) is None  # oldest untouched: evicted

    def test_write_keeps_no_books_and_record_keeps_them(self, tmp_path):
        """A worker's ``write`` puts the entry on disk and counts nothing;
        the orchestrator's ``record`` counts the store and enforces the
        bound, sparing the entries it missed and has not recorded yet."""
        size = self.entry_bytes(tmp_path)
        writer = ShardCache(tmp_path / "c")
        books = ShardCache(tmp_path / "c", max_bytes=2 * size + size // 2)
        assert books.load_many(FP, 42, [0, 1, 2]) == {}  # to be computed
        for index in range(3):
            writer.write(FP, 42, make_result(index=index))
        assert writer.stats == CacheStats()
        books.record(FP, 42, 0)
        assert len(books) == 3  # 1 and 2 are in flight: the bound waits
        books.record(FP, 42, 1)
        books.record(FP, 42, 2)
        assert (books.stats.stores, books.stats.evictions) == (3, 1)
        assert len(books) == 2
        assert set(books.load_many(FP, 42, [0, 1, 2])) == {1, 2}

    def test_oversized_single_entry_still_cached(self, tmp_path):
        cache = ShardCache(tmp_path, max_bytes=1)
        cache.store(FP, 42, make_result(n_rtts=50))
        # The bound cannot hold, but the just-written entry survives.
        assert cache.load(FP, 42, 0) is not None

    def test_unbounded_never_evicts(self, tmp_path):
        cache = ShardCache(tmp_path)
        for index in range(5):
            cache.store(FP, 42, make_result(index=index))
        assert len(cache) == 5
        assert cache.stats.evictions == 0

    def test_unbounded_store_does_not_scan_the_directory(self, tmp_path, monkeypatch):
        """Regression: seeding the recency clock on store scanned every
        entry, so a checkpointed run cost O(shards x entries).  Neither
        half of a store scans an unbounded cache: not a worker's ``write``
        through a fresh instance, nor the orchestrator's ``record``."""
        import os
        import time

        ShardCache(tmp_path).store(FP, 42, make_result(index=0))
        future = time.time_ns() + 10**12
        meta = ShardCache(tmp_path).entry_dir(shard_key(FP, 0, 42)) / "meta.json"
        os.utime(meta, ns=(future, future))

        def no_scan(self):
            raise AssertionError("an unbounded store scanned the cache")

        cache = ShardCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(ShardCache, "_entries", no_scan)
            cache.store(FP, 42, make_result(index=1))
            ShardCache(tmp_path).write(FP, 42, make_result(index=2))
            cache.record(FP, 42, 2)
        assert cache.stats.stores == 2
        # A bounded cache's first hit still seeds the clock past the
        # future-dated entry.
        bounded = ShardCache(tmp_path, max_bytes=10**9)
        for index in (1, 2):
            assert bounded.load(FP, 42, index) is not None
            fresh = bounded.entry_dir(shard_key(FP, index, 42)) / "meta.json"
            assert fresh.stat().st_mtime_ns > future

    def test_unbounded_hits_do_not_scan_the_directory(self, tmp_path, monkeypatch):
        """Only a bounded cache evicts, so only a bounded cache seeds its
        recency clock from the directory: an unbounded cache's batch hits
        stamp recency, in index order, without a glob or a stat of the
        other entries."""
        writer = ShardCache(tmp_path)
        for index in range(3):
            writer.store(FP, 42, make_result(index=index))

        def no_scan(self):
            raise AssertionError("an unbounded hit scanned the cache")

        cache = ShardCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(ShardCache, "_entries", no_scan)
            assert set(cache.load_many(FP, 42, [2, 0, 1])) == {0, 1, 2}
        assert cache.stats.hits == 3
        stamps = [
            (cache.entry_dir(shard_key(FP, index, 42)) / "meta.json").stat().st_mtime_ns
            for index in (2, 0, 1)
        ]
        assert stamps == sorted(set(stamps))

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(SweepError):
            ShardCache(tmp_path, max_bytes=0)


class TestRouteIdentity:
    """Two routes of equal length plan identical windows; the fingerprint
    must still tell them apart, or one route's shards replay for the other."""

    @staticmethod
    def one_segment_route(region: RegionType) -> Route:
        return Route(segments=[
            RouteSegment(
                LatLon(40.0, -100.0), LatLon(40.0, -92.0), 700_000.0, region, "Nowhere"
            )
        ])

    def sweep(self, region: RegionType, cache_dir):
        config = SweepConfig(
            seeds=(5,), scale=0.004, executor="serial",
            planner=PlannerParams(window_km=350.0), cache_dir=str(cache_dir),
        )
        return run_sweep(config, route=self.one_segment_route(region))

    def test_equal_length_routes_do_not_share_entries(self, tmp_path):
        highway = self.sweep(RegionType.HIGHWAY, tmp_path)
        assert highway.report.cache.misses == 2
        city = self.sweep(RegionType.CITY, tmp_path)
        assert (city.report.cache.hits, city.report.cache.misses) == (0, 2)
        samples = city.datasets[5].throughput_samples
        assert samples
        assert {s.region for s in samples} == {RegionType.CITY}
