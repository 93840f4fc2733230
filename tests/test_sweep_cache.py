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

from repro.campaign.dataset import DriveDataset, RttSample
from repro.engine.checkpoint import shard_key, shard_stem
from repro.engine.planner import PASSIVE_SHARD_INDEX
from repro.engine.worker import ShardResult
from repro.errors import SweepError
from repro.geo.regions import RegionType
from repro.geo.timezones import Timezone
from repro.net.servers import ServerKind
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.sweep.cache import ShardCache

FP = "a" * 64
OTHER_FP = "b" * 64


def make_result(index: int = 0, seed: int = 42, n_rtts: int = 1) -> ShardResult:
    ds = DriveDataset(seed=seed, scale=0.01, route_length_km=100.0)
    for i in range(n_rtts):
        ds.rtt_samples.append(
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
        )
    return ShardResult(
        index=index, dataset=ds,
        active_cells={Operator.VERIZON: 3}, wall_s=1.5,
    )


class TestAddressing:
    def test_key_depends_on_all_three_coordinates(self):
        base = shard_key(FP, 0, 42)
        assert shard_key(FP, 0, 42) == base
        assert shard_key(OTHER_FP, 0, 42) != base
        assert shard_key(FP, 1, 42) != base
        assert shard_key(FP, 0, 43) != base

    def test_passive_shard_has_its_own_stem(self):
        assert shard_stem(PASSIVE_SHARD_INDEX) == "shard-passive"
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
        assert loaded.active_cells == result.active_cells
        assert [s.rtt_ms for s in loaded.dataset.rtt_samples] == [
            s.rtt_ms for s in result.dataset.rtt_samples
        ]
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_load_many_returns_only_present(self, tmp_path):
        cache = ShardCache(tmp_path)
        cache.store(FP, 42, make_result(index=0))
        cache.store(FP, 42, make_result(index=2))
        found = cache.load_many(FP, 42, [0, 1, 2, PASSIVE_SHARD_INDEX])
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
        (entry / "data.ds.gz").write_bytes(b"not a gzip stream")
        assert cache.load(FP, 42, 0) is None

    def test_corrupt_sidecar_misses(self, tmp_path):
        cache = ShardCache(tmp_path)
        cache.store(FP, 42, make_result())
        entry = cache.entry_dir(cache.key(FP, 0, 42))
        (entry / "meta.json").write_text("{truncated")
        assert cache.load(FP, 42, 0) is None

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
        """Regression: workers write every checkpoint through a fresh
        unbounded cache, and seeding the recency clock on store scanned
        every entry — a checkpointed run cost O(shards x entries)."""
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
        # The first hit still seeds the clock past the future-dated entry.
        assert cache.load(FP, 42, 1) is not None
        fresh = cache.entry_dir(shard_key(FP, 1, 42)) / "meta.json"
        assert fresh.stat().st_mtime_ns > future

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(SweepError):
            ShardCache(tmp_path, max_bytes=0)
