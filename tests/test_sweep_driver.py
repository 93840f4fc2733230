"""The sweep driver: per-seed determinism, cache replay, and the report.

The acceptance bar mirrors the engine's: every seed's dataset must be
bit-identical to a standalone ``run_engine`` of that seed — whether its
shards were computed cold, interleaved with other seeds, or replayed from a
warm cache — and a warm re-sweep must be served entirely from cache.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from tests.conftest import ENGINE_CAMPAIGN, ENGINE_WINDOW_KM, engine_dataset_bytes
from repro.engine import EngineConfig, PlannerParams, run_engine
from repro.errors import SweepError
from repro.obs.report import load_summary, render_summary
from repro.obs.trace import reset_tracers
from repro.store import Catalog, query
from repro.sweep import SweepConfig, SweepReport, run_sweep
from repro.sweep.__main__ import main
from repro.sweep.cache import ShardCache
from repro.sweep.report import SWEEP_SCHEMA_VERSION

SEEDS = (ENGINE_CAMPAIGN.seed, ENGINE_CAMPAIGN.seed + 1)
PLANNER = PlannerParams(window_km=ENGINE_WINDOW_KM)


def sweep_config(tmp_path, **overrides):
    kwargs = dict(
        seeds=SEEDS,
        scale=ENGINE_CAMPAIGN.scale,
        include_apps=False,
        include_static=False,
        executor="serial",
        planner=PLANNER,
        cache_dir=str(tmp_path / "shard-cache"),
        bootstrap_samples=200,
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """One cold sweep over two seeds, shared by the read-only tests."""
    tmp = tmp_path_factory.mktemp("sweep")
    config = sweep_config(tmp, report_path=str(tmp / "sweep.json"))
    return config, run_sweep(config), tmp


class TestConfigValidation:
    def test_rejects_empty_seeds(self, tmp_path):
        with pytest.raises(SweepError):
            sweep_config(tmp_path, seeds=())

    def test_rejects_duplicate_seeds(self, tmp_path):
        with pytest.raises(SweepError):
            sweep_config(tmp_path, seeds=(1, 1))

    def test_rejects_unknown_statistic(self, tmp_path):
        with pytest.raises(SweepError):
            sweep_config(tmp_path, statistics=("not_a_stat",))

    def test_rejects_bad_confidence(self, tmp_path):
        with pytest.raises(SweepError):
            sweep_config(tmp_path, confidence=1.0)


def engine_config(seed, **overrides):
    """Standalone serial engine config of one sweep seed."""
    campaign = dataclasses.replace(ENGINE_CAMPAIGN, seed=seed)
    return EngineConfig(
        campaign=campaign, executor="serial", planner=PLANNER, **overrides
    )


@pytest.fixture(scope="module")
def standalone(engine_baseline, tmp_path_factory):
    """Saved bytes of a standalone ``run_engine`` of every sweep seed."""
    tmp = tmp_path_factory.mktemp("standalone")
    other, _ = run_engine(engine_config(SEEDS[1]))
    return {SEEDS[0]: engine_baseline[1], SEEDS[1]: engine_dataset_bytes(other, tmp)}


class TestPerSeedDeterminism:
    def test_seed_datasets_match_standalone_engine_runs(
        self, swept, standalone, tmp_path
    ):
        """Interleaved multi-seed execution changes nothing per seed."""
        _, result, _ = swept
        for seed in SEEDS:
            assert (
                engine_dataset_bytes(result.datasets[seed], tmp_path)
                == standalone[seed]
            )

    def test_interleaved_process_sweep_matches_serial(
        self, swept, standalone, tmp_path
    ):
        """Two seeds' batches interleaved through one two-worker process
        pool give each seed the bytes of the serial sweep and of a
        standalone engine run."""
        _, serial, _ = swept
        result = run_sweep(
            sweep_config(tmp_path, executor="process", workers=2, cache_dir=None)
        )
        if result.report.executor == "process":  # platform may lack pools
            assert result.report.workers == 2
        for seed in SEEDS:
            got = engine_dataset_bytes(result.datasets[seed], tmp_path)
            assert got == engine_dataset_bytes(serial.datasets[seed], tmp_path)
            assert got == standalone[seed]

    def test_seeds_produce_distinct_datasets(self, swept, tmp_path):
        _, result, _ = swept
        a = engine_dataset_bytes(result.datasets[SEEDS[0]], tmp_path)
        b = engine_dataset_bytes(result.datasets[SEEDS[1]], tmp_path)
        assert a != b


class TestCacheReplay:
    def test_cold_sweep_misses_then_populates(self, swept):
        _, result, _ = swept
        n_shards = sum(r.n_shards for r in result.report.seed_runs)
        assert result.cache.stats.misses == n_shards
        assert result.cache.stats.stores == n_shards
        assert result.report.cache_hit_ratio() == 0.0

    def test_warm_sweep_replays_every_shard(self, swept, tmp_path):
        config, cold, sweep_tmp = swept
        warm_config = sweep_config(
            sweep_tmp, cache_dir=str(sweep_tmp / "shard-cache")
        )
        warm = run_sweep(warm_config)
        assert warm.report.cache_hit_ratio() == 1.0
        assert warm.cache.stats.misses == 0
        for seed in SEEDS:
            assert engine_dataset_bytes(
                warm.datasets[seed], tmp_path
            ) == engine_dataset_bytes(cold.datasets[seed], tmp_path)
            report = warm.engine_reports[seed]
            assert all(s.from_cache for s in report.shards)
            assert report.cache_hits == len(report.shards)

    def test_warm_sweep_metrics_match_cold(self, tmp_path):
        """Regression: cache-replayed shards used to be dropped from the
        merged sweep metrics, so a warm traced sweep reported zero
        ``engine.shards_computed``.  Cached sidecars now carry the snapshot
        of the computation that produced them — warm equals cold."""
        from repro.obs.trace import reset_tracers

        try:
            cold = run_sweep(
                sweep_config(
                    tmp_path,  # fresh cache: every shard computes
                    trace_path=str(tmp_path / "cold.jsonl"),
                )
            )
            warm = run_sweep(
                sweep_config(
                    tmp_path,  # same cache dir: every shard replays
                    trace_path=str(tmp_path / "warm.jsonl"),
                )
            )
        finally:
            reset_tracers()
        assert warm.report.cache_hit_ratio() == 1.0
        cold_counters = cold.report.metrics["counters"]
        warm_counters = warm.report.metrics["counters"]
        for key in ("engine.shards_computed", "engine.records_generated"):
            assert warm_counters[key] == cold_counters[key], key

    def test_warm_replay_rereads_a_flipped_entry(self, tmp_path, monkeypatch):
        """A process that replays a shard again holds its decode, but only
        for the bytes it was decoded from: one byte flipped in place in
        one entry (same size) is read, fails its checks and is recomputed,
        while the other entries replay, and the statistics stay the cold
        ones."""
        from repro.store import format as fmt

        cold = run_sweep(sweep_config(tmp_path))
        for _ in range(2):  # the second read of each entry holds its decode
            run_sweep(sweep_config(tmp_path))
        loads = []
        load = fmt.TableReader.load

        def counting(self, schema):
            loads.append(self.name)
            return load(self, schema)

        monkeypatch.setattr(fmt.TableReader, "load", counting)
        warm = run_sweep(sweep_config(tmp_path))
        assert warm.cache.stats.misses == 0 and loads == []
        entries = sorted((tmp_path / "shard-cache").glob("objects/*/*/data.rcol"))
        victim = entries[0]
        cold_bytes = victim.read_bytes()
        with open(victim, "r+b") as fh:  # the magic's first byte
            fh.write(bytes([cold_bytes[0] ^ 0x01]))

        again = run_sweep(sweep_config(tmp_path))
        assert again.cache.stats.misses == 1
        assert again.cache.stats.hits == len(entries) - 1
        assert victim.read_bytes() == cold_bytes
        summaries = [
            [s.to_obj() for s in result.report.statistics]
            for result in (cold, warm, again)
        ]
        assert summaries[0] and summaries[1] == summaries[0] == summaries[2]

    def test_partial_overlap_reuses_shared_seeds(self, swept, tmp_path):
        """A later sweep over an overlapping seed list replays the overlap."""
        _, _, sweep_tmp = swept
        config = sweep_config(
            sweep_tmp,
            seeds=(SEEDS[1], SEEDS[1] + 1),  # one cached, one new
            cache_dir=str(sweep_tmp / "shard-cache"),
        )
        result = run_sweep(config)
        by_seed = {r.seed: r for r in result.report.seed_runs}
        assert by_seed[SEEDS[1]].cache_hit_ratio() == 1.0
        assert by_seed[SEEDS[1] + 1].cache_hits == 0

    def test_changed_planner_invalidates(self, swept):
        """A different window decomposition is a different computation: the
        cache must recompute everything, not merge foreign shards."""
        _, _, sweep_tmp = swept
        config = sweep_config(
            sweep_tmp,
            planner=PlannerParams(window_km=ENGINE_WINDOW_KM * 2),
            cache_dir=str(sweep_tmp / "shard-cache"),
        )
        result = run_sweep(config)
        assert result.cache.stats.hits == 0
        assert all(r.cache_hits == 0 for r in result.report.seed_runs)

    def test_sweep_cache_serves_run_engine(self, swept, engine_baseline, tmp_path):
        """The cache is one namespace: run_engine replays sweep shards."""
        _, _, sweep_tmp = swept
        _, base = engine_baseline
        ds, report = run_engine(
            EngineConfig(
                campaign=ENGINE_CAMPAIGN, executor="serial", planner=PLANNER,
                checkpoint_dir=str(sweep_tmp / "shard-cache"),
            )
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        assert report.cache_hits == len(report.shards)
        assert report.cache_misses == 0
        assert report.cache_hit_ratio() == 1.0


class TestIdempotentIngest:
    """A sweep into a store that already holds its partitions writes
    nothing; a partition whose bytes changed, or another computation of the
    same seed, is written again."""

    @staticmethod
    def warm_sweep(swept, store, **overrides):
        _, _, sweep_tmp = swept
        return run_sweep(sweep_config(
            sweep_tmp, cache_dir=str(sweep_tmp / "shard-cache"),
            store_dir=str(store), **overrides,
        ))

    @staticmethod
    def file_states(store):
        return {
            path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in [store / "catalog.json", *(store / "parts").iterdir()]
        }

    @staticmethod
    def answers(store):
        with Catalog(store) as cat:
            return repr((
                query.count(cat, "tput"),
                query.percentile(cat, "tput", "tput_mbps", [0.1, 0.5, 0.9]).tolist(),
                query.mean(cat, "rtt", "rtt_ms"),
                query.group_total(cat, "passive", "tech", "length_m"),
            ))

    def test_second_sweep_rewrites_nothing(self, swept, tmp_path):
        store = tmp_path / "store"
        self.warm_sweep(swept, store)
        states = self.file_states(store)
        manifest = (store / "catalog.json").read_bytes()
        answers = self.answers(store)
        self.warm_sweep(swept, store)
        assert len(states) == 1 + len(SEEDS)
        assert self.file_states(store) == states
        assert (store / "catalog.json").read_bytes() == manifest
        assert self.answers(store) == answers

    @pytest.mark.parametrize("damage", ["flip", "delete"])
    def test_damaged_partition_is_rewritten_to_cold_bytes(
        self, swept, tmp_path, damage
    ):
        store = tmp_path / "store"
        self.warm_sweep(swept, store)
        cold = {p.name: p.read_bytes() for p in (store / "parts").iterdir()}
        victim, other = sorted(cold)
        other_state = self.file_states(store)[other]
        if damage == "flip":  # same size, one bit of one byte
            data = bytearray(cold[victim])
            data[len(data) // 2] ^= 0x01
            (store / "parts" / victim).write_bytes(bytes(data))
        else:
            (store / "parts" / victim).unlink()
        self.warm_sweep(swept, store)
        assert {p.name: p.read_bytes() for p in (store / "parts").iterdir()} == cold
        assert self.file_states(store)[other] == other_state

    def test_other_scale_of_a_seed_rewrites_it(self, swept, tmp_path):
        store = tmp_path / "store"
        self.warm_sweep(swept, store, seeds=SEEDS[:1])
        with Catalog(store) as cat:
            before = cat.partition(SEEDS[0])
        name = pathlib.Path(before.path).name
        state = self.file_states(store)[name]
        run_sweep(sweep_config(
            tmp_path, seeds=SEEDS[:1], scale=ENGINE_CAMPAIGN.scale / 2,
            cache_dir=None, store_dir=str(store),
        ))
        with Catalog(store) as cat:
            after = cat.partition(SEEDS[0])
        assert after.path == before.path
        assert self.file_states(store)[name] != state
        assert after.source != before.source
        assert after.sha256 != before.sha256
        assert after.rows("tput") < before.rows("tput")


class TestCommandLine:
    """``python -m repro.sweep --store``: the message after a run is true
    whether the run wrote its partition or found it held."""

    def test_rerun_into_a_store_claims_no_ingest_and_keeps_the_partition(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        argv = [
            "--seeds", "41", "--scale", "0.004", "--no-apps", "--no-static",
            "--executor", "serial", "--window-km", "600", "--store", str(store),
        ]
        outputs, mtimes = [], []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
            (part,) = (store / "parts").iterdir()
            mtimes.append(part.stat().st_mtime_ns)
        for out in outputs:
            assert "ingest" not in out
            assert f"store catalog {store} holds every seed's partition" in out
        assert mtimes[1] == mtimes[0]


class TestBoundedCache:
    """Workers write every entry and the sweep's process keeps the books, so
    a cold sweep into a cache smaller than its shards still ends within the
    bound, counts every eviction and keeps the newest entries."""

    @pytest.fixture(scope="class")
    def full_bytes(self, tmp_path_factory):
        """Disk footprint of an unbounded cold sweep's entries."""
        tmp = tmp_path_factory.mktemp("unbounded")
        return run_sweep(sweep_config(tmp)).cache.total_bytes()

    @pytest.mark.parametrize(
        "topology", [{"executor": "serial"}, {"executor": "process", "workers": 2}]
    )
    def test_cold_sweep_ends_within_bound_keeping_newest(
        self, full_bytes, topology, tmp_path, monkeypatch
    ):
        recorded: list[tuple[str, int, int]] = []
        record = ShardCache.record

        def logged(self, fingerprint, seed, index):
            recorded.append((fingerprint, seed, index))
            return record(self, fingerprint, seed, index)

        monkeypatch.setattr(ShardCache, "record", logged)
        budget = full_bytes // 2
        try:
            result = run_sweep(
                sweep_config(
                    tmp_path,
                    **topology,
                    cache_max_bytes=budget,
                    trace_path=str(tmp_path / "trace.jsonl"),
                )
            )
        finally:
            reset_tracers()
        cache, stats = result.cache, result.cache.stats
        assert cache.total_bytes() <= budget
        assert stats.stores == stats.misses == len(recorded)
        assert stats.evictions == len(recorded) - len(cache) > 0
        assert result.report.metrics["counters"]["cache.evictions"] == stats.evictions
        survivors = [
            (fingerprint, seed, index)
            for fingerprint, seed, index in recorded
            if cache.load(fingerprint, seed, index) is not None
        ]
        assert survivors == recorded[-len(cache):]


class TestSweepReport:
    def test_confidence_intervals_on_paper_statistics(self, swept):
        _, result, _ = swept
        report = result.report
        assert len(report.statistics) >= 5
        for summary in report.statistics:
            assert summary.n_seeds == len(SEEDS)
            assert summary.ci_low <= summary.ci_high
            assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_app_statistics_skipped_without_apps(self, swept):
        _, result, _ = swept
        assert "video_qoe_median" in result.report.skipped_statistics

    def test_per_seed_metrics(self, swept):
        config, result, _ = swept
        report = result.report
        assert [r.seed for r in report.seed_runs] == list(SEEDS)
        for run in report.seed_runs:
            assert run.records > 0
            assert run.compute_wall_s > 0.0
            assert run.n_shards == report.n_windows
        assert report.total_wall_s > 0.0

    def test_statistic_lookup(self, swept):
        _, result, _ = swept
        summary = result.report.statistic("driving_rtt_median_ms_V")
        assert summary.unit == "ms"
        with pytest.raises(KeyError):
            result.report.statistic("nope")

    def test_schema_version_and_round_trip(self, swept):
        _, result, tmp = swept
        obj = json.loads((tmp / "sweep.json").read_text())
        assert obj["schema_version"] == SWEEP_SCHEMA_VERSION
        rebuilt = SweepReport.from_obj(obj)
        assert rebuilt.to_obj() == obj
        assert rebuilt.cache_hit_ratio() == result.report.cache_hit_ratio()

    def test_statistics_subset_honoured(self, swept):
        _, _, sweep_tmp = swept
        config = sweep_config(
            sweep_tmp,
            cache_dir=str(sweep_tmp / "shard-cache"),
            statistics=("driving_rtt_median_ms_V", "unique_cells_total"),
        )
        result = run_sweep(config)
        assert [s.name for s in result.report.statistics] == [
            "driving_rtt_median_ms_V",
            "unique_cells_total",
        ]


class TestOnePipeline:
    """A sweep seed and a standalone engine run are one pipeline reading one
    shard-cache namespace, so they report and replay identically."""

    @staticmethod
    def shard_facts(report):
        return [
            (s.index, s.start_km, s.end_km, s.records, s.retries,
             s.from_cache)
            for s in report.shards
        ]

    def test_single_seed_sweep_reports_like_run_engine(self, tmp_path):
        sweep_cfg = sweep_config(
            tmp_path, seeds=SEEDS[:1], cache_dir=str(tmp_path / "sweep-cache")
        )
        engine_cache = tmp_path / "engine-cache"
        for _ in ("cold", "warm"):
            swept = run_sweep(sweep_cfg).engine_reports[SEEDS[0]]
            _, engine = run_engine(
                engine_config(SEEDS[0], checkpoint_dir=str(engine_cache))
            )
            assert self.shard_facts(swept) == self.shard_facts(engine)
            assert (swept.cache_hits, swept.cache_misses) == (
                engine.cache_hits, engine.cache_misses,
            )
        assert engine.cache_hits == len(engine.shards)  # the warm pass replayed

    def test_checkpoint_dir_is_a_shard_cache(self, standalone, tmp_path):
        ckpt = tmp_path / "ckpt"
        run_engine(engine_config(SEEDS[0], checkpoint_dir=str(ckpt)))

        swept = run_sweep(
            sweep_config(tmp_path, seeds=SEEDS[:1], cache_dir=str(ckpt))
        )
        assert swept.report.cache_hit_ratio() == 1.0
        assert (
            engine_dataset_bytes(swept.datasets[SEEDS[0]], tmp_path)
            == standalone[SEEDS[0]]
        )

        ds, report = run_engine(
            engine_config(SEEDS[0], checkpoint_dir=str(ckpt))
        )
        assert report.cache_hits == len(report.shards)
        assert report.cache_misses == 0
        assert engine_dataset_bytes(ds, tmp_path) == standalone[SEEDS[0]]


class TestTracedSweepSummary:
    def test_summary_lists_sweep_merges(self, tmp_path):
        """``python -m repro.obs`` ranks a sweep's merges like an engine
        run's: every ``sweep.merge`` span is a "slowest merges" row."""
        trace = tmp_path / "trace.jsonl"
        try:
            run_sweep(
                sweep_config(
                    tmp_path, seeds=SEEDS[:1], cache_dir=None,
                    trace_path=str(trace),
                )
            )
        finally:
            reset_tracers()
        lines = render_summary(load_summary(trace)).splitlines()
        (header,) = [i for i, line in enumerate(lines) if "slowest merges" in line]
        assert "sweep.merge" in lines[header + 1]
        assert f"seed={SEEDS[0]}" in lines[header + 1]


class TestWarmPathAttribution:
    """A benchmark attributes warm-sweep time by wrapping ``ShardCache.load``
    at class level and by the sweep's own phase spans; replaying shards as
    columns must keep both hooks seeing the warm path."""

    def test_class_level_load_patch_sees_every_shard_once(
        self, swept, monkeypatch
    ):
        _, cold, sweep_tmp = swept
        n_shards = sum(r.n_shards for r in cold.report.seed_runs)
        calls: list[tuple[str, int, int]] = []
        load = ShardCache.load

        def counted(self, fingerprint, seed, index):
            calls.append((fingerprint, seed, index))
            return load(self, fingerprint, seed, index)

        monkeypatch.setattr(ShardCache, "load", counted)
        warm = run_sweep(
            sweep_config(sweep_tmp, cache_dir=str(sweep_tmp / "shard-cache"))
        )
        assert warm.cache.stats.hits == n_shards
        assert len(calls) == len(set(calls)) == n_shards

    def test_traced_warm_sweep_emits_phase_spans(self, swept, tmp_path):
        from repro.obs.trace import iter_trace

        _, _, sweep_tmp = swept
        # The first sweep writes each seed's partition into the new store;
        # the second finds them all in place.
        for trace, written in (
            (tmp_path / "warm.jsonl", True), (tmp_path / "again.jsonl", False)
        ):
            try:
                warm = run_sweep(
                    sweep_config(
                        sweep_tmp,
                        cache_dir=str(sweep_tmp / "shard-cache"),
                        store_dir=str(tmp_path / "store"),
                        trace_path=str(trace),
                    )
                )
            finally:
                reset_tracers()
            assert warm.cache.stats.misses == 0
            spans = [r for r in iter_trace(trace) if r["kind"] == "span"]
            names = [r["name"] for r in spans]
            for phase in ("sweep.plan", "sweep.merge", "sweep.ingest"):
                assert names.count(phase) == len(SEEDS), phase
            assert names.count("sweep.stats") == 1
            assert sorted(
                (r["attrs"]["seed"], r["attrs"]["written"])
                for r in spans if r["name"] == "sweep.ingest"
            ) == [(seed, written) for seed in SEEDS]
