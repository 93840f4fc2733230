"""The sweep driver: per-seed determinism, cache replay, and the report.

The acceptance bar mirrors the engine's: every seed's dataset must be
bit-identical to a standalone ``run_engine`` of that seed — whether its
shards were computed cold, interleaved with other seeds, or replayed from a
warm cache — and a warm re-sweep must be served entirely from cache.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from tests.conftest import ENGINE_CAMPAIGN, ENGINE_WINDOW_KM, engine_dataset_bytes
from repro.engine import EngineConfig, PlannerParams, run_engine
from repro.errors import SweepError
from repro.obs.report import load_summary, render_summary
from repro.obs.trace import reset_tracers
from repro.sweep import SweepConfig, SweepReport, run_sweep
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
        cache = ShardCache(sweep_tmp / "shard-cache")
        ds, report = run_engine(
            EngineConfig(
                campaign=ENGINE_CAMPAIGN, executor="serial", planner=PLANNER
            ),
            shard_store=cache,
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        assert report.cache_hits == len(report.shards)
        assert report.cache_misses == 0
        assert report.cache_hit_ratio() == 1.0


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
            assert run.n_shards == report.n_windows + 1
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
             s.from_cache, s.from_checkpoint)
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
                engine_config(SEEDS[0]), shard_store=ShardCache(engine_cache)
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
            engine_config(SEEDS[0]), shard_store=ShardCache(ckpt)
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
