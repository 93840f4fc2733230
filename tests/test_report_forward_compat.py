"""Reports parse JSON written by newer schema versions without breaking."""

from __future__ import annotations

import math

import pytest

from repro.engine.metrics import EngineReport, ShardMetrics
from repro.sweep.report import SeedRunMetrics, SweepReport
from repro.sweep.stats import StatisticSummary


def _engine_obj(**extra) -> dict:
    report = EngineReport(executor="serial", workers=1, n_windows=2, n_batches=2)
    report.shards = [
        ShardMetrics(
            index=0, start_km=0.0, end_km=100.0, wall_s=1.5,
            records=10, retries=0, from_cache=False,
        )
    ]
    obj = report.to_obj()
    obj.update(extra)
    return obj


def _sweep_obj(**extra) -> dict:
    report = SweepReport(
        seeds=(41, 42), scale=0.01, executor="serial", workers=1,
        n_windows=3, confidence=0.95, bootstrap_samples=100,
        seed_runs=[
            SeedRunMetrics(
                seed=41, fingerprint="abc", compute_wall_s=2.0, records=5,
                n_shards=4, cache_hits=1, cache_misses=3, retries=0,
            )
        ],
        statistics=[
            StatisticSummary(
                name="s", description="d", unit="u", confidence=0.95,
                n_boot=100, seeds=(41,), values=(1.0,), mean=1.0,
                median=1.0, std=0.0, ci_low=1.0, ci_high=1.0,
            )
        ],
    )
    obj = report.to_obj()
    obj.update(extra)
    return obj


class TestEngineReportForwardCompat:
    def test_unknown_toplevel_fields_ignored(self):
        obj = _engine_obj(
            schema_version=3, gpu_seconds=12.5, scheduler={"kind": "fair"}
        )
        report = EngineReport.from_obj(obj)
        assert report.executor == "serial"
        assert report.total_records == 10

    def test_unknown_shard_fields_ignored(self):
        obj = _engine_obj()
        obj["shards"][0]["numa_node"] = 1
        report = EngineReport.from_obj(obj)
        assert report.shards[0].records == 10

    def test_missing_auxiliary_fields_default(self):
        # A future version might drop or rename non-structural fields;
        # parsing still succeeds from the structural core alone.
        obj = {
            "executor": "process", "workers": 4,
            "n_windows": 7, "n_batches": 3,
        }
        report = EngineReport.from_obj(obj)
        assert report.total_wall_s == 0.0
        assert report.validated is False
        assert report.shards == []

    def test_roundtrip_still_exact(self):
        obj = _engine_obj()
        assert EngineReport.from_obj(obj).to_obj() == obj

    def test_v3_checkpoint_replay_reads_as_cache_hit(self):
        """Schema v3 flagged a shard replayed from a checkpoint directory
        apart from a cache hit; v4 has one replay flag and reads it as
        ``from_cache``, so the shard's wall time leaves ``shard_wall_s``."""
        obj = _engine_obj(schema_version=3, checkpoint_hits=1)
        replayed = dict(obj["shards"][0], index=1, from_checkpoint=True)
        computed = dict(obj["shards"][0], from_checkpoint=False)
        obj["shards"] = [computed, replayed]
        report = EngineReport.from_obj(obj)
        assert [s.from_cache for s in report.shards] == [False, True]
        assert report.shard_wall_s == 1.5
        assert "from_checkpoint" not in report.to_obj()["shards"][1]
        assert "checkpoint_hits" not in report.to_obj()

    def test_missing_structural_field_still_fails(self):
        obj = _engine_obj()
        del obj["executor"]
        with pytest.raises(KeyError):
            EngineReport.from_obj(obj)


class TestSweepReportForwardCompat:
    def test_unknown_fields_ignored_everywhere(self):
        obj = _sweep_obj(schema_version=2, store_dir="out/store")
        obj["seed_runs"][0]["ingest_s"] = 0.2
        obj["statistics"][0]["kurtosis"] = 3.0
        report = SweepReport.from_obj(obj)
        assert report.seeds == (41, 42)
        assert report.seed_runs[0].records == 5
        assert report.statistics[0].mean == 1.0

    def test_missing_auxiliary_fields_default(self):
        obj = {
            "seeds": [41], "scale": 0.01, "executor": "serial",
            "workers": 1, "n_windows": 3, "confidence": 0.9,
            "bootstrap_samples": 10,
        }
        report = SweepReport.from_obj(obj)
        assert report.seed_runs == []
        assert report.statistics == []
        assert report.cache is None
        assert report.total_wall_s == 0.0

    def test_statistic_summary_minimal(self):
        summary = StatisticSummary.from_obj({
            "name": "x", "seeds": [41], "values": [2.0],
            "mean": 2.0, "ci_low": 2.0, "ci_high": 2.0,
        })
        assert summary.median == 2.0  # falls back to the mean
        assert summary.unit == ""
        assert math.isclose(summary.confidence, 0.95)

    def test_roundtrip_still_exact(self):
        obj = _sweep_obj()
        assert SweepReport.from_obj(obj).to_obj() == obj
