"""Engine determinism: the merged dataset is a pure function of the seed.

The acceptance bar of the sharded engine: identical serialised bytes for any
shard batching and for the serial and process executors, and equality with
the public serial entry point ``repro.generate_dataset`` (which runs the same
canonical shard plan in-process).
"""

from collections import OrderedDict

import pytest

from tests.conftest import ENGINE_CAMPAIGN, ENGINE_WINDOW_KM, engine_dataset_bytes
from repro.campaign.runner import CampaignConfig, DriveCampaign
from repro.campaign.validation import validate_dataset
from repro.engine import EngineConfig, PlannerParams, plan_campaign, run_engine
from repro.radio import deployment
from repro.radio.operators import Operator


def run_bytes(tmp_path, **overrides):
    cfg = EngineConfig(
        campaign=ENGINE_CAMPAIGN,
        planner=PlannerParams(window_km=ENGINE_WINDOW_KM),
        **overrides,
    )
    ds, report = run_engine(cfg)
    return engine_dataset_bytes(ds, tmp_path), report


class TestShardInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_serial_any_shard_count(self, engine_baseline, tmp_path, shards):
        _, base = engine_baseline
        data, _ = run_bytes(tmp_path, executor="serial", shards=shards)
        assert data == base

    def test_process_executor_matches_serial(self, engine_baseline, tmp_path):
        _, base = engine_baseline
        data, report = run_bytes(tmp_path, executor="process", workers=2)
        assert data == base
        assert report.executor in ("process", "serial")  # serial = platform fallback

    def test_repeated_run_is_identical(self, engine_baseline, tmp_path):
        _, base = engine_baseline
        data, _ = run_bytes(tmp_path, executor="serial")
        assert data == base


class TestWindowPlanIndependence:
    """The deployment is one world per (seed, operator): the window plan
    decides how the route is cut, never the network it crosses."""

    CAMPAIGN = CampaignConfig(
        seed=5, scale=0.004, include_apps=False, include_static=False
    )

    def test_passive_handover_counts_match_whole_route(self):
        counts = []
        for window_km in (300.0, 600.0, None):
            ds, report = run_engine(
                EngineConfig(
                    campaign=self.CAMPAIGN,
                    executor="serial",
                    planner=PlannerParams(window_km=window_km),
                )
            )
            counts.append((report.n_windows, ds.passive_handover_counts))
        assert len({n for n, _ in counts}) == 3
        whole = DriveCampaign(self.CAMPAIGN).run().passive_handover_counts
        assert set(whole) == set(Operator)
        for _, merged in counts:
            assert merged == whole

    def test_world_arrays_equal_across_plans_and_read_only(self, route, monkeypatch):
        worlds = []
        for window_km in (300.0, 600.0):
            # A fresh memo, so each plan's campaign builds its own world.
            monkeypatch.setattr(deployment, "_WORLDS", OrderedDict())
            plan = plan_campaign(self.CAMPAIGN, route, PlannerParams(window_km=window_km))
            campaign = DriveCampaign(self.CAMPAIGN, route, window=plan.windows[1])
            worlds.append({op: s.deployment for op, s in campaign._sessions.items()})
        first, second = worlds
        for op in Operator:
            assert first[op] is not second[op]
            for a, b in ((first[op].zones, second[op].zones),
                         (first[op].macro_zones, second[op].macro_zones)):
                assert a.arrays.keys() == b.arrays.keys()
                for name, arr in a.arrays.items():
                    assert arr.flags.writeable is False
                    assert b.arrays[name].flags.writeable is False
                    assert (arr == b.arrays[name]).all(), name


class TestMergedDataset:
    def test_passes_validation(self, engine_baseline):
        ds, _ = engine_baseline
        report = validate_dataset(ds)
        assert report.ok, report.issues

    def test_covers_whole_route(self, engine_baseline, route):
        ds, _ = engine_baseline
        assert ds.route_length_km == pytest.approx(route.total_length_km)
        marks = [t.start_mark_m for t in ds.tests]
        assert max(marks) - min(marks) > 0.8 * route.total_length_m

    def test_connected_cells_counted_per_operator(self, engine_baseline):
        ds, _ = engine_baseline
        assert set(ds.connected_cells) == set(Operator)
        assert all(n > 0 for n in ds.connected_cells.values())

    def test_passive_layer_present(self, engine_baseline):
        ds, _ = engine_baseline
        assert len(ds.passive_coverage) > 0
        assert set(ds.passive_handover_counts) == set(Operator)

    def test_baseline_validates(self, engine_baseline):
        """The windows' passive segments tile the route exactly."""
        ds, _ = engine_baseline
        report = validate_dataset(ds)
        assert report.ok, [str(i) for i in report.issues[:5]]


class TestEngineReport:
    def test_report_accounts_for_every_shard(self, tmp_path):
        ds, report = run_engine(
            EngineConfig(
                campaign=ENGINE_CAMPAIGN,
                executor="serial",
                planner=PlannerParams(window_km=ENGINE_WINDOW_KM),
            )
        )
        # one shard per window, in index order: no other shard kind
        assert len(report.shards) == report.n_windows
        indices = [s.index for s in report.shards]
        assert indices == list(range(report.n_windows))
        assert report.total_records == sum(s.records for s in report.shards)
        assert report.total_records > 0
        assert 0.0 <= report.worker_utilisation() <= 1.0
        assert report.total_wall_s > 0.0

    def test_report_round_trips_through_json(self, tmp_path):
        import json

        _, report = run_engine(
            EngineConfig(
                campaign=ENGINE_CAMPAIGN,
                executor="serial",
                planner=PlannerParams(window_km=ENGINE_WINDOW_KM),
                report_path=str(tmp_path / "report.json"),
            )
        )
        obj = json.loads((tmp_path / "report.json").read_text())
        assert obj["n_windows"] == report.n_windows
        assert obj["total_records"] == report.total_records
        assert len(obj["shards"]) == len(report.shards)

    def test_report_schema_version_and_from_obj(self, tmp_path):
        import json

        from repro.engine.metrics import REPORT_SCHEMA_VERSION, EngineReport

        _, report = run_engine(
            EngineConfig(
                campaign=ENGINE_CAMPAIGN,
                executor="serial",
                planner=PlannerParams(window_km=ENGINE_WINDOW_KM),
            )
        )
        obj = report.to_obj()
        assert obj["schema_version"] == REPORT_SCHEMA_VERSION
        rebuilt = EngineReport.from_obj(json.loads(json.dumps(obj)))
        # The serialisation rounds stably, so a round trip is idempotent.
        assert rebuilt.to_obj() == obj
        assert rebuilt.cache_hits == 0
        assert rebuilt.cache_hit_ratio() == 0.0


class TestPublicApi:
    def test_generate_dataset_parallel_matches_baseline(
        self, engine_baseline, tmp_path
    ):
        import repro

        _, base = engine_baseline
        ds = repro.generate_dataset_parallel(
            seed=ENGINE_CAMPAIGN.seed,
            scale=ENGINE_CAMPAIGN.scale,
            include_apps=False,
            include_static=False,
            workers=2,
            window_km=ENGINE_WINDOW_KM,
        )
        assert engine_dataset_bytes(ds, tmp_path) == base

    def test_generate_dataset_matches_parallel(self, tmp_path):
        """Serial public API == parallel API at the default (adaptive) windows.

        The window decomposition defines the dataset's content, so both
        entry points must be compared at the same planner settings — here
        the adaptive default both use when ``window_km`` is not given.
        """
        import repro

        kwargs = dict(
            seed=ENGINE_CAMPAIGN.seed,
            scale=ENGINE_CAMPAIGN.scale,
            include_apps=False,
            include_static=False,
        )
        serial = repro.generate_dataset(**kwargs)
        parallel = repro.generate_dataset_parallel(**kwargs, workers=2)
        assert engine_dataset_bytes(serial, tmp_path) == engine_dataset_bytes(
            parallel, tmp_path
        )
