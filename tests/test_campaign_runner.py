"""Campaign orchestration (integration-level)."""

import pytest

from repro.campaign.runner import CampaignConfig, DriveCampaign, generate_dataset
from repro.campaign.tests import TEST_DIRECTION, TEST_DURATIONS_S, TEST_TRAFFIC, TestType
from repro.errors import CampaignError
from repro.policy.profiles import TrafficProfile
from repro.radio.operators import Operator
from tests import row_oracle


class TestConfig:
    def test_scale_validation(self):
        with pytest.raises(CampaignError):
            CampaignConfig(scale=0.0)
        with pytest.raises(CampaignError):
            CampaignConfig(scale=1.5)

    def test_tick_validation(self):
        with pytest.raises(CampaignError):
            CampaignConfig(tick_s=0.0)

    def test_test_tables_cover_all_types(self):
        assert set(TEST_DURATIONS_S) == set(TestType)
        assert set(TEST_TRAFFIC) == set(TestType)
        assert set(TEST_DIRECTION) == set(TestType)

    def test_throughput_tests_are_backlogged(self):
        assert TEST_TRAFFIC[TestType.DOWNLINK_THROUGHPUT] is TrafficProfile.BACKLOGGED_DL
        assert TEST_TRAFFIC[TestType.UPLINK_THROUGHPUT] is TrafficProfile.BACKLOGGED_UL
        assert TEST_TRAFFIC[TestType.RTT] is TrafficProfile.IDLE_PING


class TestCampaignRun:
    def test_reproducible_across_runs(self):
        ds1 = generate_dataset(seed=5, scale=0.004, include_apps=False, include_static=False)
        ds2 = generate_dataset(seed=5, scale=0.004, include_apps=False, include_static=False)
        assert len(ds1.throughput_samples) == len(ds2.throughput_samples)
        v1 = [s.tput_mbps for s in ds1.throughput_samples[:100]]
        v2 = [s.tput_mbps for s in ds2.throughput_samples[:100]]
        assert v1 == v2

    def test_different_seeds_differ(self):
        ds1 = generate_dataset(seed=5, scale=0.004, include_apps=False, include_static=False)
        ds2 = generate_dataset(seed=6, scale=0.004, include_apps=False, include_static=False)
        v1 = [s.tput_mbps for s in ds1.throughput_samples[:50]]
        v2 = [s.tput_mbps for s in ds2.throughput_samples[:50]]
        assert v1 != v2

    def test_all_operators_tested_concurrently(self, dataset):
        # Every driving DL test window exists for all three operators.
        dl = row_oracle.tests_of(
            dataset, test_type=TestType.DOWNLINK_THROUGHPUT, static=False
        )
        by_start = {}
        for t in dl:
            by_start.setdefault(round(t.start_time_s, 1), set()).add(t.operator)
        assert by_start
        assert all(ops == set(Operator) for ops in by_start.values())

    def test_throughput_test_sample_counts(self, dataset):
        grouped = row_oracle.samples_by_test(dataset)
        dl_tests = row_oracle.tests_of(
            dataset, test_type=TestType.DOWNLINK_THROUGHPUT, static=False
        )
        for t in dl_tests[:10]:
            assert len(grouped[t.test_id]) == 60  # 30 s at 500 ms

    def test_rtt_test_sample_counts(self, dataset):
        rtt_tests = row_oracle.tests_of(dataset, test_type=TestType.RTT, static=False)
        by_test = {}
        for s in dataset.rtt_samples:
            by_test.setdefault(s.test_id, 0)
            by_test[s.test_id] += 1
        for t in rtt_tests[:10]:
            assert by_test[t.test_id] == 100  # 20 s at 200 ms

    def test_campaign_covers_route(self, dataset):
        marks = [t.end_mark_m for t in dataset.tests]
        assert max(marks) > 5_000_000.0  # reached the east coast

    def test_static_tests_have_zero_distance(self, dataset):
        static = row_oracle.tests_of(dataset, static=True)
        assert static
        for t in static:
            assert t.start_mark_m == t.end_mark_m

    def test_static_tests_use_high_speed_5g(self, dataset):
        """§5.1: static baselines face a mmWave or midband BS."""
        static_samples = row_oracle.tput(dataset, static=True)
        assert static_samples
        assert all(s.tech.is_high_throughput for s in static_samples)

    def test_app_runs_present(self, dataset):
        assert dataset.offload_runs
        assert dataset.video_runs
        assert dataset.gaming_runs

    def test_app_runs_cover_compression_settings(self, dataset):
        flags = {(r.app, r.compression) for r in dataset.offload_runs}
        assert (TestType.AR, True) in flags
        assert (TestType.AR, False) in flags
        assert (TestType.CAV, True) in flags
        assert (TestType.CAV, False) in flags

    def test_passive_coverage_tiles_route(self, dataset, route):
        for op in Operator:
            segs = [s for s in dataset.passive_coverage if s.operator is op]
            total = sum(s.length_m for s in segs)
            assert total == pytest.approx(route.total_length_m, rel=0.01)

    def test_speeds_are_plausible(self, dataset):
        speeds = [s.speed_mph for s in row_oracle.tput(dataset, static=False)]
        assert 0.0 <= min(speeds)
        assert max(speeds) < 110.0

    def test_scale_controls_test_count(self):
        small = generate_dataset(seed=9, scale=0.003, include_apps=False, include_static=False)
        larger = generate_dataset(seed=9, scale=0.009, include_apps=False, include_static=False)
        assert len(larger.tests) > len(small.tests) * 1.5


class TestRecordsEveryRun:
    """Every run writes its rows: app runs (parked ones too) a test row,
    RTT tests their handovers."""

    def test_every_app_run_has_a_test_row(self, dataset):
        from repro.store.query import select_columns

        test_ids, static = select_columns(dataset, "test", ("test_id", "static"))
        rows = dict(zip(test_ids.tolist(), static.tolist()))
        runs = [*dataset.offload_runs, *dataset.video_runs, *dataset.gaming_runs]
        assert any(run.static for run in runs)
        for run in runs:
            assert rows.get(run.test_id) == run.static, run.test_id

    def test_rtt_tests_log_handovers(self, dataset):
        from repro.store.query import select

        rtt_ids = {t.test_id for t in row_oracle.tests_of(dataset, test_type=TestType.RTT)}
        handover_ids = set(select(dataset, "ho", "test_id").tolist())
        assert rtt_ids & handover_ids
