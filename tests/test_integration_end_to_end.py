"""End-to-end integration: campaign → logs → sync → analysis."""

import pytest

from repro.analysis import coverage, handovers, longterm, ookla, performance
from repro.analysis.correlation import correlation_table
from repro.campaign.runner import CampaignConfig, DriveCampaign
from repro.campaign.tests import TestType
from repro.radio.operators import Operator
from repro.sync.database import ConsolidatedDatabase
from repro.sync.matcher import match_logs
from repro.xcal.export import export_logs


class TestFullPipeline:
    """One shared small campaign pushed through every downstream stage."""

    def test_analysis_chain_runs_on_generated_dataset(self, dataset):
        # §4 coverage
        for op in Operator:
            assert coverage.active_coverage_shares(dataset, op).share_5g >= 0.0
        # §5 performance
        for op in Operator:
            performance.static_vs_driving(dataset, op)
        # §5.5 Table 2
        assert len(correlation_table(dataset)) == 6
        # §5.6 Fig. 9 / Table 3
        assert len(ookla.ookla_comparison(dataset)) == 3
        # §6 handovers
        for op in Operator:
            handovers.handovers_per_mile(dataset, op, "downlink")

    def test_log_round_trip_preserves_analysis_inputs(self, campaign, dataset):
        drms, logs = export_logs(dataset, campaign.route, max_tests=60)
        pairs = match_logs(drms, logs)
        db = ConsolidatedDatabase.build(pairs)
        assert db.match_rate() > 0.95
        # The joined KPI columns are faithful: spot-check a throughput test.
        pair = next(p for p in pairs if p.app_log.test_label == "dl_tput")
        ds_samples = {
            round(s.time_s - pair.app_log.samples[0][0], 1): s
            for s in dataset.throughput_samples
        }
        assert len(pair.drm.kpi_records) == len(pair.app_log.samples)

    def test_summary_consistent_with_parts(self, dataset):
        summary = dataset.summary()
        assert summary.test_counts[TestType.DOWNLINK_THROUGHPUT] == sum(
            t.test_type is TestType.DOWNLINK_THROUGHPUT for t in dataset.tests
        )
        assert sum(summary.runtime_min.values()) > 0.0


class TestScaleBehaviour:
    def test_tiny_campaign_still_covers_timezones(self):
        ds = DriveCampaign(
            CampaignConfig(seed=99, scale=0.004, include_apps=False, include_static=False)
        ).run()
        zones = {s.timezone for s in ds.throughput_samples}
        assert len(zones) >= 3

    def test_apps_can_be_disabled(self):
        ds = DriveCampaign(
            CampaignConfig(seed=99, scale=0.004, include_apps=False, include_static=False)
        ).run()
        assert not ds.offload_runs
        assert not ds.video_runs
        assert not ds.gaming_runs

    def test_static_can_be_disabled(self):
        ds = DriveCampaign(
            CampaignConfig(seed=99, scale=0.004, include_apps=False, include_static=False)
        ).run()
        assert not any(s.static for s in ds.throughput_samples)
