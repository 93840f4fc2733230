"""Cycle plans and their wiring into the campaign."""

import pytest

from repro.campaign.runner import CampaignConfig, CampaignWindow, DriveCampaign
from repro.campaign.scheduler import FULL_CYCLE, NETWORK_ONLY_CYCLE, CyclePlan
from repro.campaign.tests import TEST_DURATIONS_S, TestType
from repro.engine.planner import nominal_cycle_duration_s
from repro.errors import CampaignError

#: ``FULL_CYCLE``'s runs as ``(test_type, compression)``.
FULL_CYCLE_RUNS = [
    (TestType.DOWNLINK_THROUGHPUT, False),
    (TestType.UPLINK_THROUGHPUT, False),
    (TestType.RTT, False),
    (TestType.AR, False),
    (TestType.AR, True),
    (TestType.CAV, False),
    (TestType.CAV, True),
    (TestType.VIDEO_360, False),
    (TestType.CLOUD_GAMING, False),
]


class TestCyclePlan:
    def test_full_cycle_matches_paper_suite(self):
        assert set(FULL_CYCLE.tests) == set(TestType)

    def test_network_only(self):
        assert set(NETWORK_ONLY_CYCLE.tests) == {
            TestType.DOWNLINK_THROUGHPUT,
            TestType.UPLINK_THROUGHPUT,
            TestType.RTT,
        }

    def test_empty_plan_rejected(self):
        with pytest.raises(CampaignError):
            CyclePlan(tests=())

    def test_without_apps_requires_network_tests(self):
        with pytest.raises(CampaignError):
            CyclePlan(tests=(TestType.AR,)).without_apps()

    def test_runs_double_offload_apps(self):
        assert list(FULL_CYCLE.runs()) == FULL_CYCLE_RUNS

    def test_run_counts_double_offload_apps(self):
        assert FULL_CYCLE.run_count(TestType.AR) == 2
        assert FULL_CYCLE.run_count(TestType.CAV) == 2
        assert FULL_CYCLE.run_count(TestType.RTT) == 1
        assert NETWORK_ONLY_CYCLE.run_count(TestType.AR) == 0

    def test_nominal_duration(self):
        # 30+30+20 + 2*20*2 + 180 + 60 = 400 s of tests + 9 gaps of 4 s.
        assert nominal_cycle_duration_s(CampaignConfig()) == pytest.approx(436.0)

    def test_config_durations(self):
        config = CampaignConfig(video_duration_s=90.0, gaming_duration_s=45.0)
        assert config.duration_s(TestType.VIDEO_360) == 90.0
        assert config.duration_s(TestType.CLOUD_GAMING) == 45.0
        assert config.duration_s(TestType.AR) == TEST_DURATIONS_S[TestType.AR]
        # 400 s of tests less 90 s of video and 15 s of gaming, + 9 gaps.
        assert nominal_cycle_duration_s(config) == pytest.approx(331.0)


class TestCustomCycles:
    def test_rtt_only_campaign(self):
        config = CampaignConfig(
            seed=3, scale=0.004, include_static=False,
            cycle=CyclePlan(tests=(TestType.RTT,)),
        )
        ds = DriveCampaign(config).run()
        assert ds.rtt_samples
        assert not ds.throughput_samples
        assert not ds.video_runs

    def test_single_app_campaign(self):
        config = CampaignConfig(
            seed=3, scale=0.004, include_static=False,
            cycle=CyclePlan(tests=(TestType.DOWNLINK_THROUGHPUT, TestType.VIDEO_360)),
        )
        ds = DriveCampaign(config).run()
        assert ds.video_runs
        assert not ds.gaming_runs
        assert not ds.offload_runs

    def test_include_apps_false_strips_plan(self):
        config = CampaignConfig(
            seed=3, scale=0.004, include_apps=False, include_static=False,
        )
        ds = DriveCampaign(config).run()
        assert ds.throughput_samples
        assert not ds.offload_runs


def _parked_campaign(**config):
    """A campaign over the first 20 km, which parks once, in Los Angeles."""
    window = CampaignWindow(index=0, start_m=0.0, end_m=20_000.0)
    return DriveCampaign(CampaignConfig(seed=3, scale=0.004, **config), window=window).run()


def _parked_runs(ds):
    """Every parked run as ``(test_id, operator, test_type, compression)``,
    in test-id order: its test row, with an offload run's compression."""
    compression = {r.test_id: r.compression for r in ds.offload_runs if r.static}
    runs = [
        (t.test_id, t.operator, t.test_type, compression.get(t.test_id, False))
        for t in ds.tests if t.static
    ]
    return sorted(runs, key=lambda run: run[0])


class TestParkedBattery:
    """Each phone in turn parks and runs the campaign's cycle (§5.1)."""

    def test_full_cycle_runs_in_cycle_order(self):
        ds = _parked_campaign()
        runs = _parked_runs(ds)
        expected = FULL_CYCLE_RUNS
        assert runs and len(runs) % len(expected) == 0
        for at in range(0, len(runs), len(expected)):
            battery = runs[at:at + len(expected)]
            ids = [run[0] for run in battery]
            assert ids == list(range(ids[0], ids[0] + len(expected)))
            assert len({run[1] for run in battery}) == 1  # one operator
            assert [(run[2], run[3]) for run in battery] == expected
        apps = [r for r in ds.offload_runs + ds.video_runs + ds.gaming_runs if r.static]
        assert apps and all(r.ho_count == 0 for r in apps)
        tput = [s for s in ds.throughput_samples if s.static]
        assert tput and all(s.ho_count == 0 for s in tput)
        parked_ids = {run[0] for run in runs}
        assert not any(h.test_id in parked_ids for h in ds.handovers)

    @pytest.mark.parametrize("config", [
        dict(cycle=NETWORK_ONLY_CYCLE, include_apps=True),
        dict(include_apps=False),
    ])
    def test_parks_without_apps_when_the_cycle_has_none(self, config):
        ds = _parked_campaign(**config)
        runs = _parked_runs(ds)
        assert runs and len(runs) % 3 == 0
        assert [run[2] for run in runs] == list(NETWORK_ONLY_CYCLE.tests) * (len(runs) // 3)
        assert not ds.offload_runs and not ds.video_runs and not ds.gaming_runs
