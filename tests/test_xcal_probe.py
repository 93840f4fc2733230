"""Streaming XCAL probe."""

from datetime import datetime

import pytest

from repro.campaign.runner import CampaignConfig
from repro.geo.timezones import Timezone
from repro.policy.profiles import TrafficProfile
from repro.radio.ca import Direction
from repro.radio.operators import Operator
from repro.xcal.drm import DrmFile
from repro.xcal.probe import XcalProbe
from tests.row_oracle import RowDriveCampaign

TRIP_START = datetime(2022, 8, 8, 15, 0, 0)


@pytest.fixture()
def ticks():
    """A short run of real per-tick observations from a campaign session
    (the tick-major oracle's ``LinkTick`` s)."""
    campaign = RowDriveCampaign(
        CampaignConfig(seed=5, scale=0.002, include_apps=False, include_static=False)
    )
    session = campaign._sessions[Operator.VERIZON]
    out = []
    position = campaign.route.position_at(10_000.0)
    server = campaign._servers.select(
        Operator.VERIZON, position.point, position.timezone
    )
    for i in range(20):
        position = campaign.route.position_at(10_000.0 + i * 15.0)
        out.append(
            session.tick(
                i * 0.5, position, 65.0, TrafficProfile.BACKLOGGED_DL,
                Direction.DOWNLINK, server,
            )
        )
    return out


class TestXcalProbe:
    def test_accumulates_ticks(self, ticks):
        probe = XcalProbe(Operator.VERIZON, "dl_tput", TRIP_START, Timezone.PACIFIC)
        for tick in ticks:
            probe.observe(tick, tput_mbps=42.0)
        assert probe.tick_count == len(ticks)

    def test_finish_produces_parseable_drm(self, ticks):
        probe = XcalProbe(Operator.VERIZON, "dl_tput", TRIP_START, Timezone.PACIFIC)
        for tick in ticks:
            probe.observe(tick, tput_mbps=10.0)
        drm = probe.finish()
        parsed = DrmFile.parse(drm.filename, drm.serialize())
        assert len(parsed.kpi_records) == len(ticks)
        assert parsed.operator is Operator.VERIZON

    def test_filename_uses_local_time(self, ticks):
        pacific = XcalProbe(Operator.VERIZON, "dl_tput", TRIP_START, Timezone.PACIFIC)
        eastern = XcalProbe(Operator.VERIZON, "dl_tput", TRIP_START, Timezone.EASTERN)
        for tick in ticks[:1]:
            pacific.observe(tick)
            eastern.observe(tick)
        # Same capture, different local clocks → different filenames.
        assert pacific.finish().filename != eastern.finish().filename

    def test_contents_are_edt_regardless_of_location(self, ticks):
        probe = XcalProbe(Operator.VERIZON, "dl_tput", TRIP_START, Timezone.PACIFIC)
        probe.observe(ticks[0])
        body = probe.finish().serialize()
        assert " EDT|" in body

    def test_handover_signalling_captured(self, ticks):
        probe = XcalProbe(Operator.VERIZON, "dl_tput", TRIP_START, Timezone.PACIFIC)
        for tick in ticks:
            probe.observe(tick)
        drm = probe.finish()
        ho_ticks = sum(len(t.handovers) for t in ticks)
        assert len(drm.signaling_records) == 2 * ho_ticks  # START + END

    def test_empty_probe_rejected(self):
        probe = XcalProbe(Operator.ATT, "rtt", TRIP_START, Timezone.CENTRAL)
        with pytest.raises(ValueError):
            probe.finish()
