"""UESession: the radio stack (the phone + XCAL Solo) as a block kernel."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.campaign.link import UESession, VehiclePath, drive_block
from repro.geo.route import build_cross_country_route
from repro.geo.timezones import Timezone
from repro.net.servers import Server, ServerKind
from repro.geo.coords import LatLon
from repro.policy.profiles import (
    DEFAULT_POLICY_PROFILES,
    PolicyProfile,
    TrafficProfile,
)
from repro.radio.ca import Direction
from repro.radio.deployment import DeploymentModel
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology
from repro.rng import RngFactory

CLOUD = Server("cloud", ServerKind.CLOUD, LatLon(37.35, -121.96))


@pytest.fixture(scope="module")
def session(route):
    deployment = DeploymentModel.build(
        Operator.TMOBILE, route, np.random.default_rng(77)
    )
    return UESession(Operator.TMOBILE, deployment, RngFactory(seed=77)), route


def _observation(session, link, i=0):
    """Tick ``i`` of a block's columns, by the old per-tick field names."""
    handovers = tuple(
        SimpleNamespace(
            duration_ms=ms,
            from_cell=(ALL_TECHNOLOGIES[from_tech], from_seq),
            to_cell=(ALL_TECHNOLOGIES[to_tech], to_seq),
        )
        for tick, ms, from_tech, from_seq, to_tech, to_seq in zip(
            link.ho_tick, link.ho_duration_ms, link.ho_from_tech,
            link.ho_from_seq, link.ho_to_tech, link.ho_to_seq,
        )
        if tick == i
    )
    return SimpleNamespace(
        tech=ALL_TECHNOLOGIES[link.tech[i]],
        rsrp_dbm=link.rsrp_dbm[i],
        mcs=link.mcs[i],
        bler=link.bler[i],
        n_ccs=link.n_ccs[i],
        capacity_dl_mbps=link.capacity_dl_mbps[i],
        capacity_ul_mbps=link.capacity_ul_mbps[i],
        rtt_ms=link.rtt_ms[i],
        tput_mbps=link.tput_mbps[i] if len(link.tput_mbps) else None,
        handovers=handovers,
        interruption_s=min(sum(h.duration_ms for h in handovers) / 1000.0, 0.5),
    )


def _tick(session, route, mark=500_000.0, traffic=TrafficProfile.BACKLOGGED_DL,
          direction=Direction.DOWNLINK, t=0.0, speed=65.0, flow=False):
    """One driving tick at ``mark``: a one-tick block through the kernel."""
    marks = np.array([mark])
    region, lat, lon, timezone = route.locate(marks)
    path = VehiclePath([t], marks, [speed], region, timezone, lat, lon)
    link = drive_block([session], path, traffic, direction, [CLOUD], 0.5, flow).phone(0)
    tick = _observation(session, link)
    tick.mark_m = mark
    return tick


def _static_tick(session, site, position, t, direction=Direction.DOWNLINK):
    link = session.park(site, position, [t], direction, CLOUD, 0.5).phone(0)
    tick = _observation(session, link)
    tick.speed_mph = 0.0
    return tick


class TestTick:
    def test_fields_populated(self, session):
        ue, route = session
        tick = _tick(ue, route)
        assert tick.capacity_dl_mbps > 0.0
        assert tick.capacity_ul_mbps > 0.0
        assert tick.rtt_ms > 0.0
        assert -135.0 <= tick.rsrp_dbm <= -45.0
        assert 0 <= tick.mcs <= 28
        assert 0.0 < tick.bler < 1.0
        assert tick.n_ccs >= 1

    def test_capacity_direction_accessor(self, session):
        # A test's flow runs over the capacity of the test's direction.
        ue, route = session
        for direction, traffic, capacity in (
            (Direction.DOWNLINK, TrafficProfile.BACKLOGGED_DL, "capacity_dl_mbps"),
            (Direction.UPLINK, TrafficProfile.BACKLOGGED_UL, "capacity_ul_mbps"),
        ):
            tick = _tick(ue, route, traffic=traffic, direction=direction, flow=True)
            assert 0.0 <= tick.tput_mbps <= getattr(tick, capacity)

    def test_uplink_below_downlink_typically(self, session):
        ue, route = session
        ratios = []
        for i in range(60):
            tick = _tick(ue, route, mark=400_000.0 + i * 200.0, t=i * 0.5)
            ratios.append(tick.capacity_ul_mbps / tick.capacity_dl_mbps)
        assert float(np.median(ratios)) < 1.0

    def test_serving_tech_matches_zone_policy(self, session):
        ue, route = session
        tick = _tick(ue, route, traffic=TrafficProfile.BACKLOGGED_DL)
        zone = ue.deployment.zone_at(tick.mark_m)
        assert tick.tech in zone.deployed

    def test_sticky_ca_within_zone(self, session):
        ue, route = session
        mark = 1_000_000.0
        zone = ue.deployment.zone_at(mark)
        first = _tick(ue, route, mark=zone.start_m + 10.0)
        second = _tick(ue, route, mark=min(zone.end_m - 10.0, zone.start_m + 50.0))
        if first.tech is second.tech:
            assert first.n_ccs == second.n_ccs

    def test_handover_on_zone_crossing(self, session):
        """Crossing a zone boundary hands over, on the tick that crosses,
        from the last zone's serving cell to the next zone's."""
        ue, route = session
        for mark in (1_000_000.0, 2_000_000.0, 3_000_000.0):
            ue.reset_serving()
            zone = ue.deployment.zone_at(mark)
            before = _tick(ue, route, mark=zone.end_m - 5.0, t=100.0)
            after = _tick(ue, route, mark=zone.end_m + 5.0, t=100.5)
            nxt = ue.deployment.zone_at(zone.end_m + 5.0)
            assert nxt.index == zone.index + 1
            left = zone.cells[before.tech].cell_id
            joined = nxt.cells[after.tech].cell_id
            # Attaching after a reset is no handover (nor a ping-pong).
            assert before.handovers == ()
            assert [(h.from_cell, h.to_cell) for h in after.handovers] == [(
                (left.technology, left.sequence),
                (joined.technology, joined.sequence),
            )]

    def test_interruption_bounded_by_tick(self, session):
        ue, route = session
        for i in range(100):
            tick = _tick(ue, route, mark=3_000_000.0 + i * 400.0, t=200.0 + i * 0.5)
            assert 0.0 <= tick.interruption_s <= 0.5


class TestAttMmwaveUplink:
    def test_ul_pathology_applies(self, route):
        """§5.2: AT&T's mmWave uplink is essentially broken while driving."""
        from repro.geo.regions import RegionType
        from repro.radio.deployment import TechMix

        mm_only: dict[RegionType, TechMix] = {
            r: {RadioTechnology.NR_MMWAVE: 1.0} for r in RegionType
        }
        deployment = DeploymentModel.build(
            Operator.ATT, route, np.random.default_rng(5), tech_mix=mm_only
        )
        ue = UESession(Operator.ATT, deployment, RngFactory(seed=5))
        uls, dls = [], []
        for i in range(200):
            tick = _tick(ue, route, mark=100_000.0 + i * 300.0,
                         traffic=TrafficProfile.BACKLOGGED_UL,
                         direction=Direction.UPLINK, t=i * 0.5)
            if tick.tech is RadioTechnology.NR_MMWAVE:
                uls.append(tick.capacity_ul_mbps)
                dls.append(tick.capacity_dl_mbps)
        assert uls
        # The broken-UL factor makes UL a tiny fraction of DL most ticks.
        assert float(np.median(np.asarray(uls) / np.asarray(dls))) < 0.02


class TestStaticSite:
    def test_static_site_found_in_cities(self, session):
        ue, route = session
        mark = route.city_mark_m("Los Angeles")
        site = ue.find_static_site(mark, city_span_m=8_000.0)
        if site is not None:
            assert site.tech.is_high_throughput
            assert 0.0 < site.load <= 1.0

    def test_static_tick_is_parked(self, session):
        ue, route = session
        mark = route.city_mark_m("Chicago")
        site = ue.find_static_site(mark, city_span_m=8_000.0)
        if site is None:
            pytest.skip("no high-speed 5G in this city for this seed")
        position = route.position_at(mark)
        tick = _static_tick(ue, site, position, 0.0)
        assert tick.speed_mph == 0.0
        assert tick.handovers == ()
        assert tick.tech is site.tech

    def test_static_capacity_exceeds_driving(self, session):
        ue, route = session
        mark = route.city_mark_m("Boston")
        site = ue.find_static_site(mark, city_span_m=8_000.0)
        if site is None:
            pytest.skip("no high-speed 5G in this city for this seed")
        position = route.position_at(mark)
        static_caps = [
            _static_tick(ue, site, position, i * 0.5).capacity_dl_mbps
            for i in range(40)
        ]
        driving_caps = [
            _tick(ue, route, mark=4_000_000.0 + i * 300.0, t=500.0 + i * 0.5).capacity_dl_mbps
            for i in range(40)
        ]
        assert np.median(static_caps) > np.median(driving_caps)


class TestPolicyOverride:
    def test_custom_profile_respected(self, route):
        """A never-demote profile keeps uplink on the best tech."""
        deployment = DeploymentModel.build(
            Operator.TMOBILE, route, np.random.default_rng(9)
        )
        base = DEFAULT_POLICY_PROFILES[Operator.TMOBILE]
        no_demotion = PolicyProfile(
            operator=Operator.TMOBILE,
            ul_demotion={
                tech: {tech: 1.0} for tech in RadioTechnology
            },
            idle_5g_upgrade_prob=base.idle_5g_upgrade_prob,
            idle_mmwave_city_prob=base.idle_mmwave_city_prob,
        )
        ue = UESession(
            Operator.TMOBILE, deployment, RngFactory(seed=9),
            policy_profile=no_demotion,
        )
        for i in range(100):
            tick = _tick(ue, route, mark=200_000.0 + i * 900.0,
                         traffic=TrafficProfile.BACKLOGGED_UL,
                         direction=Direction.UPLINK, t=i * 0.5)
            zone = ue.deployment.zone_at(tick.mark_m)
            assert tick.tech is zone.best_tech


class TestSessionAxis:
    def test_stacked_block_equals_single_sessions(self, route):
        """Every stream belongs to one session, so evaluating the three
        operators as one block gives each what it gets alone."""

        def sessions():
            rngs = RngFactory(seed=31)
            return [
                UESession(op, DeploymentModel.world(op, route, 31), rngs) for op in Operator
            ]

        marks = 1_500_000.0 + 13.0 * np.arange(120)
        region, lat, lon, timezone = route.locate(marks)
        path = VehiclePath(list(0.5 * np.arange(120)), marks, [58.0] * 120, region, timezone, lat, lon)
        args = (TrafficProfile.BACKLOGGED_DL, Direction.DOWNLINK)
        stacked = drive_block(sessions(), path, *args, [CLOUD] * 3, 0.5, True)
        for j, alone in enumerate(sessions()):
            single = drive_block([alone], path, *args, [CLOUD], 0.5, True).phone(0)
            for name, mine, theirs in zip(single._fields, stacked.phone(j), single):
                assert np.array_equal(mine, theirs), name
        assert stacked.tech.shape == stacked.tput_mbps.shape == (3, 120)
