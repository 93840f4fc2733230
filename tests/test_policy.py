"""Operator technology-selection policies (the Fig. 1 / Fig. 2b mechanics)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.geo.regions import RegionType
from repro.geo.timezones import Timezone
from repro.policy.profiles import DEFAULT_POLICY_PROFILES, TrafficProfile
from repro.policy import selection
from repro.policy.selection import TechnologySelector
from repro.radio.deployment import DEPLOYED_SETS, DeploymentModel
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology
from tests import row_oracle


@pytest.fixture(scope="module")
def att_deployment(route):
    return DeploymentModel.build(Operator.ATT, route, np.random.default_rng(11))


@pytest.fixture(scope="module")
def tmobile_deployment(route):
    return DeploymentModel.build(Operator.TMOBILE, route, np.random.default_rng(12))


class TestProfiles:
    def test_demotion_rules_are_distributions(self):
        for profile in DEFAULT_POLICY_PROFILES.values():
            for rule in profile.ul_demotion.values():
                assert sum(rule.values()) == pytest.approx(1.0)

    def test_att_never_upgrades_idle(self):
        profile = DEFAULT_POLICY_PROFILES[Operator.ATT]
        assert all(p == 0.0 for p in profile.idle_5g_upgrade_prob.values())

    def test_tmobile_east_west_split(self):
        profile = DEFAULT_POLICY_PROFILES[Operator.TMOBILE]
        assert (
            profile.idle_5g_upgrade_prob[Timezone.CENTRAL]
            > profile.idle_5g_upgrade_prob[Timezone.PACIFIC]
        )


class TestSelection:
    def test_backlogged_dl_mostly_best_tech(self, att_deployment, rng):
        selector = TechnologySelector(Operator.ATT, rng)
        hits = 0
        zones = att_deployment.zones[:300]
        for zone in zones:
            if selector.select(zone, TrafficProfile.BACKLOGGED_DL) is zone.best_tech:
                hits += 1
        assert hits / len(zones) > 0.9

    def test_sticky_per_zone(self, att_deployment, rng):
        selector = TechnologySelector(Operator.ATT, rng)
        zone = att_deployment.zones[5]
        first = selector.select(zone, TrafficProfile.BACKLOGGED_UL)
        for _ in range(10):
            assert selector.select(zone, TrafficProfile.BACKLOGGED_UL) is first

    def test_selected_tech_always_deployed(self, tmobile_deployment, rng):
        selector = TechnologySelector(Operator.TMOBILE, rng)
        for zone in tmobile_deployment.zones[:300]:
            for traffic in TrafficProfile:
                assert selector.select(zone, traffic) in zone.deployed

    def test_att_idle_is_always_4g_outside_cities(self, att_deployment, rng):
        """Fig. 1d: the AT&T handover-logger saw only LTE/LTE-A."""
        selector = TechnologySelector(Operator.ATT, rng)
        for zone in att_deployment.zones[:500]:
            if zone.region is RegionType.CITY:
                continue
            assert selector.select(zone, TrafficProfile.IDLE_PING).is_4g

    def test_uplink_shows_less_high_speed_5g(self, tmobile_deployment, rng):
        """Fig. 2b: HS-5G coverage is higher for downlink than uplink."""
        selector = TechnologySelector(Operator.TMOBILE, rng)
        zones = [z for z in tmobile_deployment.zones if z.best_tech.is_high_throughput]
        dl_hs = sum(
            selector.select(z, TrafficProfile.BACKLOGGED_DL).is_high_throughput
            for z in zones
        )
        ul_hs = sum(
            selector.select(z, TrafficProfile.BACKLOGGED_UL).is_high_throughput
            for z in zones
        )
        assert dl_hs > ul_hs

    def test_tmobile_idle_upgrades_more_in_east(self, tmobile_deployment, rng):
        """Fig. 1c/1f: passive and active views agree in the east half."""
        selector = TechnologySelector(Operator.TMOBILE, rng)
        east, west = [], []
        for zone in tmobile_deployment.zones:
            if not zone.best_tech.is_5g:
                continue
            is_5g = selector.select(zone, TrafficProfile.IDLE_PING).is_5g
            if zone.timezone in (Timezone.CENTRAL, Timezone.EASTERN):
                east.append(is_5g)
            else:
                west.append(is_5g)
        assert np.mean(east) > np.mean(west) + 0.3

    def test_profile_operator_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            TechnologySelector(
                Operator.VERIZON, rng, profile=DEFAULT_POLICY_PROFILES[Operator.ATT]
            )


class TestIdleTables:
    """The cascade tables by deployed-set bitmask equal the per-zone walks
    they replaced (:mod:`tests.row_oracle`), for every set and rank."""

    @pytest.mark.parametrize("mask", range(len(DEPLOYED_SETS)))
    def test_tables_match_the_set_walks(self, mask):
        zone = SimpleNamespace(deployed=DEPLOYED_SETS[mask])
        best_4g = row_oracle.best_deployed_4g(zone)
        assert selection._BEST_4G[mask] == best_4g.rank
        assert selection._best_deployed_4g(zone) is best_4g
        for target in ALL_TECHNOLOGIES:
            expected = row_oracle.cascade_down(zone, target)
            assert selection._CASCADE[mask, target.rank] == expected.rank
            assert selection._cascade_down(zone, target) is expected
