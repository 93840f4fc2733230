"""§4 coverage analysis (Figs. 1-2)."""

import pytest

from repro.analysis import coverage
from repro.errors import AnalysisError
from repro.geo.timezones import Timezone
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.units import SPEED_BIN_LABELS


class TestActiveCoverage:
    def test_shares_sum_to_one(self, dataset):
        for op in Operator:
            shares = coverage.active_coverage_shares(dataset, op)
            assert sum(shares.shares.values()) == pytest.approx(1.0)

    def test_tmobile_has_highest_5g_share(self, dataset):
        """Fig. 2a: T-Mobile ~68% 5G, V/A ~18-22%."""
        shares = {
            op: coverage.active_coverage_shares(dataset, op).share_5g for op in Operator
        }
        assert shares[Operator.TMOBILE] > shares[Operator.VERIZON]
        assert shares[Operator.TMOBILE] > shares[Operator.ATT]
        assert 0.5 < shares[Operator.TMOBILE] < 0.85

    def test_att_high_speed_5g_tiny(self, dataset):
        """Fig. 2a: AT&T's high-speed 5G ≈3% of miles."""
        shares = coverage.active_coverage_shares(dataset, Operator.ATT)
        assert shares.share_high_speed_5g < 0.10

    def test_downlink_more_high_speed_5g_than_uplink(self, seed_catalog):
        """Fig. 2b: HS-5G coverage is higher for downlink than uplink.

        Aggregated over operators and pooled over the seed catalog's
        campaigns — per-operator slices of one small campaign are noisy
        because DL and UL tests sample different (adjacent) zones.
        """
        dl_weight, ul_weight = 0.0, 0.0
        for op in Operator:
            by_dir = coverage.coverage_by_direction(seed_catalog, op)
            dl_weight += by_dir["downlink"].share_high_speed_5g
            ul_weight += by_dir["uplink"].share_high_speed_5g
        assert dl_weight > ul_weight

    def test_timezone_breakdown_covers_all_zones(self, dataset):
        by_tz = coverage.coverage_by_timezone(dataset, Operator.TMOBILE)
        assert set(by_tz) == set(Timezone)

    def test_att_weak_in_mountain_central(self, dataset):
        """Fig. 2c: AT&T's 5G collapses in the Mountain/Central zones."""
        by_tz = coverage.coverage_by_timezone(dataset, Operator.ATT)
        west_east = (by_tz[Timezone.PACIFIC].share_5g + by_tz[Timezone.EASTERN].share_5g) / 2
        middle = (by_tz[Timezone.MOUNTAIN].share_5g + by_tz[Timezone.CENTRAL].share_5g) / 2
        assert middle < west_east

    def test_speed_bins_present(self, dataset):
        by_bin = coverage.coverage_by_speed_bin(dataset, Operator.VERIZON)
        assert set(by_bin) == set(SPEED_BIN_LABELS)

    def test_high_speed_5g_drops_with_speed(self, dataset):
        """Fig. 2d: HS-5G coverage shrinks from cities to highways
        (aggregated over V and A, whose mmWave is city-bound)."""
        low, high = 0.0, 0.0
        for op in (Operator.VERIZON, Operator.ATT):
            by_bin = coverage.coverage_by_speed_bin(dataset, op)
            low += by_bin["0-20 mph"].share_high_speed_5g
            high += by_bin["60+ mph"].share_high_speed_5g
        assert low > high

    def test_verizon_city_high_speed_share(self, seed_catalog):
        """Fig. 2d: Verizon's low-speed (city) HS-5G is substantial
        (paper ≈43%; wide bounds — few city zones at test scale, so the
        seed catalog's campaigns are pooled)."""
        by_bin = coverage.coverage_by_speed_bin(seed_catalog, Operator.VERIZON)
        assert 0.1 < by_bin["0-20 mph"].share_high_speed_5g <= 1.0


class TestPassiveCoverage:
    def test_att_passive_is_pure_4g(self, dataset):
        """Fig. 1d: the AT&T handover-logger saw only LTE/LTE-A."""
        shares = coverage.passive_coverage_shares(dataset, Operator.ATT)
        assert shares.share_5g < 0.02

    def test_passive_pessimistic_vs_active(self, dataset):
        """Fig. 1 headline: passive logging underestimates 5G coverage."""
        for op in Operator:
            passive = coverage.passive_coverage_shares(dataset, op).share_5g
            active = coverage.active_coverage_shares(dataset, op).share_5g
            assert passive < active

    def test_tmobile_passive_agrees_in_east_only(self, dataset):
        """Fig. 1c/1f: views agree in the east half, diverge in the west."""
        east_5g, west_5g = 0.0, 0.0
        east_len, west_len = 0.0, 0.0
        for seg in dataset.passive_coverage:
            if seg.operator is not Operator.TMOBILE:
                continue
            if seg.timezone in (Timezone.CENTRAL, Timezone.EASTERN):
                east_len += seg.length_m
                east_5g += seg.length_m if seg.tech.is_5g else 0.0
            else:
                west_len += seg.length_m
                west_5g += seg.length_m if seg.tech.is_5g else 0.0
        assert east_5g / east_len > west_5g / west_len + 0.2


class TestRouteStrip:
    def test_strip_covers_route(self, dataset):
        strip = coverage.route_technology_strip(dataset, Operator.VERIZON, "passive")
        assert len(strip) > 500  # 5712 km at 10 km bins
        assert strip[0][0] == 0.0

    def test_active_strip_has_gaps_at_small_scale(self, dataset):
        strip = coverage.route_technology_strip(dataset, Operator.VERIZON, "active")
        techs = [t for _, t in strip]
        assert any(t is None for t in techs)  # untested stretches
        assert any(t is not None for t in techs)

    def test_unknown_view_rejected(self, dataset):
        with pytest.raises(AnalysisError):
            coverage.route_technology_strip(dataset, Operator.VERIZON, "psychic")
