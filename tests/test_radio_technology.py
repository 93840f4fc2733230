"""Technology taxonomy (HT/LT classes, band properties)."""

import pytest

from repro.radio.technology import (
    ALL_TECHNOLOGIES,
    HIGH_THROUGHPUT_TECHS,
    LOW_THROUGHPUT_TECHS,
    RadioTechnology,
)


class TestTaxonomy:
    def test_five_technologies(self):
        assert len(ALL_TECHNOLOGIES) == 5

    def test_ht_lt_partition(self):
        # §5.4: HT = {mmWave, midband}, LT = {LTE, LTE-A, 5G-low}.
        assert HIGH_THROUGHPUT_TECHS | LOW_THROUGHPUT_TECHS == set(ALL_TECHNOLOGIES)
        assert not HIGH_THROUGHPUT_TECHS & LOW_THROUGHPUT_TECHS
        assert RadioTechnology.NR_MMWAVE in HIGH_THROUGHPUT_TECHS
        assert RadioTechnology.NR_MID in HIGH_THROUGHPUT_TECHS
        assert RadioTechnology.NR_LOW in LOW_THROUGHPUT_TECHS

    def test_5g_flags(self):
        assert RadioTechnology.NR_LOW.is_5g
        assert RadioTechnology.NR_MMWAVE.is_5g
        assert not RadioTechnology.LTE.is_5g
        assert RadioTechnology.LTE_A.is_4g

    def test_ranks_strictly_increase(self):
        ranks = [t.rank for t in ALL_TECHNOLOGIES]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)

    def test_mmwave_carrier_is_high_band(self):
        assert RadioTechnology.NR_MMWAVE.carrier_ghz > 24.0
        assert RadioTechnology.NR_LOW.carrier_ghz < 1.0

    def test_channel_bandwidth_ordering(self):
        assert (
            RadioTechnology.NR_MMWAVE.channel_mhz
            > RadioTechnology.NR_MID.channel_mhz
            > RadioTechnology.LTE.channel_mhz
        )

    def test_ran_latency_ordering(self):
        # mmWave's short slots give the lowest air latency (Fig. 4's RTTs).
        assert (
            RadioTechnology.NR_MMWAVE.ran_latency_ms
            < RadioTechnology.NR_MID.ran_latency_ms
            < RadioTechnology.LTE.ran_latency_ms
        )

    def test_labels_match_paper(self):
        assert str(RadioTechnology.NR_MMWAVE) == "5G-mmWave"
        assert str(RadioTechnology.LTE_A) == "LTE-A"
        assert str(RadioTechnology.NR_LOW) == "5G-low"


class TestPlainMembers:
    """Per-technology constants are plain member attributes and the hot
    enums hash by identity; names and values are unchanged."""

    def test_flags_agree_with_the_classes(self):
        for tech in ALL_TECHNOLOGIES:
            assert tech.is_high_throughput == (tech in HIGH_THROUGHPUT_TECHS)
            assert tech.is_4g == (not tech.is_5g)
            assert tech.is_5g == tech.name.startswith("NR_")
            assert "is_5g" in vars(tech) and "carrier_ghz" in vars(tech)

    def test_name_and_value_unchanged(self):
        assert RadioTechnology.NR_MID.name == "NR_MID"
        assert RadioTechnology.NR_MID.value == ("5G-mid", 3)
        assert RadioTechnology["LTE_A"] is RadioTechnology(("LTE-A", 1))

    def test_hot_enums_hash_by_identity(self):
        from repro.campaign.tests import TestType
        from repro.geo.regions import RegionType
        from repro.geo.timezones import Timezone
        from repro.mobility.events import HandoverType
        from repro.net.servers import ServerKind
        from repro.policy.profiles import TrafficProfile
        from repro.radio.operators import Operator

        for enum_cls in (RadioTechnology, Operator, RegionType, Timezone,
                         TrafficProfile, ServerKind, HandoverType, TestType):
            for member in enum_cls:
                assert hash(member) == object.__hash__(member)
                assert {member: 1}[member] == 1
