"""Policy inference: recovering operator behaviour from the dataset."""

import pytest

from repro.geo.timezones import Timezone
from repro.policy.inference import (
    estimate_idle_upgrade_rates,
    estimate_ul_demotion_rate,
)
from repro.radio.operators import Operator


class TestIdleUpgradeInference:
    def test_att_never_upgrades(self, dataset):
        """Fig. 1d's policy recovered: AT&T's idle-upgrade rate ≈ 0."""
        est = estimate_idle_upgrade_rates(dataset, Operator.ATT)
        assert est.overall_rate < 0.1

    def test_tmobile_east_west_split_recovered(self, seed_catalog):
        """The regional policy (§4.1) is visible in the estimates, pooled
        over the seed catalog's campaigns."""
        est = estimate_idle_upgrade_rates(seed_catalog, Operator.TMOBILE)
        east = [
            est.rate_by_timezone[tz]
            for tz in (Timezone.CENTRAL, Timezone.EASTERN)
            if est.support_by_timezone[tz] >= 5
        ]
        west = [
            est.rate_by_timezone[tz]
            for tz in (Timezone.PACIFIC, Timezone.MOUNTAIN)
            if est.support_by_timezone[tz] >= 5
        ]
        if east and west:
            assert min(east) > max(west)

    def test_rates_are_probabilities(self, dataset):
        for op in Operator:
            est = estimate_idle_upgrade_rates(dataset, op)
            for rate in est.rate_by_timezone.values():
                assert 0.0 <= rate <= 1.0

    def test_support_recorded(self, dataset):
        est = estimate_idle_upgrade_rates(dataset, Operator.VERIZON)
        assert sum(est.support_by_timezone.values()) > 0


class TestUlDemotionInference:
    def test_rates_are_probabilities(self, dataset):
        for op in (Operator.VERIZON, Operator.TMOBILE):
            rate = estimate_ul_demotion_rate(dataset, op)
            assert 0.0 <= rate <= 1.0

    def test_demotion_exists_for_tmobile(self, dataset):
        """T-Mobile's midband UL demotion (Fig. 2b) is recoverable —
        a substantial share of HS-5G downlink locations serve the uplink
        with something slower."""
        rate = estimate_ul_demotion_rate(dataset, Operator.TMOBILE)
        assert rate > 0.15
