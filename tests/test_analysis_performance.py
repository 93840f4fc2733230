"""§5.1-5.4 performance analyses (Figs. 3-6)."""

import numpy as np
import pytest

from repro.analysis import geodiversity, opdiversity, performance
from repro.analysis.opdiversity import OPERATOR_PAIRS, TECH_BINS
from repro.geo.timezones import Timezone
from repro.net.servers import ServerKind
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology


class TestStaticVsDriving:
    def test_driving_throughput_collapses(self, dataset):
        """Fig. 3: driving medians are a few percent of static medians."""
        for op in Operator:
            r = performance.static_vs_driving(dataset, op)
            assert r.driving_dl.median < r.static_dl.median * 0.25
            assert r.driving_ul.median < r.static_ul.median * 0.5

    def test_driving_rtt_inflates(self, dataset):
        for op in Operator:
            r = performance.static_vs_driving(dataset, op)
            assert r.driving_rtt.median > r.static_rtt.median

    def test_verizon_static_dl_band(self, dataset):
        """Fig. 3a: Verizon's static DL median ≈1.5 Gbps."""
        r = performance.static_vs_driving(dataset, Operator.VERIZON)
        assert 800.0 < r.static_dl.median < 2500.0

    def test_static_ul_order_of_magnitude_below_dl(self, dataset):
        for op in Operator:
            r = performance.static_vs_driving(dataset, op)
            assert r.static_ul.median < r.static_dl.median / 3.0

    def test_significant_sub_5mbps_fraction_driving(self, dataset):
        """§5.1: a large fraction of driving samples sit below 5 Mbps."""
        fractions = [
            performance.static_vs_driving(dataset, op).driving_dl.prob_below(5.0)
            for op in Operator
        ]
        assert max(fractions) > 0.2

    def test_driving_rtt_heavy_tail(self, dataset):
        r = performance.static_vs_driving(dataset, Operator.TMOBILE)
        assert r.driving_rtt.maximum > 300.0


class TestPerTechnology:
    def test_5g_beats_4g_downlink(self, dataset):
        """Fig. 4: 5G achieves higher throughput than 4G overall."""
        cdfs = performance.per_technology_throughput(dataset, Operator.TMOBILE, "downlink")
        if RadioTechnology.NR_MID in cdfs and RadioTechnology.LTE in cdfs:
            assert cdfs[RadioTechnology.NR_MID].quantile(0.9) > cdfs[RadioTechnology.LTE].quantile(0.9)

    def test_every_tech_has_low_samples(self, dataset):
        """Fig. 4: every technology's CDF has a deep low-throughput tail."""
        cdfs = performance.per_technology_throughput(dataset, Operator.TMOBILE, "downlink")
        for cdf in cdfs.values():
            assert cdf.prob_below(10.0) > 0.05

    def test_rtt_mid_beats_low_and_4g(self, dataset):
        """Fig. 4: 5G midband RTT < 5G-low and 4G RTTs."""
        cdfs = performance.per_technology_rtt(dataset, Operator.TMOBILE)
        if RadioTechnology.NR_MID in cdfs and RadioTechnology.LTE in cdfs:
            assert cdfs[RadioTechnology.NR_MID].median < cdfs[RadioTechnology.LTE].median

    @pytest.mark.parametrize("direction", ["downlink", "uplink"])
    def test_edge_vs_cloud_throughput_is_per_kind_throughput(
        self, dataset, direction
    ):
        """Fig. 4 (Verizon): each server kind's panel is that kind's
        per-technology throughput."""
        by_kind = performance.edge_vs_cloud_throughput(dataset, direction)
        assert set(by_kind) == set(ServerKind)  # both kinds have samples here
        for kind in ServerKind:
            expected = performance.per_technology_throughput(
                dataset, Operator.VERIZON, direction, server_kind=kind
            )
            assert list(by_kind[kind]) == list(expected)
            for tech, cdf in expected.items():
                assert np.array_equal(
                    by_kind[kind][tech].sorted_values, cdf.sorted_values
                )

    def test_edge_vs_cloud_rtt_gap(self, dataset):
        """§5.2: the Wavelength edge brings a significant RTT improvement."""
        by_kind = performance.edge_vs_cloud_rtt(dataset)
        if ServerKind.EDGE in by_kind and ServerKind.CLOUD in by_kind:
            shared = set(by_kind[ServerKind.EDGE]) & set(by_kind[ServerKind.CLOUD])
            assert shared
            tech = next(iter(shared))
            assert (
                by_kind[ServerKind.EDGE][tech].median
                < by_kind[ServerKind.CLOUD][tech].median
            )


class TestGeoDiversity:
    def test_all_zones_have_cdfs(self, dataset):
        by_tz = geodiversity.throughput_by_timezone(dataset, Operator.TMOBILE, "downlink")
        assert set(by_tz) == set(Timezone)

    def test_medians_vary_across_zones(self, dataset):
        by_tz = geodiversity.throughput_by_timezone(dataset, Operator.ATT, "downlink")
        medians = [cdf.median for cdf in by_tz.values()]
        assert max(medians) > min(medians) * 1.2


class TestOperatorDiversity:
    def test_differences_have_both_signs(self, dataset):
        """Fig. 6a: either operator can win at a given location."""
        for first, second in OPERATOR_PAIRS:
            pd = opdiversity.paired_throughput_differences(dataset, first, second, "downlink")
            wins = pd.first_wins_fraction()
            assert 0.05 < wins < 0.95

    def test_bins_partition(self, dataset):
        pd = opdiversity.paired_throughput_differences(
            dataset, Operator.VERIZON, Operator.TMOBILE, "downlink"
        )
        fractions = pd.bin_fractions()
        assert set(fractions) == set(TECH_BINS)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_lt_lt_dominates_uplink(self, dataset):
        """§5.4: most uplink samples fall in the LT-LT bin."""
        pd = opdiversity.paired_throughput_differences(
            dataset, Operator.ATT, Operator.VERIZON, "uplink"
        )
        assert pd.bin_fractions()["LT-LT"] > 0.5

    def test_concurrency_produced_pairs(self, dataset):
        pd = opdiversity.paired_throughput_differences(
            dataset, Operator.VERIZON, Operator.TMOBILE, "downlink"
        )
        # Concurrent testing means (almost) every sample pairs up.
        n_samples = len(dataset.tput_values(
            operator=Operator.VERIZON, direction="downlink", static=False
        ))
        assert len(pd.differences) > n_samples * 0.9

    def test_multi_operator_gain(self, dataset):
        """Recommendation #2: aggregating operators helps everyone."""
        gains = opdiversity.multi_operator_gain(dataset, "downlink")
        assert set(gains) == set(Operator)
        for gain in gains.values():
            assert gain >= 1.0
        assert max(gains.values()) > 1.3
