"""§5.5 KPI correlation analysis (Table 2, Figs. 7-8)."""

import pytest

from repro.analysis import correlation
from repro.analysis.correlation import KPI_NAMES
from repro.radio.operators import Operator
from repro.units import SPEED_BIN_LABELS


class TestTable2:
    def test_six_rows(self, dataset):
        rows = correlation.correlation_table(dataset)
        assert len(rows) == 6
        assert {(r.operator, r.direction) for r in rows} == {
            (op, d) for op in Operator for d in ("downlink", "uplink")
        }

    def test_all_kpis_present(self, dataset):
        for row in correlation.correlation_table(dataset):
            assert set(row.coefficients) == set(KPI_NAMES)

    def test_coefficients_in_range(self, dataset):
        for row in correlation.correlation_table(dataset):
            for r in row.coefficients.values():
                assert -1.0 <= r <= 1.0

    def test_no_kpi_strongly_correlates(self, dataset):
        """Table 2's headline: no KPI exceeds |r| ≈ 0.65."""
        for row in correlation.correlation_table(dataset):
            for name, r in row.coefficients.items():
                assert abs(r) < 0.75, (row.operator, row.direction, name, r)

    def test_handover_correlation_negligible(self, dataset):
        """Table 2: HO column is ≈0 for every operator/direction."""
        for row in correlation.correlation_table(dataset):
            assert abs(row.coefficients["HO"]) < 0.2

    def test_speed_correlation_weak_negative(self, seed_catalog):
        """Table 2: speed column is −0.10..−0.37 (weak negative).

        Pooled over the seed catalog's campaigns: at test scale the
        per-row estimates are still noisy, so we require the majority to
        be non-positive-ish and none to be strongly positive.
        """
        rows = correlation.correlation_table(seed_catalog)
        non_positive = sum(1 for r in rows if r.coefficients["Speed"] < 0.1)
        assert non_positive >= 3
        assert all(r.coefficients["Speed"] < 0.3 for r in rows)

    def test_mcs_positively_correlates(self, dataset):
        for row in correlation.correlation_table(dataset):
            assert row.coefficients["MCS"] > 0.0

    def test_sample_counts_recorded(self, dataset):
        for row in correlation.correlation_table(dataset):
            assert row.sample_count >= 10


class TestScatters:
    def test_throughput_scatter_shape(self, dataset):
        points = correlation.throughput_speed_scatter(dataset, Operator.VERIZON, "downlink")
        assert points
        speeds, tputs, techs, bins = zip(*points)
        assert all(b in SPEED_BIN_LABELS for b in bins)
        assert min(speeds) >= 0.0
        assert min(tputs) >= 0.0

    def test_rtt_scatter_shape(self, dataset):
        points = correlation.rtt_speed_scatter(dataset, Operator.ATT)
        assert points
        assert all(p[1] > 0 for p in points)

    def test_all_speed_bins_observed(self, dataset):
        points = correlation.throughput_speed_scatter(dataset, Operator.TMOBILE, "downlink")
        bins = {p[3] for p in points}
        assert bins == set(SPEED_BIN_LABELS)
