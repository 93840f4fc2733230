"""Dataset containers, row filters against the query kernels, and Table 1
statistics.

``DriveDataset`` has no record filters: analyses select rows with the query
kernels.  The filters live on as the row oracle (:mod:`tests.row_oracle`),
and each test below checks a kernel selection against them.
"""

import pytest

from repro.campaign.tests import TestType
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.store.query import Eq, In, count, group_rows, select
from tests import row_oracle


class TestFilters:
    def test_operator_filter(self, dataset):
        samples = row_oracle.tput(dataset, operator=Operator.VERIZON)
        assert samples
        assert all(s.operator is Operator.VERIZON for s in samples)
        assert count(dataset, "tput", (Eq("operator", Operator.VERIZON),)) == len(samples)

    def test_direction_filter(self, dataset):
        ul = row_oracle.tput(dataset, direction="uplink")
        assert ul
        assert all(s.direction == "uplink" for s in ul)
        assert list(select(dataset, "tput", "direction", (Eq("direction", "uplink"),))) == [
            s.direction for s in ul
        ]

    def test_static_filter_partitions(self, dataset):
        total = len(dataset.throughput_samples)
        static = count(dataset, "tput", (Eq("static", True),))
        driving = count(dataset, "tput", (Eq("static", False),))
        assert static + driving == total
        assert static > 0 and driving > 0
        assert static == len(row_oracle.tput(dataset, static=True))

    def test_tech_filter(self, dataset):
        lte = row_oracle.tput(dataset, techs=[RadioTechnology.LTE])
        assert all(s.tech is RadioTechnology.LTE for s in lte)
        techs = select(dataset, "tput", "tech", (In("tech", (RadioTechnology.LTE,)),))
        assert list(techs) == [s.tech for s in lte]

    def test_values_match_filter(self, dataset):
        samples = row_oracle.tput(dataset, operator=Operator.ATT, direction="downlink")
        values = dataset.tput_values(operator=Operator.ATT, direction="downlink")
        assert values.tolist() == [s.tput_mbps for s in samples]

    def test_rtt_filters(self, dataset):
        rtts = row_oracle.rtts(dataset, operator=Operator.TMOBILE, static=False)
        assert rtts
        assert all(r.operator is Operator.TMOBILE and not r.static for r in rtts)
        values = dataset.rtt_values(operator=Operator.TMOBILE, static=False)
        assert values.tolist() == [r.rtt_ms for r in rtts]

    def test_tests_of(self, dataset):
        dl = row_oracle.tests_of(
            dataset, test_type=TestType.DOWNLINK_THROUGHPUT, static=False
        )
        assert dl
        assert all(t.test_type is TestType.DOWNLINK_THROUGHPUT for t in dl)
        where = (Eq("test_type", TestType.DOWNLINK_THROUGHPUT), Eq("static", False))
        assert select(dataset, "test", "test_id", where).tolist() == [
            t.test_id for t in dl
        ]

    def test_handovers_of(self, dataset):
        hos = row_oracle.handovers_of(
            dataset, operator=Operator.VERIZON, direction="downlink"
        )
        assert all(
            h.event.operator is Operator.VERIZON and h.direction == "downlink"
            for h in hos
        )
        where = (Eq("operator", Operator.VERIZON), Eq("direction", "downlink"))
        assert list(select(dataset, "ho", "from_cell", where)) == [
            h.event.from_cell for h in hos
        ]

    def test_samples_by_test_time_ordered(self, dataset):
        grouped = row_oracle.samples_by_test(dataset)
        assert grouped
        some = next(iter(grouped.values()))
        times = [s.time_s for s in some]
        assert times == sorted(times)
        # The kernels' grouping: the same groups, in the same order.
        by_id = group_rows(select(dataset, "tput", "test_id"))
        assert list(by_id) == list(grouped)
        time_s = select(dataset, "tput", "time_s")
        assert all(
            time_s[rows].tolist() == [s.time_s for s in grouped[test_id]]
            for test_id, rows in by_id.items()
        )


class TestSummary:
    def test_distance_matches_route(self, dataset):
        assert dataset.summary().total_distance_km == pytest.approx(5712.0, abs=5.0)

    def test_passive_handover_counts_match_table1(self, dataset):
        """Table 1: 2657 (V) / 4119 (T) / 2494 (A) over the whole trip."""
        expected = {Operator.VERIZON: 2657, Operator.TMOBILE: 4119, Operator.ATT: 2494}
        for op, target in expected.items():
            assert target * 0.7 < dataset.passive_handover_counts[op] < target * 1.3

    def test_tmobile_most_handovers(self, dataset):
        s = dataset.summary()
        assert s.handovers[Operator.TMOBILE] > s.handovers[Operator.VERIZON]
        assert s.handovers[Operator.TMOBILE] > s.handovers[Operator.ATT]

    def test_unique_cells_in_thousands(self, dataset):
        for op in Operator:
            assert dataset.connected_cells[op] > 1000

    def test_rx_dwarfs_tx(self, dataset):
        """Table 1: 777 GB received vs 83 GB transmitted (~9:1)."""
        s = dataset.summary()
        assert s.total_rx_gb > s.total_tx_gb * 2.5

    def test_runtime_positive_for_all(self, dataset):
        s = dataset.summary()
        for op in Operator:
            assert s.runtime_min[op] > 0.0

    def test_all_test_types_ran(self, dataset):
        s = dataset.summary()
        assert set(s.test_counts) == set(TestType)

    def test_data_volume_consistency(self, dataset):
        rx, tx = dataset.data_volume_bytes()
        assert rx > 0 and tx > 0
