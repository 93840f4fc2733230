"""Query engine: parity with the row path, pushdown, analysis bridges."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.coverage import active_coverage_shares, passive_coverage_shares
from repro.analysis.performance import static_vs_driving
from repro.errors import StoreError
from repro.radio.operators import Operator
from repro.store import (
    Between,
    DatasetReader,
    Eq,
    In,
    QueryStats,
    query,
    where_speed_bin,
    write_dataset,
)
from repro.units import SPEED_BIN_LABELS, speed_bin
from tests import row_oracle
from tests.conftest import RCOL_CORRUPTIONS
from tests.test_store_properties import _random_dataset


@pytest.fixture(scope="module")
def reader(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("query") / "full.rcol"
    write_dataset(dataset, path)
    with DatasetReader(path) as r:
        yield r


class TestKernelParity:
    """Every kernel agrees with the straight row-object computation."""

    def test_select_matches_row_filter(self, dataset, reader):
        for op in Operator:
            row = row_oracle.tput_values(
                dataset, operator=op, direction="downlink", static=False
            )
            col = query.select(
                reader, "tput", "tput_mbps",
                where=(
                    Eq("operator", op),
                    Eq("direction", "downlink"),
                    Eq("static", False),
                ),
            )
            assert np.array_equal(np.sort(row), np.sort(col))

    def test_count_and_total(self, dataset, reader):
        where = (Eq("operator", Operator.VERIZON), Eq("static", False))
        rows = [
            s for s in dataset.throughput_samples
            if s.operator is Operator.VERIZON and not s.static
        ]
        assert query.count(reader, "tput", where) == len(rows)
        assert query.total(reader, "tput", "tput_mbps", where) == pytest.approx(
            sum(s.tput_mbps for s in rows)
        )
        assert query.mean(reader, "tput", "tput_mbps", where) == pytest.approx(
            sum(s.tput_mbps for s in rows) / len(rows)
        )

    def test_percentile_matches_numpy(self, dataset, reader):
        values = row_oracle.rtt_values(dataset, static=False)
        got = query.percentile(
            reader, "rtt", "rtt_ms", 0.95, where=(Eq("static", False),)
        )
        assert got == pytest.approx(float(np.quantile(values, 0.95)))

    def test_speed_bin_predicate_matches_row_binning(self, dataset, reader):
        for label in SPEED_BIN_LABELS:
            row = sum(
                1 for s in dataset.throughput_samples
                if not s.static and speed_bin(s.speed_mph) == label
            )
            col = query.count(
                reader, "tput",
                (Eq("static", False), where_speed_bin(label)),
            )
            assert col == row, label

    def test_in_predicate(self, dataset, reader):
        ops = (Operator.VERIZON, Operator.TMOBILE)
        row = sum(1 for s in dataset.rtt_samples if s.operator in ops)
        assert query.count(reader, "rtt", (In("operator", ops),)) == row

    def test_between_on_route_km_range(self, dataset, reader):
        lo_m, hi_m = 1_000_000.0, 3_000_000.0
        row = sum(
            1 for s in dataset.throughput_samples if lo_m <= s.mark_m <= hi_m
        )
        got = query.count(
            reader, "tput", (Between("mark_m", lo=lo_m, hi=hi_m),)
        )
        assert got == row

    def test_group_total_matches_row_sums(self, dataset, reader):
        sums = query.group_total(
            reader, "passive", "tech", "length_m",
            where=(Eq("operator", Operator.ATT),),
        )
        for tech, got in sums.items():
            want = sum(
                seg.length_m for seg in dataset.passive_coverage
                if seg.operator is Operator.ATT and seg.tech.name == tech
            )
            assert got == pytest.approx(want)

    def test_unknown_column_raises(self, reader):
        with pytest.raises(StoreError, match="no column"):
            query.count(reader, "tput", (Eq("nope", 1),))


class TestPushdown:
    def test_stats_short_circuit_all_and_none(self, reader):
        # static spans {False, True} per-value but a predicate on an
        # impossible numeric range must answer from the footer stats alone.
        qstats = QueryStats()
        n = query.count(
            reader, "tput", (Between("tput_mbps", lo=1e9),), qstats=qstats
        )
        assert n == 0
        assert qstats.columns_decoded == 0
        assert qstats.predicates_short_circuited >= 1

    def test_dict_value_absent_short_circuits(self, reader):
        qstats = QueryStats()
        n = query.count(
            reader, "tput", (Eq("direction", "sideways"),), qstats=qstats
        )
        assert n == 0
        assert qstats.columns_decoded == 0

    def test_cdf_kernel_feeds_empirical_cdf(self, dataset, reader):
        curve = query.cdf(
            reader, "tput", "tput_mbps",
            where=(Eq("direction", "downlink"), Eq("static", False)),
        )
        values = row_oracle.tput_values(
            dataset, direction="downlink", static=False
        )
        assert curve.n == len(values)
        assert curve.median == pytest.approx(float(np.median(values)))


class TestDictColumns:
    """Dictionary columns are read through their checked codes."""

    def test_dict_value_column_cannot_be_summed(self, reader):
        with pytest.raises(StoreError, match="dict column 'operator'"):
            query.group_total(reader, "passive", "tech", "operator")

    @pytest.fixture()
    def corrupt(self, tmp_path):
        """A store file whose first throughput operator code has no
        dictionary value (every other table is empty, so the corruption
        lands in the throughput table)."""
        ds = _random_dataset(
            random.Random(3),
            empty_tables=frozenset(
                ("rtt", "test", "ho", "passive", "offload", "video", "gaming")
            ),
        )
        assert len({s.operator for s in ds.throughput_samples}) > 1
        path = tmp_path / "corrupt.rcol"
        write_dataset(ds, path)
        RCOL_CORRUPTIONS["dict_code_out_of_range"](path)
        with DatasetReader(path) as r:
            yield r

    def test_out_of_range_code_fails_count(self, corrupt):
        # Only some rows match, so the stats cannot answer: codes are read.
        first = corrupt.table("tput").dict_values("operator")[0]
        with pytest.raises(StoreError, match="out of range"):
            query.count(corrupt, "tput", (Eq("operator", first),))

    def test_out_of_range_code_fails_group_total(self, corrupt):
        with pytest.raises(StoreError, match="out of range"):
            query.group_total(corrupt, "tput", "operator", "tput_mbps")


class TestAnalysisBridges:
    """Each analysis bridge is one function; on a store file it equals its
    row-object oracle on the dataset the file holds."""

    def test_passive_coverage_parity(self, dataset, reader):
        for op in Operator:
            row = row_oracle.passive_coverage_shares(dataset, op)
            col = passive_coverage_shares(reader, op)
            assert row.shares == col.shares
            assert row.total_weight == col.total_weight

    def test_active_coverage_parity(self, dataset, reader):
        for op in Operator:
            row = row_oracle.active_coverage_shares(dataset, op, direction="downlink")
            col = active_coverage_shares(reader, op, direction="downlink")
            for tech, share in row.shares.items():
                assert col.shares[tech] == pytest.approx(share, abs=1e-12)

    def test_static_vs_driving_parity(self, dataset, reader):
        row = row_oracle.static_vs_driving(dataset, Operator.VERIZON)
        col = static_vs_driving(reader, Operator.VERIZON)
        for attr in (
            "static_dl", "static_ul", "static_rtt",
            "driving_dl", "driving_ul", "driving_rtt",
        ):
            assert np.array_equal(
                getattr(row, attr).sorted_values,
                getattr(col, attr).sorted_values,
            ), attr

    # Statistic-level parity lives in tests/test_parity_differential.py,
    # which sweeps the whole registry over every kind of source.
