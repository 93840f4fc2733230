"""The passive handover-logger component."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.coverage import passive_coverage_shares
from repro.campaign.runner import CampaignConfig, CampaignWindow, DriveCampaign
from repro.geo.timezones import Timezone
from repro.policy.profiles import DEFAULT_POLICY_PROFILES, PolicyProfile
from repro.radio.deployment import DeploymentModel
from repro.radio.operators import Operator
from repro.rng import RngFactory
from repro.store.columnar import TABLE_SCHEMAS, ColumnTable
from repro.xcal.handover_logger import run_handover_logger
from tests import row_oracle


@pytest.fixture(scope="module")
def traces(route):
    out = {}
    for i, op in enumerate(Operator):
        deployment = DeploymentModel.build(op, route, np.random.default_rng(31 + i))
        out[op] = run_handover_logger(
            op, deployment, np.random.default_rng(41 + i), 0.0, route.total_length_m
        )
    return out


class TestHandoverLogger:
    def test_segments_tile_route(self, traces, route):
        for trace in traces.values():
            assert trace.total_length_m == pytest.approx(route.total_length_m, rel=0.01)

    def test_macro_handover_counts_match_table1(self, traces):
        expected = {Operator.VERIZON: 2657, Operator.TMOBILE: 4119, Operator.ATT: 2494}
        for op, target in expected.items():
            assert target * 0.7 < traces[op].macro_handovers < target * 1.3

    def test_att_logger_saw_essentially_no_5g(self, traces):
        # Fig. 1d: LTE/LTE-A along the whole route.  A sub-percent residue
        # of city mmWave survives (the same idle-mmWave pockets behind
        # Fig. 8's few AT&T mmWave RTT samples).
        trace = traces[Operator.ATT]
        share_5g = sum(s.length_m for s in trace.table.rows() if s.tech.is_5g)
        assert share_5g / trace.total_length_m < 0.01

    def test_macro_cells_counted(self, traces):
        for trace in traces.values():
            assert len(trace.macro_cell_ids) > 1000

    def test_keepalive_volume_is_tiny(self, traces):
        """The point of the 38-B/200 ms keep-alive: negligible traffic."""
        volume = traces[Operator.VERIZON].keepalive_bytes()
        # The whole 8-day trip's keep-alive is tens of MB — versus the
        # campaign's hundreds of GB of test traffic.
        assert volume < 100e6

    def test_segments_ordered(self, traces):
        segs = traces[Operator.TMOBILE].table.rows()
        starts = [s.start_m for s in segs]
        assert starts == sorted(starts)


class TestWindowClip:
    """A window's logger walks the whole-route deployment clipped to its
    span ``[START_M, END_M)``."""

    START_M, END_M = 300_000.0, 900_000.0

    @pytest.fixture(scope="class")
    def walk(self, route):
        deployment = DeploymentModel.build(
            Operator.TMOBILE, route, np.random.default_rng(5)
        )
        trace = run_handover_logger(
            Operator.TMOBILE, deployment, np.random.default_rng(6),
            self.START_M, self.END_M,
        )
        return deployment, trace

    def test_segments_start_and_end_exactly_at_the_window(self, walk):
        deployment, trace = walk
        assert deployment.zone_at(self.START_M).start_m < self.START_M
        assert deployment.zone_at(self.END_M).start_m < self.END_M
        segments = trace.table.rows()
        assert segments[0].start_m == self.START_M
        assert segments[-1].end_m == self.END_M
        for prev, cur in zip(segments, segments[1:]):
            assert cur.start_m == prev.end_m

    def test_macro_handovers_count_zone_starts_inside_the_window(self, walk):
        deployment, trace = walk
        starts = [z.start_m for z in deployment.macro_zones]
        assert trace.macro_handovers == sum(
            1 for s in starts if self.START_M <= s < self.END_M and s > 0.0
        )

    def test_macro_cells_of_straddling_zones_included(self, walk):
        deployment, trace = walk
        for mark in (self.START_M, self.END_M - 1.0):
            zone = deployment.macro_zone_at(mark)
            assert {c.cell_id for c in zone.cells.values()} <= trace.macro_cell_ids

    def test_first_window_does_not_count_its_first_zone(self, route):
        deployment = DeploymentModel.build(
            Operator.ATT, route, np.random.default_rng(7)
        )
        trace = run_handover_logger(
            Operator.ATT, deployment, np.random.default_rng(8), 0.0, 40_000.0
        )
        starts = [z.start_m for z in deployment.macro_zones if z.start_m < 40_000.0]
        assert starts[0] == 0.0
        assert trace.macro_handovers == len(starts) - 1

    def test_any_split_adds_up_to_the_whole_route(self, route):
        deployment = DeploymentModel.build(
            Operator.VERIZON, route, np.random.default_rng(9)
        )
        total = route.total_length_m
        whole = run_handover_logger(
            Operator.VERIZON, deployment, np.random.default_rng(10), 0.0, total
        )
        assert whole.macro_handovers == len(deployment.macro_zones) - 1
        for cuts in ([0.0, total], [0.0, 1_234_567.0, total],
                     [0.0, 600_000.0, 1_200_000.0, 4_000_000.0, total]):
            parts = [
                run_handover_logger(
                    Operator.VERIZON, deployment, np.random.default_rng(11), lo, hi
                )
                for lo, hi in zip(cuts, cuts[1:])
            ]
            assert sum(p.macro_handovers for p in parts) == whole.macro_handovers
            assert sum(p.total_length_m for p in parts) == pytest.approx(total)


def _rows(segments):
    return [(s.start_m, s.end_m, s.tech, s.region, s.timezone) for s in segments]


class TestRowOracleParity:
    """The array walk equals the zone-by-zone selector walk it replaced
    (:func:`tests.row_oracle.handover_logger`), draw for draw."""

    @pytest.mark.parametrize("seed", [41, 42])
    @pytest.mark.parametrize("op", list(Operator))
    def test_windows_match_the_row_walk(self, route, seed, op):
        deployment = DeploymentModel.world(op, route, seed)
        total = route.total_length_m
        for lo, hi in ((0.0, 600_000.0), (600_000.0, 1_200_000.0),
                       (1_234_567.8, 1_301_234.5), (0.0, total)):
            stream = f"passive-{op.code}"
            trace = run_handover_logger(
                op, deployment, RngFactory(seed).stream(stream), lo, hi
            )
            segments, handovers, cells = row_oracle.handover_logger(
                op, deployment, RngFactory(seed).stream(stream), lo, hi
            )
            assert _rows(trace.table.rows()) == _rows(segments)
            assert trace.macro_handovers == handovers
            assert trace.macro_cell_ids == cells

    def test_policy_override_matches_the_row_walk(self, route):
        op = Operator.VERIZON
        profile = _upgrade_always(op)
        deployment = DeploymentModel.world(op, route, 41)
        trace = run_handover_logger(
            op, deployment, np.random.default_rng(3), 0.0, 900_000.0, profile
        )
        segments, _, _ = row_oracle.handover_logger(
            op, deployment, np.random.default_rng(3), 0.0, 900_000.0, profile
        )
        assert _rows(trace.table.rows()) == _rows(segments)

    def test_table_dictionaries_in_first_appearance_order(self, route):
        deployment = DeploymentModel.world(Operator.TMOBILE, route, 42)
        trace = run_handover_logger(
            Operator.TMOBILE, deployment, np.random.default_rng(1), 0.0, 900_000.0
        )
        rebuilt = ColumnTable.from_rows(TABLE_SCHEMAS["passive"], trace.table.rows())
        for name, values in rebuilt.values.items():
            assert trace.table.values[name] == values
            assert trace.table.arrays[name].tolist() == rebuilt.arrays[name].tolist()


def _upgrade_always(op: Operator) -> PolicyProfile:
    default = DEFAULT_POLICY_PROFILES[op]
    return dataclasses.replace(
        default, idle_5g_upgrade_prob=dict.fromkeys(Timezone, 1.0)
    )


class TestPolicyOverride:
    """A campaign's policy overrides reach its passive loggers."""

    def _passive_5g_share(self, route, overrides) -> float:
        campaign = DriveCampaign(
            CampaignConfig(seed=3, scale=0.004, include_apps=False,
                           include_static=False),
            route,
            policy_profiles=overrides,
            window=CampaignWindow(index=0, start_m=0.0, end_m=400_000.0),
        )
        dataset = campaign.run()
        shares = passive_coverage_shares(dataset, Operator.VERIZON)
        return shares.share_5g

    def test_idle_upgrade_override_raises_passive_5g_share(self, route):
        default = self._passive_5g_share(route, None)
        upgraded = self._passive_5g_share(
            route, {Operator.VERIZON: _upgrade_always(Operator.VERIZON)}
        )
        assert upgraded > default + 0.1

    def test_mismatched_profile_rejected(self, route):
        deployment = DeploymentModel.world(Operator.ATT, route, 1)
        with pytest.raises(ValueError):
            run_handover_logger(
                Operator.ATT, deployment, np.random.default_rng(0), 0.0, 1e5,
                DEFAULT_POLICY_PROFILES[Operator.VERIZON],
            )
