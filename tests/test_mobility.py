"""Handover events and the handover engine."""

import numpy as np
import pytest

from repro.geo.coords import LatLon
from repro.mobility.events import HandoverEvent, HandoverType, classify_handover
from repro.radio.ca import Direction
from repro.radio.cells import Cell, CellId
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from tests.scalar_models import HandoverEngine


def make_cell(seq, tech=RadioTechnology.LTE_A, op=Operator.VERIZON):
    return Cell(
        cell_id=CellId(op, tech, seq),
        site=LatLon(40.0, -100.0),
        site_mark_m=seq * 800.0,
        perpendicular_m=120.0,
    )


class TestClassification:
    @pytest.mark.parametrize(
        "src,dst,expected",
        [
            (RadioTechnology.LTE, RadioTechnology.LTE_A, HandoverType.HORIZONTAL_4G),
            (RadioTechnology.NR_MID, RadioTechnology.NR_MMWAVE, HandoverType.HORIZONTAL_5G),
            (RadioTechnology.LTE_A, RadioTechnology.NR_LOW, HandoverType.VERTICAL_UP),
            (RadioTechnology.NR_MID, RadioTechnology.LTE, HandoverType.VERTICAL_DOWN),
        ],
    )
    def test_types(self, src, dst, expected):
        assert classify_handover(src, dst) is expected

    def test_vertical_flag(self):
        assert HandoverType.VERTICAL_UP.is_vertical
        assert not HandoverType.HORIZONTAL_4G.is_vertical

    def test_event_requires_positive_duration(self):
        with pytest.raises(ValueError):
            HandoverEvent(
                operator=Operator.VERIZON,
                time_s=0.0,
                mark_m=0.0,
                duration_ms=0.0,
                from_cell=CellId(Operator.VERIZON, RadioTechnology.LTE, 1),
                to_cell=CellId(Operator.VERIZON, RadioTechnology.LTE, 2),
                from_tech=RadioTechnology.LTE,
                to_tech=RadioTechnology.LTE,
            )


class TestEngine:
    def test_first_observation_no_handover(self, rng):
        engine = HandoverEngine(Operator.VERIZON, rng)
        events = engine.observe(make_cell(1), 0.0, 0.0, 0.5)
        assert events == []

    def test_cell_change_fires_handover(self, rng):
        engine = HandoverEngine(Operator.VERIZON, rng)
        engine.observe(make_cell(1), 0.0, 0.0, 0.5)
        events = engine.observe(make_cell(2), 0.5, 800.0, 0.5)
        assert len(events) == 1
        assert events[0].from_cell.sequence == 1
        assert events[0].to_cell.sequence == 2

    def test_same_cell_usually_quiet(self, rng):
        engine = HandoverEngine(Operator.VERIZON, rng)
        cell = make_cell(1)
        engine.observe(cell, 0.0, 0.0, 0.5)
        events = sum(
            len(engine.observe(cell, 0.5 * i, 10.0 * i, 0.5)) for i in range(1, 100)
        )
        assert events <= 5  # only rare ping-pongs

    def test_pingpong_happens_eventually(self):
        engine = HandoverEngine(Operator.VERIZON, np.random.default_rng(0))
        cell = make_cell(1)
        engine.observe(cell, 0.0, 0.0, 0.5)
        total = 0
        for i in range(1, 3000):
            total += len(engine.observe(engine._current_cell, 0.5 * i, 10.0 * i, 0.5))
        assert total >= 1

    def test_duration_medians_match_fig11b(self):
        """Fig. 11b: median durations 53/76/58 ms (DL) per operator."""
        targets = {Operator.VERIZON: 53.0, Operator.TMOBILE: 76.0, Operator.ATT: 58.0}
        for op, target in targets.items():
            engine = HandoverEngine(op, np.random.default_rng(1))
            durations = []
            prev = make_cell(0, op=op)
            engine.observe(prev, 0.0, 0.0, 0.5)
            for i in range(1, 800):
                cell = make_cell(i, op=op)
                for ev in engine.observe(cell, 0.5 * i, 800.0 * i, 0.5, Direction.DOWNLINK):
                    durations.append(ev.duration_ms)
            med = float(np.median(durations))
            assert target * 0.8 < med < target * 1.3  # vertical HOs stretch it

    def test_vertical_handovers_take_longer(self):
        rng_h = np.random.default_rng(2)
        horizontals, verticals = [], []
        engine = HandoverEngine(Operator.VERIZON, rng_h)
        engine.observe(make_cell(0, RadioTechnology.LTE), 0.0, 0.0, 0.5)
        for i in range(1, 600):
            tech = RadioTechnology.LTE if i % 2 else RadioTechnology.NR_MID
            for ev in engine.observe(make_cell(i, tech), 0.5 * i, 800.0 * i, 0.5):
                if ev.handover_type.is_vertical:
                    verticals.append(ev.duration_ms)
                else:
                    horizontals.append(ev.duration_ms)
        assert np.median(verticals) > np.median(horizontals)

    def test_connected_cells_tracked(self, rng):
        engine = HandoverEngine(Operator.VERIZON, rng)
        for i in range(5):
            engine.observe(make_cell(i), 0.5 * i, 800.0 * i, 0.5)
        assert len(engine.connected_cells) >= 5
        assert engine.total_handovers >= 4

    def test_reset_serving_suppresses_handover(self, rng):
        engine = HandoverEngine(Operator.VERIZON, rng)
        engine.observe(make_cell(1), 0.0, 0.0, 0.5)
        engine.reset_serving()
        events = engine.observe(make_cell(99), 10.0, 99_999.0, 0.5)
        assert events == []
