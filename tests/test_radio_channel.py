"""Channel model: path loss, shadowing, operator beam effects."""

import numpy as np
import pytest

from repro.geo.coords import LatLon
from repro.geo.regions import RegionType
from repro.radio.cells import Cell, CellId
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from tests.scalar_models import ChannelModel


def make_cell(tech=RadioTechnology.LTE, seq=1, mark=500.0, perp=100.0, op=Operator.VERIZON):
    return Cell(
        cell_id=CellId(op, tech, seq),
        site=LatLon(40.0, -100.0),
        site_mark_m=mark,
        perpendicular_m=perp,
    )


class TestPathLoss:
    def test_rsrp_decreases_with_distance(self, rng):
        model = ChannelModel(Operator.VERIZON, rng)
        cell = make_cell()
        near = np.mean(
            [model.state(cell, 500.0, RegionType.HIGHWAY, 0.5).rsrp_dbm for _ in range(50)]
        )
        model2 = ChannelModel(Operator.VERIZON, np.random.default_rng(1))
        far = np.mean(
            [model2.state(cell, 3500.0, RegionType.HIGHWAY, 0.5).rsrp_dbm for _ in range(50)]
        )
        assert near > far + 10.0

    def test_rsrp_within_physical_bounds(self, rng):
        model = ChannelModel(Operator.TMOBILE, rng)
        cell = make_cell(RadioTechnology.NR_MID)
        for mark in (450.0, 520.0, 800.0, 2000.0):
            st = model.state(cell, mark, RegionType.SUBURBAN, 0.4)
            assert -135.0 <= st.rsrp_dbm <= -45.0
            assert -10.0 <= st.sinr_db <= 40.0

    def test_load_raises_interference(self):
        cell = make_cell()
        busy = ChannelModel(Operator.VERIZON, np.random.default_rng(0)).state(
            cell, 500.0, RegionType.HIGHWAY, 0.05
        )
        idle = ChannelModel(Operator.VERIZON, np.random.default_rng(0)).state(
            cell, 500.0, RegionType.HIGHWAY, 1.0
        )
        assert idle.sinr_db > busy.sinr_db

    def test_city_interference_exceeds_highway(self):
        cell = make_cell()
        city = ChannelModel(Operator.VERIZON, np.random.default_rng(0)).state(
            cell, 500.0, RegionType.CITY, 0.5
        )
        hwy = ChannelModel(Operator.VERIZON, np.random.default_rng(0)).state(
            cell, 500.0, RegionType.HIGHWAY, 0.5
        )
        assert hwy.sinr_db > city.sinr_db


class TestOperatorBeamEffects:
    def test_verizon_mmwave_rsrp_lower_than_att(self):
        """§5.5: Verizon's wide beams → RSRP −80..−110; AT&T −70..−90."""
        cell_v = make_cell(RadioTechnology.NR_MMWAVE, op=Operator.VERIZON)
        cell_a = make_cell(RadioTechnology.NR_MMWAVE, op=Operator.ATT)
        v_model = ChannelModel(Operator.VERIZON, np.random.default_rng(0))
        a_model = ChannelModel(Operator.ATT, np.random.default_rng(0))
        v = np.mean([v_model.state(cell_v, 480.0 + i, RegionType.CITY, 0.5).rsrp_dbm for i in range(100)])
        a = np.mean([a_model.state(cell_a, 480.0 + i, RegionType.CITY, 0.5).rsrp_dbm for i in range(100)])
        assert a > v + 10.0

    def test_att_4g_grid_stronger(self):
        cell_a = make_cell(RadioTechnology.LTE_A, op=Operator.ATT)
        cell_t = make_cell(RadioTechnology.LTE_A, op=Operator.TMOBILE)
        a_model = ChannelModel(Operator.ATT, np.random.default_rng(0))
        t_model = ChannelModel(Operator.TMOBILE, np.random.default_rng(0))
        a = np.mean([a_model.state(cell_a, 480.0 + i, RegionType.HIGHWAY, 0.5).rsrp_dbm for i in range(100)])
        t = np.mean([t_model.state(cell_t, 480.0 + i, RegionType.HIGHWAY, 0.5).rsrp_dbm for i in range(100)])
        assert a > t + 3.0


class TestShadowing:
    def test_spatially_correlated(self, rng):
        model = ChannelModel(Operator.VERIZON, rng)
        cell = make_cell()
        # Two states 1 m apart share almost the same shadowing.
        s1 = model.state(cell, 500.0, RegionType.HIGHWAY, 0.5)
        s2 = model.state(cell, 501.0, RegionType.HIGHWAY, 0.5)
        assert abs(s1.rsrp_dbm - s2.rsrp_dbm) < 4.0

    def test_decorrelates_over_distance(self):
        diffs_near, diffs_far = [], []
        for seed in range(40):
            model = ChannelModel(Operator.VERIZON, np.random.default_rng(seed))
            cell = make_cell(mark=0.0, perp=5000.0)  # distance ~constant
            a = model.state(cell, 0.0, RegionType.HIGHWAY, 0.5).rsrp_dbm
            b = model.state(cell, 2.0, RegionType.HIGHWAY, 0.5).rsrp_dbm
            c = model.state(cell, 1000.0, RegionType.HIGHWAY, 0.5).rsrp_dbm
            diffs_near.append(abs(b - a))
            diffs_far.append(abs(c - a))
        assert np.mean(diffs_far) > np.mean(diffs_near)

    def test_shadow_cache_bounded(self, rng):
        model = ChannelModel(Operator.VERIZON, rng)
        for seq in range(200):
            model.state(make_cell(seq=seq, mark=seq * 100.0), seq * 100.0, RegionType.HIGHWAY, 0.5)
        assert len(model._shadow) <= 64
