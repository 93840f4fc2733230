"""PHY model: MCS, BLER, capacity composition."""

import numpy as np
import pytest

from repro.radio.ca import Direction
from repro.radio.operators import Operator
from repro.radio.phy import MAX_MCS_INDEX
from repro.radio.technology import RadioTechnology
from tests.scalar_models import ChannelState, PhyModel


@pytest.fixture()
def phy(rng):
    return PhyModel(rng, bler_rng=rng, doppler_rng=rng)


class TestMcs:
    def test_range(self, phy):
        for sinr in (-10.0, 0.0, 10.0, 25.0, 40.0):
            assert 0 <= phy.mcs_from_sinr(sinr) <= MAX_MCS_INDEX

    def test_monotone_in_sinr_on_average(self, phy):
        low = np.mean([phy.mcs_from_sinr(0.0) for _ in range(200)])
        high = np.mean([phy.mcs_from_sinr(25.0) for _ in range(200)])
        assert high > low + 10

    def test_saturates_at_max(self, phy):
        values = [phy.mcs_from_sinr(40.0) for _ in range(100)]
        assert max(values) == MAX_MCS_INDEX


class TestBler:
    def test_range(self, phy):
        for sinr in (-10.0, 5.0, 30.0):
            for speed in (0.0, 70.0):
                assert 0.0 < phy.bler_from_sinr(sinr, speed) < 1.0

    def test_worse_at_low_sinr(self, phy):
        low = np.mean([phy.bler_from_sinr(-5.0, 0.0) for _ in range(200)])
        high = np.mean([phy.bler_from_sinr(25.0, 0.0) for _ in range(200)])
        assert low > high + 0.1

    def test_speed_penalty(self, phy):
        slow = np.mean([phy.bler_from_sinr(15.0, 0.0) for _ in range(300)])
        fast = np.mean([phy.bler_from_sinr(15.0, 75.0) for _ in range(300)])
        assert fast > slow


class TestCapacity:
    def test_zero_mcs_still_positive(self, phy):
        cap = phy.capacity_mbps(RadioTechnology.LTE, 0, 0.1, 1, 0.5, Direction.DOWNLINK)
        assert cap > 0.0

    def test_mmwave_peak_order_of_magnitude(self, phy):
        cap = phy.capacity_mbps(
            RadioTechnology.NR_MMWAVE, MAX_MCS_INDEX, 0.05, 3, 1.0, Direction.DOWNLINK
        )
        # Multi-CC mmWave reaches the paper's multi-Gbps regime.
        assert 2000.0 < cap < 6000.0

    def test_lte_peak_order_of_magnitude(self, phy):
        cap = phy.capacity_mbps(RadioTechnology.LTE, MAX_MCS_INDEX, 0.05, 1, 1.0, Direction.DOWNLINK)
        assert 50.0 < cap < 120.0

    def test_uplink_fraction_of_downlink(self, phy):
        dl = phy.capacity_mbps(RadioTechnology.NR_MID, 20, 0.08, 1, 0.5, Direction.DOWNLINK)
        ul = phy.capacity_mbps(RadioTechnology.NR_MID, 20, 0.08, 1, 0.5, Direction.UPLINK)
        assert ul < dl / 3.0  # Fig. 3's order-of-magnitude asymmetry

    def test_more_ccs_more_capacity(self, phy):
        c1 = phy.capacity_mbps(RadioTechnology.LTE_A, 20, 0.08, 1, 0.5, Direction.DOWNLINK)
        c3 = phy.capacity_mbps(RadioTechnology.LTE_A, 20, 0.08, 3, 0.5, Direction.DOWNLINK)
        assert c3 > c1 * 1.8

    def test_uplink_secondary_cc_contributes_less(self, phy):
        dl_gain = phy.capacity_mbps(
            RadioTechnology.LTE_A, 20, 0.08, 2, 0.5, Direction.DOWNLINK
        ) / phy.capacity_mbps(RadioTechnology.LTE_A, 20, 0.08, 1, 0.5, Direction.DOWNLINK)
        ul_gain = phy.capacity_mbps(
            RadioTechnology.LTE_A, 20, 0.08, 2, 0.5, Direction.UPLINK
        ) / phy.capacity_mbps(RadioTechnology.LTE_A, 20, 0.08, 1, 0.5, Direction.UPLINK)
        assert ul_gain < dl_gain

    def test_load_scales_capacity(self, phy):
        full = phy.capacity_mbps(RadioTechnology.NR_MID, 20, 0.08, 1, 1.0, Direction.DOWNLINK)
        tenth = phy.capacity_mbps(RadioTechnology.NR_MID, 20, 0.08, 1, 0.1, Direction.DOWNLINK)
        assert tenth == pytest.approx(full * 0.1, rel=1e-9)

    def test_bler_reduces_capacity(self, phy):
        clean = phy.capacity_mbps(RadioTechnology.LTE, 20, 0.01, 1, 0.5, Direction.DOWNLINK)
        lossy = phy.capacity_mbps(RadioTechnology.LTE, 20, 0.5, 1, 0.5, Direction.DOWNLINK)
        assert lossy < clean

    def test_invalid_inputs_rejected(self, phy):
        with pytest.raises(ValueError):
            phy.capacity_mbps(RadioTechnology.LTE, 99, 0.1, 1, 0.5, Direction.DOWNLINK)
        with pytest.raises(ValueError):
            phy.capacity_mbps(RadioTechnology.LTE, 10, 0.1, 1, 0.0, Direction.DOWNLINK)

    def test_operator_spectrum_scaling(self, rng):
        tmo = PhyModel(rng, Operator.TMOBILE, bler_rng=rng, doppler_rng=rng)
        vzw = PhyModel(rng, Operator.VERIZON, bler_rng=rng, doppler_rng=rng)
        t_mid = tmo.capacity_mbps(RadioTechnology.NR_MID, 20, 0.08, 1, 0.5, Direction.DOWNLINK)
        v_mid = vzw.capacity_mbps(RadioTechnology.NR_MID, 20, 0.08, 1, 0.5, Direction.DOWNLINK)
        # T-Mobile's 100 MHz n41 vs Verizon's partial C-band (Fig. 4).
        assert t_mid > v_mid * 1.3


class TestReport:
    def test_report_fields_consistent(self, phy):
        state = ChannelState(rsrp_dbm=-90.0, sinr_db=15.0)
        report = phy.report(RadioTechnology.NR_MID, state, 2, 0.5, 60.0, Direction.DOWNLINK)
        assert 0 <= report.mcs <= MAX_MCS_INDEX
        assert 0.0 < report.bler < 1.0
        assert report.n_ccs == 2
        assert report.capacity_mbps > 0.0
