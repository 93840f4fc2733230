"""RTT model behaviour."""

import numpy as np
import pytest

from repro.geo.coords import LatLon
from repro.net.servers import Server, ServerKind
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from tests.scalar_models import RttModel


def _one_stream(rng):
    """The model's jitter, loss and tail streams, all one generator."""
    return rng, rng, rng


UE = LatLon(39.7392, -104.9903)  # Denver
CLOUD = Server("cloud", ServerKind.CLOUD, LatLon(37.35, -121.96))
EDGE = Server("edge", ServerKind.EDGE, LatLon(39.74, -104.99))


def sample_many(model, server, tech, speed, static=False, n=300, bler=0.05):
    return np.asarray(
        [model.sample_rtt_ms(server, UE, tech, speed, static=static, bler=bler) for _ in range(n)]
    )


class TestBaseRtt:
    def test_edge_beats_cloud(self, rng):
        model = RttModel(Operator.VERIZON, *_one_stream(rng))
        edge = model.base_rtt_ms(EDGE, UE, RadioTechnology.NR_MMWAVE)
        cloud = model.base_rtt_ms(CLOUD, UE, RadioTechnology.NR_MMWAVE)
        assert edge < cloud - 10.0

    def test_mmwave_beats_lte(self, rng):
        model = RttModel(Operator.VERIZON, *_one_stream(rng))
        mm = model.base_rtt_ms(EDGE, UE, RadioTechnology.NR_MMWAVE)
        lte = model.base_rtt_ms(EDGE, UE, RadioTechnology.LTE)
        assert mm < lte

    def test_att_4g_penalty(self, rng):
        att = RttModel(Operator.ATT, *_one_stream(rng)).base_rtt_ms(CLOUD, UE, RadioTechnology.LTE_A)
        vzw = RttModel(Operator.VERIZON, *_one_stream(rng)).base_rtt_ms(CLOUD, UE, RadioTechnology.LTE_A)
        assert att > vzw + 6.0

    def test_att_5g_unpenalised(self, rng):
        att = RttModel(Operator.ATT, *_one_stream(rng)).base_rtt_ms(CLOUD, UE, RadioTechnology.NR_MID)
        vzw = RttModel(Operator.VERIZON, *_one_stream(rng)).base_rtt_ms(CLOUD, UE, RadioTechnology.NR_MID)
        assert att == pytest.approx(vzw)


class TestSampling:
    def test_static_mmwave_edge_floor_single_digit(self):
        """§5.2: Verizon mmWave + edge RTTs bottom out around 8 ms."""
        model = RttModel(Operator.VERIZON, *_one_stream(np.random.default_rng(0)))
        rtts = sample_many(model, EDGE, RadioTechnology.NR_MMWAVE, 0.0, static=True, bler=0.01)
        assert rtts.min() < 12.0
        assert np.median(rtts) < 25.0

    def test_driving_median_band(self):
        """Fig. 3b: driving medians land in the 60-85 ms band."""
        for op in Operator:
            model = RttModel(op, *_one_stream(np.random.default_rng(1)))
            rtts = sample_many(model, CLOUD, RadioTechnology.LTE_A, 65.0)
            assert 45.0 < np.median(rtts) < 110.0

    def test_driving_has_multi_second_tail(self):
        model = RttModel(Operator.TMOBILE, *_one_stream(np.random.default_rng(2)))
        rtts = sample_many(model, CLOUD, RadioTechnology.LTE, 65.0, n=5000)
        assert rtts.max() > 1000.0

    def test_static_never_spikes_like_driving(self):
        model = RttModel(Operator.VERIZON, *_one_stream(np.random.default_rng(3)))
        rtts = sample_many(model, CLOUD, RadioTechnology.NR_MID, 0.0, static=True, n=2000, bler=0.01)
        assert rtts.max() < 400.0

    def test_speed_sensitivity_verizon_vs_att(self):
        """Fig. 8: Verizon RTT grows with speed, AT&T's barely does."""
        def median_gap(op):
            slow = sample_many(RttModel(op, *_one_stream(np.random.default_rng(4))), CLOUD, RadioTechnology.NR_MID, 5.0)
            fast = sample_many(RttModel(op, *_one_stream(np.random.default_rng(5))), CLOUD, RadioTechnology.NR_MID, 75.0)
            return np.median(fast) - np.median(slow)

        assert median_gap(Operator.VERIZON) > median_gap(Operator.ATT)

    def test_bler_inflates_rtt(self):
        clean = sample_many(
            RttModel(Operator.VERIZON, *_one_stream(np.random.default_rng(6))), CLOUD,
            RadioTechnology.LTE, 65.0, bler=0.0, n=2000,
        )
        lossy = sample_many(
            RttModel(Operator.VERIZON, *_one_stream(np.random.default_rng(6))), CLOUD,
            RadioTechnology.LTE, 65.0, bler=0.6, n=2000,
        )
        assert lossy.mean() > clean.mean()
