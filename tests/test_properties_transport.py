"""Property-based tests on transport, sync, and persistence invariants."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.net.servers import Server, ServerKind
from repro.geo.coords import LatLon
from repro.net.tcp import CubicFlow
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from tests.scalar_models import RttModel


def _one_stream(rng):
    """The model's jitter, loss and tail streams, all one generator."""
    return rng, rng, rng

capacities = st.lists(
    st.floats(min_value=0.5, max_value=3000.0), min_size=5, max_size=60
)


class TestCubicFlowProperties:
    @given(capacities, st.floats(min_value=10.0, max_value=500.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_goodput_never_exceeds_capacity(self, caps, rtt, seed):
        flow = CubicFlow(np.random.default_rng(seed))
        for c in caps:
            achieved = flow.advance(c, rtt, 0.5, bler=0.05)
            assert 0.0 <= achieved <= c + 1e-9

    @given(capacities, st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_window_stays_positive(self, caps, seed):
        flow = CubicFlow(np.random.default_rng(seed))
        for c in caps:
            flow.advance(c, 80.0, 0.5, bler=0.4)
            assert flow.window_mbit > 0.0

    @given(
        st.floats(min_value=1.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_interruption_never_increases_goodput(self, capacity, interruption, seed):
        warm = CubicFlow(np.random.default_rng(seed))
        for _ in range(30):
            warm.advance(capacity, 60.0, 0.5, bler=0.0)
        cold = CubicFlow(np.random.default_rng(seed))
        for _ in range(30):
            cold.advance(capacity, 60.0, 0.5, bler=0.0)
        clean = warm.advance(capacity, 60.0, 0.5, bler=0.0, interruption_s=0.0)
        hit = cold.advance(capacity, 60.0, 0.5, bler=0.0, interruption_s=interruption)
        assert hit <= clean + 1e-9


class TestRttModelProperties:
    @given(
        st.sampled_from(list(Operator)),
        st.sampled_from(list(RadioTechnology)),
        st.floats(min_value=0.0, max_value=100.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rtt_always_positive_and_bounded(self, op, tech, speed, seed):
        model = RttModel(op, *_one_stream(np.random.default_rng(seed)))
        server = Server("s", ServerKind.CLOUD, LatLon(40.0, -100.0))
        rtt = model.sample_rtt_ms(server, LatLon(41.0, -99.0), tech, speed)
        assert 0.0 < rtt < 10_000.0

    @given(st.sampled_from(list(RadioTechnology)), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_base_rtt_grows_with_distance(self, tech, seed):
        model = RttModel(Operator.VERIZON, *_one_stream(np.random.default_rng(seed)))
        near = Server("near", ServerKind.CLOUD, LatLon(40.0, -100.0))
        far = Server("far", ServerKind.CLOUD, LatLon(40.0, -70.0))
        ue = LatLon(40.0, -100.5)
        assert model.base_rtt_ms(near, ue, tech) < model.base_rtt_ms(far, ue, tech)


class TestDrmRoundTripProperties:
    @given(
        st.integers(min_value=0, max_value=28),
        st.floats(min_value=-135.0, max_value=-45.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=5000.0),
        st.sampled_from(list(RadioTechnology)),
    )
    @settings(max_examples=80, deadline=None)
    def test_kpi_line_round_trip(self, mcs, rsrp, bler, ccs, tput, tech):
        from datetime import datetime

        from repro.xcal.records import XcalKpiRecord

        record = XcalKpiRecord(
            timestamp_edt=datetime(2022, 8, 10, 12, 0, 0, 500000),
            technology=tech,
            rsrp_dbm=round(rsrp, 1),
            mcs=mcs,
            bler=round(bler, 4),
            n_ccs=ccs,
            tput_mbps=round(tput, 3),
        )
        assert XcalKpiRecord.from_line(record.to_line()) == record
