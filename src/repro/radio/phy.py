"""PHY-layer model: MCS selection, BLER, and link capacity.

Given the channel state (SINR), this module produces the KPIs XCAL logs —
primary-cell MCS and BLER — and the instantaneous link-layer capacity offered
to transport, combining spectral efficiency, channel bandwidth, duplexing
share, carrier aggregation, and the zone's load share.

Capacity calibration anchors (paper values):

* static urban 5G downlink medians ≈ 1511 / 311 / 710 Mbps (V/T/A, Fig. 3a),
  maxima up to 3415 Mbps (Verizon mmWave, multi-CC);
* T-Mobile midband driving downlink up to ~760 Mbps (Fig. 4);
* uplink roughly an order of magnitude below downlink (Fig. 3);
* driving medians collapse to a few tens of Mbps because of zone load and
  MCS degradation, not because peak capacity disappears (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from repro.rng import clamp

from repro.radio.ca import aggregate_capacity_factor
from repro.radio.channel import ChannelState
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology

__all__ = ["PhyReport", "PhyModel", "MAX_MCS_INDEX"]

MAX_MCS_INDEX = 28

#: Peak spectral efficiency per technology in bit/s/Hz (MIMO layers folded
#: in), reached at the highest MCS.
_PEAK_EFFICIENCY: dict[RadioTechnology, float] = {
    RadioTechnology.LTE: 4.4,
    RadioTechnology.LTE_A: 5.5,
    RadioTechnology.NR_LOW: 5.0,
    RadioTechnology.NR_MID: 5.5,
    RadioTechnology.NR_MMWAVE: 5.0,
}

#: Downlink share of the frame: FDD technologies get the full channel per
#: direction, TDD mid/mmWave split DL-heavy.
_DL_DUPLEX_SHARE: dict[RadioTechnology, float] = {
    RadioTechnology.LTE: 1.0,
    RadioTechnology.LTE_A: 1.0,
    RadioTechnology.NR_LOW: 1.0,
    RadioTechnology.NR_MID: 0.75,
    RadioTechnology.NR_MMWAVE: 0.8,
}

#: Uplink capacity as a fraction of the downlink capacity formula: folds in
#: the UL duplex share, the UE's limited transmit power and antenna count.
#: Calibrated to the order-of-magnitude DL/UL asymmetry of Figs. 3-4.
_UL_CAPACITY_RATIO: dict[RadioTechnology, float] = {
    RadioTechnology.LTE: 0.42,
    RadioTechnology.LTE_A: 0.40,
    RadioTechnology.NR_LOW: 0.42,
    RadioTechnology.NR_MID: 0.17,
    RadioTechnology.NR_MMWAVE: 0.16,
}

#: Secondary carriers contribute far less in the uplink: the second UL CC is
#: usually a narrow LTE anchor (§5.5 "CA").
_UL_SECONDARY_CC_FACTOR = 0.3

#: ``(MCS / 28)^1.2`` of every MCS index: the capacity formula's MCS term.
_MCS_SHAPE = tuple((mcs / MAX_MCS_INDEX) ** 1.2 for mcs in range(MAX_MCS_INDEX + 1))

#: SINR (dB) below which MCS bottoms out and above which it saturates.
_SINR_FLOOR_DB = -6.0
_SINR_CEILING_DB = 30.0

#: Spectrum-holding scale per (operator, technology): T-Mobile's n71+n41
#: low-band depth and 100 MHz midband vs the others' narrower mid-band
#: licences (C-band/n77 partial deployments in 2022).
_OPERATOR_BANDWIDTH_SCALE: dict[tuple[Operator, RadioTechnology], float] = {
    (Operator.TMOBILE, RadioTechnology.NR_LOW): 1.2,
    (Operator.TMOBILE, RadioTechnology.NR_MID): 1.2,
    (Operator.VERIZON, RadioTechnology.NR_MID): 0.65,
    (Operator.ATT, RadioTechnology.LTE_A): 1.4,
    (Operator.ATT, RadioTechnology.NR_MID): 0.60,
    (Operator.ATT, RadioTechnology.NR_MMWAVE): 0.62,
}


@dataclass(frozen=True, slots=True)
class PhyReport:
    """One PHY-layer observation: the KPIs XCAL would log plus capacity."""

    mcs: int
    bler: float
    n_ccs: int
    #: Link capacity offered to the transport layer, in Mbps, after load.
    capacity_mbps: float


class PhyModel:
    """Maps channel state to MCS/BLER/capacity.

    Stateless apart from its RNGs; callers hold per-zone CA configuration
    and load and pass them in.  Each draw kind has its own stream, one draw
    per report: the MCS normals come from ``rng``, the BLER normals from
    ``bler_rng`` and the speed-penalty uniforms from ``doppler_rng``.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        operator: Operator | None = None,
        *,
        bler_rng: np.random.Generator,
        doppler_rng: np.random.Generator,
    ) -> None:
        self._rng = rng
        self._bler_rng = bler_rng
        self._doppler_rng = doppler_rng
        # The capacity formula's per-technology factors, indexed by rank:
        # (peak efficiency, channel MHz, DL duplex share, UL capacity ratio,
        # operator bandwidth scale).
        self._factors = tuple(
            (
                _PEAK_EFFICIENCY[tech],
                tech.channel_mhz,
                _DL_DUPLEX_SHARE[tech],
                _UL_CAPACITY_RATIO[tech],
                _OPERATOR_BANDWIDTH_SCALE.get((operator, tech), 1.0),
            )
            for tech in ALL_TECHNOLOGIES
        )

    def mcs_from_sinr(self, sinr_db: float) -> int:
        """Select the primary cell's MCS index for a given SINR.

        A linear map from the SINR working range onto [0, 28] with ±1.5
        index reporting noise — the shape of real link adaptation without
        modelling the full CQI feedback loop.
        """
        span = _SINR_CEILING_DB - _SINR_FLOOR_DB
        frac = (sinr_db - _SINR_FLOOR_DB) / span
        raw = frac * MAX_MCS_INDEX + self._rng.normal(0.0, 1.5)
        return int(clamp(round(raw), 0, MAX_MCS_INDEX))

    def bler_from_sinr(self, sinr_db: float, speed_mph: float) -> float:
        """Residual block error rate.

        Near 3–10% in good conditions (HARQ operating point), rising when
        SINR collapses; vehicle speed adds a small Doppler/fast-fading
        penalty.
        """
        base = 0.03 + 0.25 / (1.0 + math.exp(clamp((sinr_db - 4.0) / 2.5, -60.0, 60.0)))
        speed_penalty = 0.0008 * max(speed_mph, 0.0) * self._doppler_rng.uniform(0.5, 1.5)
        noise = self._bler_rng.normal(0.0, 0.01)
        return clamp(base + speed_penalty + noise, 0.002, 0.85)

    def capacity_mbps(
        self,
        tech: RadioTechnology,
        mcs: int,
        bler: float,
        n_ccs: int,
        load: float,
        direction: str,
    ) -> float:
        """Instantaneous capacity offered to transport, in Mbps.

        capacity = peak_eff · (MCS/28)^1.2 · BW · duplex · CA · (1−BLER) · load

        The mild super-linearity in MCS reflects that low indices also use
        QPSK with heavy coding.
        """
        if not 0 <= mcs <= MAX_MCS_INDEX:
            raise ValueError(f"MCS out of range: {mcs}")
        if not 0.0 < load <= 1.0:
            raise ValueError(f"load must be in (0, 1], got {load}")
        total = self.capacity_total(tech, mcs, n_ccs, direction)
        return float(max(total * (1.0 - bler) * load, 0.01))

    def capacity_total(
        self, tech: RadioTechnology, mcs: int, n_ccs: int, direction: str
    ) -> float:
        """The capacity formula before BLER and load, in Mbps:
        peak_eff · (MCS/28)^1.2 · BW · duplex · CA."""
        peak, channel_mhz, dl_share, ul_ratio, scale = self._factors[tech.rank]
        eff = peak * _MCS_SHAPE[mcs]
        if direction == "uplink":
            per_cc = eff * channel_mhz * ul_ratio
            ca_factor = 1.0 + _UL_SECONDARY_CC_FACTOR * (n_ccs - 1)
        else:
            per_cc = eff * channel_mhz * dl_share
            ca_factor = aggregate_capacity_factor(n_ccs)
        # An operator without a scale for ``tech`` (or no operator) scales
        # by exactly 1.0, which leaves the product unchanged.
        return per_cc * ca_factor * scale

    #: Effective SINR penalty per mph: Doppler spread and outdated CSI make
    #: link adaptation conservative at speed (Table 2's weak negative
    #: speed-throughput correlation).
    SPEED_SINR_PENALTY_DB_PER_MPH = 0.05

    def report(
        self,
        tech: RadioTechnology,
        channel: ChannelState,
        n_ccs: int,
        load: float,
        speed_mph: float,
        direction: str,
    ) -> PhyReport:
        """Produce the full PHY observation for one 500 ms tick."""
        effective_sinr = channel.sinr_db - self.SPEED_SINR_PENALTY_DB_PER_MPH * max(
            speed_mph, 0.0
        )
        mcs = self.mcs_from_sinr(effective_sinr)
        bler = self.bler_from_sinr(channel.sinr_db, speed_mph)
        capacity = self.capacity_mbps(tech, mcs, bler, n_ccs, load, direction)
        return PhyReport(mcs=mcs, bler=bler, n_ccs=n_ccs, capacity_mbps=capacity)
