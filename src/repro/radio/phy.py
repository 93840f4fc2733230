"""PHY-layer parameters: MCS selection, BLER, and link capacity.

The test-block kernel (:mod:`repro.campaign.link`) maps the channel's SINR
to the KPIs XCAL logs — primary-cell MCS and BLER — and to the instantaneous
link-layer capacity offered to transport, combining spectral efficiency,
channel bandwidth, duplexing share, carrier aggregation, and the zone's load
share.  This module holds the MCS map's working range and the capacity
formula, as one table per operator (:func:`capacity_table`).

Capacity calibration anchors (paper values):

* static urban 5G downlink medians ≈ 1511 / 311 / 710 Mbps (V/T/A, Fig. 3a),
  maxima up to 3415 Mbps (Verizon mmWave, multi-CC);
* T-Mobile midband driving downlink up to ~760 Mbps (Fig. 4);
* uplink roughly an order of magnitude below downlink (Fig. 3);
* driving medians collapse to a few tens of Mbps because of zone load and
  MCS degradation, not because peak capacity disappears (§5.2).
"""

from __future__ import annotations

import numpy as np

from repro.radio.ca import Direction, aggregate_capacity_factor
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology

__all__ = [
    "MAX_CCS",
    "MAX_MCS_INDEX",
    "SINR_CEILING_DB",
    "SINR_FLOOR_DB",
    "SPEED_SINR_PENALTY_DB_PER_MPH",
    "capacity_table",
]

MAX_MCS_INDEX = 28

#: Most component carriers a phone aggregates (the S21 supports 8).
MAX_CCS = 8

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
SINR_FLOOR_DB = -6.0
SINR_CEILING_DB = 30.0

#: Effective SINR penalty per mph: Doppler spread and outdated CSI make
#: link adaptation conservative at speed (Table 2's weak negative
#: speed-throughput correlation).
SPEED_SINR_PENALTY_DB_PER_MPH = 0.05

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


def capacity_table(operator: Operator | None) -> np.ndarray:
    """``operator``'s link capacity before BLER and load, in Mbps, by
    direction (its position in ``Direction.ALL``), technology rank, CC count
    (1 to :data:`MAX_CCS`; row 0 is zero) and MCS:

    capacity = peak_eff · (MCS/28)^1.2 · BW · duplex · CA · spectrum scale

    The mild super-linearity in MCS reflects that low indices also use QPSK
    with heavy coding.  Uplink secondary carriers add a flat fraction each;
    ``None`` (or an operator without a scale for a technology) scales by
    exactly 1.0.
    """
    table = np.zeros((len(Direction.ALL), len(ALL_TECHNOLOGIES), MAX_CCS + 1, MAX_MCS_INDEX + 1))
    mcs_shape = np.array(_MCS_SHAPE)
    for tech in ALL_TECHNOLOGIES:
        eff = _PEAK_EFFICIENCY[tech] * mcs_shape
        scale = _OPERATOR_BANDWIDTH_SCALE.get((operator, tech), 1.0)
        for d, direction in enumerate(Direction.ALL):
            uplink = direction == Direction.UPLINK
            share = _UL_CAPACITY_RATIO[tech] if uplink else _DL_DUPLEX_SHARE[tech]
            per_cc = eff * tech.channel_mhz * share
            for n_ccs in range(1, MAX_CCS + 1):
                ca_factor = (
                    1.0 + _UL_SECONDARY_CC_FACTOR * (n_ccs - 1)
                    if uplink
                    else aggregate_capacity_factor(n_ccs)
                )
                table[d, tech.rank, n_ccs] = per_cc * ca_factor * scale
    return table
