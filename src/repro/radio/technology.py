"""Cellular radio technologies spanned by the study.

The paper covers "all cellular technologies available today": LTE, LTE-A, and
5G NR in the low, mid, and mmWave bands.  §5.4 groups them into
high-throughput (HT: 5G mmWave, 5G midband) and low-throughput
(LT: LTE, LTE-A, 5G-low) classes for the operator-diversity analysis.
"""

from __future__ import annotations

import enum


#: Per-technology constants, indexed by rank (LTE, LTE-A, 5G-low, 5G-mid,
#: 5G-mmWave).
_CARRIER_GHZ = (1.9, 2.1, 0.85, 2.6, 28.0)  # 5G-mid: T-Mobile n41 / C-band
_CHANNEL_MHZ = (20.0, 20.0, 20.0, 100.0, 400.0)
_RAN_LATENCY_MS = (16.0, 13.0, 12.0, 7.0, 3.0)

_NR_LOW_RANK = 2
_NR_MID_RANK = 3


class RadioTechnology(enum.Enum):
    """A cellular technology+band class, ordered roughly by capability.

    Every per-technology constant is a plain member attribute, set once
    here, so the per-tick simulator reads it without a lookup.
    """

    LTE = ("LTE", 0)
    LTE_A = ("LTE-A", 1)
    NR_LOW = ("5G-low", 2)
    NR_MID = ("5G-mid", 3)
    NR_MMWAVE = ("5G-mmWave", 4)

    # Members are singletons and compare by identity, so they hash by
    # identity too: a C-level hash instead of ``Enum.__hash__``'s hash of
    # the name.  No output may depend on the order of a set of members.
    __hash__ = object.__hash__

    def __init__(self, label: str, rank: int) -> None:
        self.label = label
        #: Capability rank used to classify vertical handovers (4G↔5G);
        #: also the index of the technology in :data:`ALL_TECHNOLOGIES`
        #: and its code in deployment arrays.
        self.rank = rank
        #: True for any NR technology (low/mid/mmWave).
        self.is_5g = rank >= _NR_LOW_RANK
        #: True for LTE or LTE-A.
        self.is_4g = not self.is_5g
        #: True for the paper's HT class: 5G mmWave or 5G midband (§5.4).
        self.is_high_throughput = rank >= _NR_MID_RANK
        #: Representative carrier frequency in GHz.
        self.carrier_ghz = _CARRIER_GHZ[rank]
        #: Representative per-carrier channel bandwidth in MHz.
        self.channel_mhz = _CHANNEL_MHZ[rank]
        #: Typical one-way RAN latency contribution in ms (scheduling +
        #: HARQ), lowest for mmWave's short slots.
        self.ran_latency_ms = _RAN_LATENCY_MS[rank]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


#: §5.4's high-throughput class.
HIGH_THROUGHPUT_TECHS: frozenset[RadioTechnology] = frozenset(
    {RadioTechnology.NR_MID, RadioTechnology.NR_MMWAVE}
)

#: §5.4's low-throughput class.
LOW_THROUGHPUT_TECHS: frozenset[RadioTechnology] = frozenset(
    {RadioTechnology.LTE, RadioTechnology.LTE_A, RadioTechnology.NR_LOW}
)

ALL_TECHNOLOGIES: tuple[RadioTechnology, ...] = (
    RadioTechnology.LTE,
    RadioTechnology.LTE_A,
    RadioTechnology.NR_LOW,
    RadioTechnology.NR_MID,
    RadioTechnology.NR_MMWAVE,
)
