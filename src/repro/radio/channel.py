"""Radio channel parameters: RSRP / SINR of the serving link.

RSRP follows a per-technology log-distance path-loss law anchored at a
reference received power, plus spatially correlated (Gudmundson-style)
shadowing evolved as the vehicle moves.  The reference powers encode the one
operator-specific PHY detail the paper calls out explicitly (§5.5 "RSRP"):
Verizon's mmWave deployment uses a small number of *wide* beams with lower
gain (RSRP −80 to −110 dBm) while AT&T uses narrower, higher-gain beams
(−70 to −90 dBm) — which is why Verizon's downlink throughput shows almost no
correlation with RSRP (Table 2).

SINR follows from RSRP against a per-technology noise+interference floor with
region- and load-dependent interference.  The test-block kernel
(:mod:`repro.campaign.link`) evaluates all of this over arrays; this module
holds its parameters.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.geo.regions import RegionType
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology

__all__ = [
    "FOURG_GRID_ADJUST_DB",
    "INTERFERENCE_DB",
    "MMWAVE_BEAM_ADJUST_DB",
    "NOISE_FLOOR_DBM",
    "PATH_LOSS",
    "SHADOW_DECORRELATION_M",
    "path_loss",
]

#: Per-technology log-distance law, RSRP(d) = ref − 10·n·log10(d / 100 m):
#: (reference RSRP at 100 m in dBm, exponent n, shadowing sigma in dB).
PATH_LOSS = MappingProxyType({
    RadioTechnology.LTE: (-78.0, 2.9, 6.0),
    RadioTechnology.LTE_A: (-76.0, 2.9, 6.0),
    RadioTechnology.NR_LOW: (-74.0, 2.7, 6.0),
    RadioTechnology.NR_MID: (-80.0, 3.0, 7.0),
    RadioTechnology.NR_MMWAVE: (-82.0, 2.5, 8.0),
})

#: Operator adjustment to the mmWave reference power (beam-width effect).
MMWAVE_BEAM_ADJUST_DB = MappingProxyType({
    Operator.VERIZON: -6.0,   # wide beams, low gain → low RSRP (§5.5)
    Operator.TMOBILE: 0.0,
    Operator.ATT: +10.0,      # narrow beams, high gain → high RSRP
})

#: Operator adjustment to the 4G (LTE/LTE-A) reference power.  AT&T's LTE-A
#: backbone is its strength (§5.4: AT&T outperforms T-Mobile in ~80% of
#: LT-LT downlink locations thanks to superior LTE-A and 5G-low service).
FOURG_GRID_ADJUST_DB = MappingProxyType({
    Operator.VERIZON: 0.0,
    Operator.TMOBILE: 0.0,
    Operator.ATT: +7.0,
})

#: Noise + thermal floor per technology (wider channels → higher floor).
NOISE_FLOOR_DBM = MappingProxyType({
    RadioTechnology.LTE: -115.0,
    RadioTechnology.LTE_A: -115.0,
    RadioTechnology.NR_LOW: -116.0,
    RadioTechnology.NR_MID: -112.0,
    RadioTechnology.NR_MMWAVE: -112.0,
})

#: Inter-cell interference margin (dB) by region — densest in cities.
INTERFERENCE_DB = MappingProxyType({
    RegionType.CITY: 4.0,
    RegionType.SUBURBAN: 2.0,
    RegionType.HIGHWAY: 1.0,
})

#: Shadowing decorrelation distance in meters (Gudmundson model).
SHADOW_DECORRELATION_M = 80.0


def path_loss(operator: Operator, tech: RadioTechnology) -> tuple[float, float, float]:
    """``tech``'s :data:`PATH_LOSS` row with ``operator``'s mmWave beam or
    4G grid adjustment added to the reference power.

    >>> path_loss(Operator.VERIZON, RadioTechnology.NR_MMWAVE)
    (-88.0, 2.5, 8.0)
    """
    ref_dbm, exponent, sigma_db = PATH_LOSS[tech]
    if tech is RadioTechnology.NR_MMWAVE:
        ref_dbm += MMWAVE_BEAM_ADJUST_DB[operator]
    elif tech.is_4g:
        ref_dbm += FOURG_GRID_ADJUST_DB[operator]
    return ref_dbm, exponent, sigma_db
