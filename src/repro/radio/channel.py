"""Radio channel model: RSRP / SINR of the serving link.

We model RSRP with a per-technology log-distance path-loss law anchored at a
reference received power, plus spatially correlated (Gudmundson-style)
shadowing evolved as the vehicle moves.  The reference powers encode the one
operator-specific PHY detail the paper calls out explicitly (§5.5 "RSRP"):
Verizon's mmWave deployment uses a small number of *wide* beams with lower
gain (RSRP −80 to −110 dBm) while AT&T uses narrower, higher-gain beams
(−70 to −90 dBm) — which is why Verizon's downlink throughput shows almost no
correlation with RSRP (Table 2).

SINR follows from RSRP against a per-technology noise+interference floor with
region- and load-dependent interference.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from repro.rng import clamp

from repro.geo.regions import RegionType
from repro.radio.cells import Cell
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology

__all__ = ["PathLossParams", "ChannelState", "ChannelModel"]


@dataclass(frozen=True, slots=True)
class PathLossParams:
    """Log-distance model: RSRP(d) = ref_dbm − 10·n·log10(d / 100 m)."""

    ref_dbm_at_100m: float
    exponent: float
    shadow_sigma_db: float


#: Per-technology propagation parameters (reference RSRP at 100 m).
_PATH_LOSS: dict[RadioTechnology, PathLossParams] = {
    RadioTechnology.LTE: PathLossParams(-78.0, 2.9, 6.0),
    RadioTechnology.LTE_A: PathLossParams(-76.0, 2.9, 6.0),
    RadioTechnology.NR_LOW: PathLossParams(-74.0, 2.7, 6.0),
    RadioTechnology.NR_MID: PathLossParams(-80.0, 3.0, 7.0),
    RadioTechnology.NR_MMWAVE: PathLossParams(-82.0, 2.5, 8.0),
}

#: Operator adjustment to the mmWave reference power (beam-width effect).
_MMWAVE_BEAM_ADJUST_DB: dict[Operator, float] = {
    Operator.VERIZON: -6.0,   # wide beams, low gain → low RSRP (§5.5)
    Operator.TMOBILE: 0.0,
    Operator.ATT: +10.0,      # narrow beams, high gain → high RSRP
}

#: Operator adjustment to the 4G (LTE/LTE-A) reference power.  AT&T's LTE-A
#: backbone is its strength (§5.4: AT&T outperforms T-Mobile in ~80% of
#: LT-LT downlink locations thanks to superior LTE-A and 5G-low service).
_FOURG_GRID_ADJUST_DB: dict[Operator, float] = {
    Operator.VERIZON: 0.0,
    Operator.TMOBILE: 0.0,
    Operator.ATT: +7.0,
}

#: Noise + thermal floor per technology (wider channels → higher floor).
_NOISE_FLOOR_DBM: dict[RadioTechnology, float] = {
    RadioTechnology.LTE: -115.0,
    RadioTechnology.LTE_A: -115.0,
    RadioTechnology.NR_LOW: -116.0,
    RadioTechnology.NR_MID: -112.0,
    RadioTechnology.NR_MMWAVE: -112.0,
}

#: Inter-cell interference margin (dB) by region — densest in cities.
_INTERFERENCE_DB: dict[RegionType, float] = {
    RegionType.CITY: 4.0,
    RegionType.SUBURBAN: 2.0,
    RegionType.HIGHWAY: 1.0,
}

#: Shadowing decorrelation distance in meters (Gudmundson model).
_SHADOW_DECORRELATION_M = 80.0


@dataclass(frozen=True, slots=True)
class ChannelState:
    """Instantaneous channel view of the serving link."""

    rsrp_dbm: float
    sinr_db: float


class ChannelModel:
    """Stateful channel evaluator for one operator's UE.

    Keeps one spatially correlated shadowing process per serving cell, so
    RSRP evolves smoothly while camped on a cell and decorrelates across
    handovers.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.geo.coords import LatLon
    >>> from repro.radio.cells import Cell, CellId
    >>> model = ChannelModel(Operator.VERIZON, np.random.default_rng(0))
    >>> cell = Cell(CellId(Operator.VERIZON, RadioTechnology.LTE, 1),
    ...             LatLon(0, 0), site_mark_m=500.0, perpendicular_m=100.0)
    >>> st = model.state(cell, mark_m=400.0, region=RegionType.HIGHWAY, load=0.5)
    >>> -130 < st.rsrp_dbm < -40
    True
    """

    def __init__(self, operator: Operator, rng: np.random.Generator) -> None:
        self._operator = operator
        self._rng = rng
        # Shadowing memory: cell id -> (last mark_m, last shadow value dB).
        self._shadow: dict[object, tuple[float, float]] = {}
        # Per-technology tables of this operator, indexed by rank.
        self._params = tuple(self._adjusted(tech) for tech in ALL_TECHNOLOGIES)
        self._noise_floor = tuple(_NOISE_FLOOR_DBM[t] for t in ALL_TECHNOLOGIES)

    def params_for(self, tech: RadioTechnology) -> PathLossParams:
        """Propagation parameters for ``tech`` including the operator's
        mmWave beam adjustment."""
        return self._params[tech.rank]

    def _adjusted(self, tech: RadioTechnology) -> PathLossParams:
        base = _PATH_LOSS[tech]
        if tech is RadioTechnology.NR_MMWAVE:
            adj = _MMWAVE_BEAM_ADJUST_DB[self._operator]
            return PathLossParams(base.ref_dbm_at_100m + adj, base.exponent, base.shadow_sigma_db)
        if tech.is_4g:
            adj = _FOURG_GRID_ADJUST_DB[self._operator]
            if adj:
                return PathLossParams(base.ref_dbm_at_100m + adj, base.exponent, base.shadow_sigma_db)
        return base

    def state(
        self,
        cell: Cell,
        mark_m: float,
        region: RegionType,
        load: float,
    ) -> ChannelState:
        """Channel state at route position ``mark_m`` served by ``cell``.

        Parameters
        ----------
        load:
            The zone's load share in (0, 1]; *other* users' activity raises
            interference, so a low available share means a high-interference
            environment.
        """
        rank = cell.technology.rank
        params = self._params[rank]
        distance = max(cell.distance_to_mark_m(mark_m), 10.0)
        mean_rsrp = params.ref_dbm_at_100m - 10.0 * params.exponent * math.log10(distance / 100.0)
        shadow = self._evolve_shadow(cell, mark_m, params.shadow_sigma_db)
        rsrp = clamp(mean_rsrp + shadow, -135.0, -45.0)

        interference = _INTERFERENCE_DB[region] + 5.0 * (1.0 - load)
        floor = self._noise_floor[rank] + interference
        sinr = clamp(rsrp - floor, -10.0, 40.0)
        return ChannelState(rsrp_dbm=rsrp, sinr_db=sinr)

    def _evolve_shadow(self, cell: Cell, mark_m: float, sigma_db: float) -> float:
        """Advance the cell's shadowing process to ``mark_m``."""
        key = cell.cell_id
        prev = self._shadow.get(key)
        if prev is None:
            # A3-style selection bias: a cell starts serving because its
            # signal crossed above the old cell's by a hysteresis margin.
            value = float(self._rng.normal(3.0, sigma_db))
        else:
            prev_mark, prev_value = prev
            moved = abs(mark_m - prev_mark)
            rho = math.exp(-moved / _SHADOW_DECORRELATION_M)
            value = rho * prev_value + float(
                math.sqrt(max(0.0, 1.0 - rho * rho)) * self._rng.normal(0.0, sigma_db)
            )
        self._shadow[key] = (mark_m, value)
        # Bound the dictionary: drop entries for cells left far behind.
        if len(self._shadow) > 64:
            self._shadow = dict(
                sorted(self._shadow.items(), key=lambda kv: kv[1][0])[-32:]
            )
        return value
