"""Per-operator radio deployment along the route.

This module is the generative heart of the reproduction's substrate.  The
paper's UEs experienced, per operator, a *piecewise* radio environment: each
stretch of road is dominated by one serving cell per technology layer, and the
set of technologies deployed there reflects the operator's strategy —
Verizon's mmWave downtown, T-Mobile's broad midband, AT&T's LTE-A backbone
(§4.2).  We model this as a partition of the route into
:class:`DeploymentZone` s.  For each zone we draw:

* the *best deployed technology* from a calibrated mix conditioned on
  (operator, region type, timezone) — calibration targets are the coverage
  percentages of Fig. 2;
* the full deployed technology set (LTE always; lower tiers fill in below the
  best tech);
* per-direction cell load factors (the share of cell capacity our single UE
  can obtain), including occasional deeply congested/backhaul-limited zones —
  the paper's "performance is often poor even in areas with full high-speed
  5G coverage" (§5.2);
* cell sites (one per deployed technology) with positions used by the channel
  model.

Two independent partitions exist per operator:

* the **active** partition, dense small cells crossed during throughput and
  app tests (drives handover rates of Fig. 11);
* the **macro** partition, the sparse LTE anchor grid that the passive
  handover-logger phones camped on for the whole trip (drives Table 1's
  trip-wide handover counts).

Each partition is a :class:`ZoneLayer`: a struct of read-only numpy arrays
(zone marks, region/timezone/best-tech codes, deployed-set bitmasks, loads,
and one row per cell site with its id, marks and position), read as a
sequence of immutable :class:`DeploymentZone` views.  The whole route is
generated at once, each layer from its own jump of the generator: zone
lengths one route segment's block at a time so the segment's region median
applies, every other attribute in one draw over all zones.  Like the paper's phones, which drove through one network per
carrier, a campaign has one world per (seed, operator):
:meth:`DeploymentModel.world` draws it from its own stream of the root seed
and keeps it in a small per-process memo, so every route window of every
shard in the process shares it.  Rebuilding costs milliseconds, so worlds
are never written to disk.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import OrderedDict
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from repro.errors import DeploymentError
from repro.geo.coords import LatLon
from repro.geo.regions import ALL_REGION_TYPES, RegionType
from repro.geo.route import Route
from repro.geo.timezones import ALL_TIMEZONES, Timezone
from repro.radio.cells import Cell, CellId
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology
from repro.rng import RngFactory

__all__ = [
    "TechMix",
    "DEFAULT_TECH_MIX",
    "TIMEZONE_5G_MULTIPLIER",
    "ZoneLengthParams",
    "DeploymentZone",
    "ZoneLayer",
    "DeploymentModel",
    "DEPLOYED_SETS",
]

TechMix = dict[RadioTechnology, float]

_LTE = RadioTechnology.LTE
_LTE_A = RadioTechnology.LTE_A
_NR_LOW = RadioTechnology.NR_LOW
_NR_MID = RadioTechnology.NR_MID
_NR_MM = RadioTechnology.NR_MMWAVE


def _mix(mmw: float, mid: float, low: float, ltea: float, lte: float) -> TechMix:
    """Build a technology mix, validating it sums to 1."""
    mix = {_NR_MM: mmw, _NR_MID: mid, _NR_LOW: low, _LTE_A: ltea, _LTE: lte}
    total = sum(mix.values())
    if abs(total - 1.0) > 1e-9:
        raise DeploymentError(f"technology mix sums to {total}, expected 1.0")
    if any(p < 0.0 for p in mix.values()):
        raise DeploymentError("technology mix has negative probabilities")
    return mix


#: Best-deployed-technology mix by operator and region.  Calibrated against
#: Fig. 2a/2c/2d: T-Mobile ~68% 5G (~38% high-speed); Verizon/AT&T ~18-22% 5G
#: with Verizon mmWave concentrated in cities (43% high-speed 5G at low
#: speeds) and AT&T's high-speed 5G a mere ~3% overall.
DEFAULT_TECH_MIX: dict[Operator, dict[RegionType, TechMix]] = {
    Operator.VERIZON: {
        RegionType.CITY: _mix(0.30, 0.13, 0.17, 0.30, 0.10),
        RegionType.SUBURBAN: _mix(0.00, 0.06, 0.10, 0.55, 0.29),
        RegionType.HIGHWAY: _mix(0.005, 0.10, 0.07, 0.52, 0.305),
    },
    Operator.TMOBILE: {
        RegionType.CITY: _mix(0.01, 0.60, 0.22, 0.12, 0.05),
        RegionType.SUBURBAN: _mix(0.00, 0.42, 0.28, 0.18, 0.12),
        RegionType.HIGHWAY: _mix(0.002, 0.36, 0.30, 0.20, 0.138),
    },
    Operator.ATT: {
        RegionType.CITY: _mix(0.08, 0.06, 0.31, 0.40, 0.15),
        RegionType.SUBURBAN: _mix(0.00, 0.02, 0.14, 0.55, 0.29),
        RegionType.HIGHWAY: _mix(0.001, 0.02, 0.16, 0.60, 0.219),
    },
}

#: Multiplier applied to all 5G probabilities per timezone (then
#: renormalised against the 4G mass).  Encodes Fig. 2c's regional diversity:
#: Verizon's stronger eastern 5G, T-Mobile's Pacific midband emphasis,
#: AT&T's weak Mountain/Central deployment.
TIMEZONE_5G_MULTIPLIER: dict[Operator, dict[Timezone, float]] = {
    Operator.VERIZON: {
        Timezone.PACIFIC: 1.00,
        Timezone.MOUNTAIN: 0.60,
        Timezone.CENTRAL: 1.25,
        Timezone.EASTERN: 1.30,
    },
    Operator.TMOBILE: {
        Timezone.PACIFIC: 1.25,
        Timezone.MOUNTAIN: 0.85,
        Timezone.CENTRAL: 1.00,
        Timezone.EASTERN: 1.05,
    },
    Operator.ATT: {
        Timezone.PACIFIC: 1.50,
        Timezone.MOUNTAIN: 0.45,
        Timezone.CENTRAL: 0.50,
        Timezone.EASTERN: 1.50,
    },
}


def adjusted_mix(operator: Operator, region: RegionType, tz: Timezone) -> TechMix:
    """Return the best-tech mix for a zone, with the timezone 5G multiplier
    applied and the distribution renormalised.

    The 5G mass is scaled by the operator's timezone multiplier (capped so it
    never exceeds 95%), and the 4G technologies absorb the complement in
    their original proportion.
    """
    base = DEFAULT_TECH_MIX[operator][region]
    mult = TIMEZONE_5G_MULTIPLIER[operator][tz]
    nr_mass = sum(p for t, p in base.items() if t.is_5g)
    fourg_mass = 1.0 - nr_mass
    new_nr_mass = min(nr_mass * mult, 0.95)
    if fourg_mass <= 0.0:
        return dict(base)
    nr_scale = new_nr_mass / nr_mass if nr_mass > 0 else 0.0
    fourg_scale = (1.0 - new_nr_mass) / fourg_mass
    return {
        t: p * (nr_scale if t.is_5g else fourg_scale) for t, p in base.items()
    }


@dataclass(frozen=True, slots=True)
class ZoneLengthParams:
    """Lognormal zone-length parameters (meters)."""

    median_m: float
    sigma: float = 0.45

    def sample(self, rng: np.random.Generator) -> float:
        """Draw a zone length; clipped to a sane [80 m, 20 km] envelope."""
        return float(self.lengths(rng, 1)[0])

    def lengths(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` zone lengths at once, clipped like :meth:`sample`.

        The exponential is libm's (``math.exp``), not numpy's array ``exp``,
        whose SIMD kernels depend on the host CPU (DESIGN.md §6).
        """
        z = rng.standard_normal(n)
        factors = np.array([math.exp(v) for v in (self.sigma * z).tolist()])
        lengths = self.median_m * factors
        return np.minimum(np.maximum(lengths, _MIN_ZONE_M), _MAX_ZONE_M)


_MIN_ZONE_M, _MAX_ZONE_M = 80.0, 20_000.0


#: Active-layer zone length medians by region.  Highway medians are
#: per-operator (below); these are the city/suburban values.
_ACTIVE_ZONE_MEDIAN_M: dict[RegionType, float] = {
    RegionType.CITY: 450.0,
    RegionType.SUBURBAN: 1400.0,
}

#: Per-operator highway zone medians, calibrated to Fig. 11a's median
#: 1-3 handovers/mile during 30 s throughput tests.
_ACTIVE_HIGHWAY_MEDIAN_M: dict[Operator, float] = {
    Operator.VERIZON: 700.0,
    Operator.TMOBILE: 750.0,
    Operator.ATT: 1000.0,
}

#: Macro (LTE anchor) zone medians — the sparse grid the passive
#: handover-loggers camped on, calibrated to Table 1's trip-wide HO counts
#: (2657 / 4119 / 2494 for V / T / A over 5711 km).
_MACRO_ZONE_MEDIAN_M: dict[Operator, float] = {
    Operator.VERIZON: 2050.0,
    Operator.TMOBILE: 1320.0,
    Operator.ATT: 2180.0,
}

#: Zone-level congestion model: the share of cell capacity a single UE can
#: obtain.  ``deep_congestion_prob`` zones are effectively unusable
#: (backhaul-limited or overloaded), producing the paper's ~35% of samples
#: below 5 Mbps (§5.1) even under nominal 5G coverage.
_LOAD_BETA_A = 1.5
_LOAD_BETA_B = 3.0
_DEEP_CONGESTION_PROB = {
    Operator.VERIZON: 0.22,
    Operator.TMOBILE: 0.20,
    Operator.ATT: 0.24,
}
_DEEP_CONGESTION_RANGE = (0.01, 0.10)
#: The Mountain-timezone stretch is served by sparse rural sites with long
#: backhaul: extra deep-congestion probability and a capacity haircut
#: (Fig. 5: 'the performance in the Mountain timezone is low for all three
#: carriers').
_MOUNTAIN_EXTRA_CONGESTION = 0.10
_MOUNTAIN_LOAD_SCALE = 0.75
#: Uplink contention is lighter: far fewer users saturate the uplink.
_UL_LOAD_BETA_A = 1.9
_UL_LOAD_BETA_B = 2.3
_UL_DEEP_CONGESTION_PROB = 0.10


#: Distance of a cell site from the roadside, by region (meters).
_PERPENDICULAR_RANGE_M: dict[RegionType, tuple[float, float]] = {
    RegionType.CITY: (25.0, 220.0),
    RegionType.SUBURBAN: (60.0, 450.0),
    RegionType.HIGHWAY: (50.0, 500.0),
}

#: Sequence number of the first macro cell, keeping the macro layer's cell
#: ids disjoint from the active layer's (numbered from 1).
_MACRO_SEQ_BASE = 1_000_001

#: Worlds :meth:`DeploymentModel.world` keeps per process: a two-seed
#: sweep's six (seed, operator) pairs, twice over.
_WORLD_MEMO_SIZE = 12

# Array codes: a region is its index in ALL_REGION_TYPES, a timezone its
# index in ALL_TIMEZONES and a technology its rank (its ALL_TECHNOLOGIES
# index); a deployed set is a bitmask over ranks.
_IS_MOUNTAIN = np.array([tz is Timezone.MOUNTAIN for tz in ALL_TIMEZONES])
#: Extra deep-congestion probability and load scale, per timezone code.
_EXTRA_CONGESTION_BY_TZ = np.where(_IS_MOUNTAIN, _MOUNTAIN_EXTRA_CONGESTION, 0.0)
_LOAD_SCALE_BY_TZ = np.where(_IS_MOUNTAIN, _MOUNTAIN_LOAD_SCALE, 1.0)
#: Technology order of the best-tech inverse CDF (the mix tables' order).
_MIX_ORDER = (_NR_MM, _NR_MID, _NR_LOW, _LTE_A, _LTE)
_MIX_RANKS = np.array([t.rank for t in _MIX_ORDER], dtype=np.int8)
#: Every deployed technology set, indexed by its bitmask over ranks.
DEPLOYED_SETS: tuple[frozenset[RadioTechnology], ...] = tuple(
    frozenset(t for t in ALL_TECHNOLOGIES if mask >> t.rank & 1)
    for mask in range(1 << len(ALL_TECHNOLOGIES))
)
_PERP_LO = np.array([_PERPENDICULAR_RANGE_M[r][0] for r in ALL_REGION_TYPES])
_PERP_HI = np.array([_PERPENDICULAR_RANGE_M[r][1] for r in ALL_REGION_TYPES])


class DeploymentZone(NamedTuple):
    """One stretch of road with a fixed radio configuration for an operator.

    An immutable view of one zone of a :class:`ZoneLayer`.  The layer builds
    its views once and returns the same objects ever after; worlds are
    shared by every campaign in the process.
    """

    index: int
    operator: Operator
    start_m: float
    end_m: float
    region: RegionType
    timezone: Timezone
    #: The most capable technology deployed here.
    best_tech: RadioTechnology
    #: All deployed technologies (always includes LTE).
    deployed: frozenset[RadioTechnology]
    #: Capacity share available to our UE, per direction (0, 1].
    load_dl: float
    load_ul: float
    layer: "ZoneLayer"

    @property
    def length_m(self) -> float:
        return self.end_m - self.start_m

    @property
    def cells(self) -> Mapping[RadioTechnology, Cell]:
        """One serving cell per deployed technology."""
        return self.layer.cells(self.index)

    def cell_for(self, tech: RadioTechnology) -> Cell:
        """Serving cell for a deployed technology.

        Raises
        ------
        DeploymentError
            If ``tech`` is not deployed in this zone.
        """
        try:
            return self.layer.cells(self.index)[tech]
        except KeyError:
            raise DeploymentError(
                f"{tech} not deployed in zone {self.index} of {self.operator}"
            ) from None


class ZoneLayer(Sequence[DeploymentZone]):
    """One layer of a deployment: a struct of read-only arrays, read as a
    sequence of :class:`DeploymentZone` views.

    Zone arrays (one entry per zone, in route order) are named in
    :attr:`ZONE_ARRAYS`; ``cell_start`` holds ``n + 1`` offsets into the
    cell arrays of :attr:`CELL_ARRAYS` (one entry per cell site, zone by
    zone, ascending rank).  A deployed technology without a cell of its own
    (the macro layer's LTE under an LTE-A anchor) is served by the zone's
    best-technology cell.  Views and cells are built on first use.
    """

    ZONE_ARRAYS = (
        "start_m", "end_m", "region", "timezone", "best_tech", "deployed",
        "load_dl", "load_ul", "cell_start",
    )
    CELL_ARRAYS = (
        "cell_tech", "cell_seq", "site_mark_m", "perpendicular_m",
        "site_lat", "site_lon",
    )

    def __init__(self, operator: Operator, arrays: Mapping[str, np.ndarray]) -> None:
        self.operator = operator
        self.arrays = MappingProxyType(
            {name: arrays[name] for name in self.ZONE_ARRAYS + self.CELL_ARRAYS}
        )
        for arr in self.arrays.values():
            arr.flags.writeable = False
        if not len(self.arrays["start_m"]):
            raise DeploymentError("deployment requires at least one zone per layer")
        self._starts: list[float] = self.arrays["start_m"].tolist()
        self._route_end_m = float(self.arrays["end_m"][-1])
        self._cells: dict[int, Mapping[RadioTechnology, Cell]] = {}
        self._rows: dict[int, dict[RadioTechnology, int]] = {}
        self._views: list[DeploymentZone | None] = [None] * len(self._starts)

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._view(i) for i in range(len(self))[index]]
        if type(index) is int and 0 <= index < len(self._views):
            return self._view(index)
        return self._view(range(len(self))[index])

    def __iter__(self) -> Iterator[DeploymentZone]:
        return map(self._view, range(len(self)))

    def at(self, mark_m: float) -> DeploymentZone:
        """The zone containing route distance ``mark_m``."""
        if mark_m < 0.0 or mark_m > self._route_end_m:
            raise DeploymentError(
                f"mark {mark_m} outside deployed range [0, {self._route_end_m}]"
            )
        return self._view(max(bisect.bisect_right(self._starts, mark_m) - 1, 0))

    def index_at(self, marks_m: np.ndarray) -> np.ndarray:
        """:meth:`at` for an array of route distances: the indices of the
        zones containing them."""
        if marks_m.size and (marks_m.min() < 0.0 or marks_m.max() > self._route_end_m):
            raise DeploymentError(
                f"marks outside deployed range [0, {self._route_end_m}]"
            )
        starts = self.arrays["start_m"]
        return np.maximum(np.searchsorted(starts, marks_m, side="right") - 1, 0)

    def overlapping(self, start_m: float, end_m: float) -> slice:
        """The zones overlapping ``[start_m, end_m)``, as a slice of the
        layer."""
        first = max(bisect.bisect_right(self._starts, start_m) - 1, 0)
        return slice(first, bisect.bisect_left(self._starts, end_m))

    def cell_keys(self, zones: slice) -> frozenset[int]:
        """Every cell site of the zones ``zones`` (a slice of the layer, like
        :meth:`overlapping` returns) as a ``seq << 3 | tech rank`` key, the
        int a phone's session keys its cells by (one operator's sequences
        are unique per technology)."""
        offsets = self.arrays["cell_start"]
        lo, hi = offsets[zones.start], offsets[zones.stop]
        keys = self.arrays["cell_seq"][lo:hi] << 3 | self.arrays["cell_tech"][lo:hi]
        return frozenset(keys.tolist())

    def cells(self, index: int) -> Mapping[RadioTechnology, Cell]:
        """Zone ``index``'s serving cell per deployed technology."""
        cells = self._cells.get(index)
        if cells is None:
            _, tech, seq, mark, perp, lat, lon = self._cell_columns
            built: dict[int, Cell] = {}
            for c in sorted(set(self._cell_rows(index).values())):
                built[c] = Cell(
                    cell_id=CellId(self.operator, tech[c], seq[c]),
                    site=LatLon(lat[c], lon[c]),
                    site_mark_m=mark[c],
                    perpendicular_m=perp[c],
                )
            cells = self._cells[index] = MappingProxyType(
                {t: built[c] for t, c in self._cell_rows(index).items()}
            )
        return cells

    def serving_site(self, index: int, tech: RadioTechnology) -> tuple[int, float, float]:
        """Zone ``index``'s serving cell for ``tech`` as its sequence, site
        mark and perpendicular offset: the fields of ``cells(index)[tech]``
        the link kernel reads, without building the cell."""
        try:
            c = self._cell_rows(index)[tech]
        except KeyError:
            raise DeploymentError(
                f"{tech} not deployed in zone {index} of {self.operator}"
            ) from None
        _, _, seq, mark, perp, _, _ = self._cell_columns
        return seq[c], mark[c], perp[c]

    def _cell_rows(self, index: int) -> dict[RadioTechnology, int]:
        """Zone ``index``'s serving cell per deployed technology, as a row
        of the cell arrays: the technology's own cell, or the zone's
        best-technology cell (the anchor) when it has none."""
        rows = self._rows.get(index)
        if rows is None:
            offsets, tech = self._cell_columns[:2]
            own = {tech[c]: c for c in range(offsets[index], offsets[index + 1])}
            zone = self._view(index)
            anchor = own[zone.best_tech]
            rows = self._rows[index] = {t: own.get(t, anchor) for t in zone.deployed}
        return rows

    def _view(self, index: int) -> DeploymentZone:
        """Zone ``index``'s view (``0 <= index < len(self)``), built on
        first use: a campaign window visits a small share of the zones."""
        view = self._views[index]
        if view is None:
            view = self._views[index] = DeploymentZone(
                index, self.operator, *(col[index] for col in self._zone_columns), self
            )
        return view

    @functools.cached_property
    def _zone_columns(self) -> tuple[list, ...]:
        """The view fields from ``start_m`` to ``load_ul``, as lists."""
        a = self.arrays
        return (
            self._starts,
            a["end_m"].tolist(),
            _members(a["region"], ALL_REGION_TYPES),
            _members(a["timezone"], ALL_TIMEZONES),
            _members(a["best_tech"], ALL_TECHNOLOGIES),
            _members(a["deployed"], DEPLOYED_SETS),
            a["load_dl"].tolist(),
            a["load_ul"].tolist(),
        )

    @functools.cached_property
    def _cell_columns(self) -> tuple[list, ...]:
        a = self.arrays
        return (
            a["cell_start"].tolist(),
            _members(a["cell_tech"], ALL_TECHNOLOGIES),
            *(a[name].tolist() for name in self.CELL_ARRAYS[1:]),
        )


def _members(codes: np.ndarray, table: Sequence) -> list:
    """The Python values an array of codes stands for."""
    return [table[code] for code in codes.tolist()]


@dataclass(frozen=True, eq=False)
class DeploymentModel:
    """The full radio deployment of one operator along a route.

    Get the campaign world with :meth:`world` (or generate one from any
    generator with :meth:`build`); query zones by route distance with
    :meth:`zone_at` (active layer) or :meth:`macro_zone_at` (LTE anchor grid
    seen by the passive handover-logger).
    """

    operator: Operator
    zones: ZoneLayer
    macro_zones: ZoneLayer

    # -- queries ---------------------------------------------------------

    def zone_at(self, mark_m: float) -> DeploymentZone:
        """Active-layer zone containing route distance ``mark_m``."""
        return self.zones.at(mark_m)

    def macro_zone_at(self, mark_m: float) -> DeploymentZone:
        """Macro (LTE anchor) zone containing route distance ``mark_m``."""
        return self.macro_zones.at(mark_m)

    # -- construction ----------------------------------------------------

    @classmethod
    def world(cls, operator: Operator, route: Route, seed: int) -> "DeploymentModel":
        """The operator's deployment for campaign seed ``seed``.

        Generated over the whole route from the stream
        ``SeedSequence([seed, crc32("deploy-<code>")])``, so it depends on
        nothing but ``(route, seed, operator)``: not on route windows,
        executors or worker counts.  Each process keeps the last
        :data:`_WORLD_MEMO_SIZE` worlds; rebuilding one costs milliseconds.
        """
        key = (route.digest, seed, operator)
        model = _WORLDS.get(key)
        if model is None:
            rng = RngFactory(seed).fresh(f"deploy-{operator.code}")
            model = _WORLDS[key] = cls.build(operator, route, rng)
            while len(_WORLDS) > _WORLD_MEMO_SIZE:
                _WORLDS.popitem(last=False)
        else:
            _WORLDS.move_to_end(key)
        return model

    @classmethod
    def build(
        cls,
        operator: Operator,
        route: Route,
        rng: np.random.Generator,
        tech_mix: dict[RegionType, TechMix] | None = None,
    ) -> "DeploymentModel":
        """Generate the operator's deployment for ``route`` from ``rng``.

        Parameters
        ----------
        operator:
            The carrier whose strategy (mix tables, zone densities) to use.
        route:
            The drive route to cover.
        rng:
            Source of randomness; the same generator state always produces
            the same deployment.
        tech_mix:
            Optional override of the per-region best-technology mix,
            bypassing :data:`DEFAULT_TECH_MIX` (used for ablations).
        """
        # Each layer draws from its own jump of the stream, so changing one
        # layer's model never reshuffles the other.
        active_rng, macro_rng = (
            np.random.Generator(rng.bit_generator.jumped(jumps)) for jumps in (1, 2)
        )
        active = ZoneLayer(operator, _active_layer(operator, route, active_rng, tech_mix))
        macro = ZoneLayer(operator, _macro_layer(operator, route, macro_rng))
        return cls(operator=operator, zones=active, macro_zones=macro)


_WORLDS: OrderedDict[tuple[str, int, Operator], DeploymentModel] = OrderedDict()


# -- array construction ------------------------------------------------------


def _zone_ends(
    rng: np.random.Generator, params: ZoneLengthParams, mark_m: float, stop_m: float
) -> np.ndarray:
    """End marks of consecutive zones laid from ``mark_m`` until one ends at
    or past ``stop_m``.  Lengths are drawn in blocks sized to cover the
    stretch; draws past the last zone of a block are discarded."""
    parts = []
    while True:
        n = int(1.5 * (stop_m - mark_m) / params.median_m) + 8
        ends = mark_m + np.cumsum(params.lengths(rng, n))
        k = int(np.searchsorted(ends, stop_m, side="left"))
        if k < n:
            parts.append(ends[: k + 1])
            return np.concatenate(parts)
        parts.append(ends)
        mark_m = float(ends[-1])


def _zone_geometry(route: Route, ends: np.ndarray) -> dict[str, np.ndarray]:
    """Start/end marks plus region and timezone codes (at each zone's
    start) of the zones tiling the route with the given end marks, the
    last clipped to the route's end."""
    end_m = np.minimum(ends, route.total_length_m)
    start_m = np.concatenate(([0.0], end_m[:-1]))
    region, _, _, timezone = route.locate(start_m)
    return {
        "start_m": start_m,
        "end_m": end_m,
        "region": region,
        "timezone": timezone.astype(np.int8),
    }


def _sites(
    route: Route, rng: np.random.Generator, lo_m: np.ndarray, hi_m: np.ndarray,
    region: np.ndarray,
) -> dict[str, np.ndarray]:
    """Cell sites drawn uniformly along ``[lo_m, hi_m)`` of the road, at a
    region-dependent distance from it."""
    site_mark = rng.uniform(lo_m, hi_m)
    perpendicular = rng.uniform(_PERP_LO[region], _PERP_HI[region])
    _, lat, lon, _ = route.locate(np.minimum(site_mark, route.total_length_m))
    return {
        "site_mark_m": site_mark,
        "perpendicular_m": perpendicular,
        "site_lat": lat,
        "site_lon": lon,
    }


def _loads(
    rng: np.random.Generator, operator: Operator, timezone: np.ndarray
) -> dict[str, np.ndarray]:
    """Per-zone capacity shares available to our UE, per direction: a
    deeply congested share with some probability, else a beta draw (scaled
    down in the Mountain timezone)."""
    extra = _EXTRA_CONGESTION_BY_TZ[timezone]
    scale = _LOAD_SCALE_BY_TZ[timezone]
    n = len(timezone)
    out = {}
    for name, deep_prob, a, b in (
        ("load_dl", _DEEP_CONGESTION_PROB[operator], _LOAD_BETA_A, _LOAD_BETA_B),
        ("load_ul", _UL_DEEP_CONGESTION_PROB, _UL_LOAD_BETA_A, _UL_LOAD_BETA_B),
    ):
        deep = rng.random(n) < deep_prob + extra
        congested = rng.uniform(*_DEEP_CONGESTION_RANGE, size=n)
        share = np.minimum(np.maximum(scale * rng.beta(a, b, size=n), 0.02), 1.0)
        out[name] = np.where(deep, congested, share)
    return out


def _best_tech_table(
    operator: Operator, tech_mix: dict[RegionType, TechMix] | None
) -> np.ndarray:
    """Cumulative best-tech probabilities, region × timezone × technology
    (in :data:`_MIX_ORDER`)."""
    table = np.zeros((len(ALL_REGION_TYPES), len(ALL_TIMEZONES), len(_MIX_ORDER)))
    for r, region in enumerate(ALL_REGION_TYPES):
        for t, tz in enumerate(ALL_TIMEZONES):
            mix = tech_mix[region] if tech_mix is not None else adjusted_mix(
                operator, region, tz
            )
            table[r, t] = np.cumsum([mix.get(tech, 0.0) for tech in _MIX_ORDER])
    return table


def _active_layer(
    operator: Operator,
    route: Route,
    rng: np.random.Generator,
    tech_mix: dict[RegionType, TechMix] | None,
) -> dict[str, np.ndarray]:
    # Zone lengths one route segment at a time, at the segment's region
    # median; every other attribute in one draw over all zones.
    total = route.total_length_m
    parts = []
    mark = 0.0
    for k, seg in enumerate(route.segments):
        seg_end = total if k == len(route.segments) - 1 else route.segment_start_m(k + 1)
        if mark >= seg_end:
            continue
        if seg.region is RegionType.HIGHWAY:
            median = _ACTIVE_HIGHWAY_MEDIAN_M[operator]
        else:
            median = _ACTIVE_ZONE_MEDIAN_M[seg.region]
        parts.append(_zone_ends(rng, ZoneLengthParams(median), mark, seg_end))
        mark = float(parts[-1][-1])
    zones = _zone_geometry(route, np.concatenate(parts))
    n = len(zones["start_m"])

    # Best technology: one inverse-CDF draw per zone.
    cdf = _best_tech_table(operator, tech_mix)[zones["region"], zones["timezone"]]
    u = rng.random(n) * cdf[:, -1]
    best = _MIX_RANKS[np.minimum((cdf <= u[:, None]).sum(axis=1), len(_MIX_ORDER) - 1)]

    # Deployed set below it: LTE always; LTE-A in most zones; the low NR
    # tier under high-speed 5G usually (NSA anchoring, layered deployments);
    # midband under mmWave half the time.
    u = rng.random((n, 3))
    deployed = (1 << _LTE.rank) | (1 << best.astype(np.int64))
    deployed |= np.where((best >= _LTE_A.rank) | (u[:, 0] < 0.85), 1 << _LTE_A.rank, 0)
    deployed |= np.where((best > _NR_LOW.rank) & (u[:, 1] < 0.7), 1 << _NR_LOW.rank, 0)
    deployed |= np.where((best == _NR_MM.rank) & (u[:, 2] < 0.5), 1 << _NR_MID.rank, 0)

    # One site per deployed technology, in the middle 60% of its zone.
    has_cell = (deployed[:, None] >> np.arange(len(ALL_TECHNOLOGIES))) & 1
    zone_of, cell_tech = np.nonzero(has_cell)
    start, length = zones["start_m"][zone_of], (zones["end_m"] - zones["start_m"])[zone_of]
    sites = _sites(
        route, rng, start + 0.2 * length, start + 0.8 * length, zones["region"][zone_of]
    )
    return {
        **zones,
        "best_tech": best,
        "deployed": deployed.astype(np.uint8),
        **_loads(rng, operator, zones["timezone"]),
        "cell_start": np.concatenate(([0], np.cumsum(has_cell.sum(axis=1)))),
        "cell_tech": cell_tech.astype(np.int8),
        "cell_seq": np.arange(1, len(zone_of) + 1, dtype=np.int64),
        **sites,
    }


def _macro_layer(
    operator: Operator, route: Route, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    params = ZoneLengthParams(_MACRO_ZONE_MEDIAN_M[operator], sigma=0.5)
    zones = _zone_geometry(route, _zone_ends(rng, params, 0.0, route.total_length_m))
    n = len(zones["start_m"])
    sites = _sites(route, rng, zones["start_m"], zones["end_m"], zones["region"])
    tech = np.where(rng.random(n) < 0.6, _LTE_A.rank, _LTE.rank).astype(np.int8)
    return {
        **zones,
        "best_tech": tech,
        "deployed": ((1 << _LTE.rank) | (1 << tech.astype(np.int64))).astype(np.uint8),
        **_loads(rng, operator, zones["timezone"]),
        "cell_start": np.arange(n + 1),
        "cell_tech": tech,
        "cell_seq": np.arange(_MACRO_SEQ_BASE, _MACRO_SEQ_BASE + n, dtype=np.int64),
        **sites,
    }
