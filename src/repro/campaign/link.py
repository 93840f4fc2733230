"""Per-operator UE session: the radio stack as a test-block kernel.

A :class:`UESession` bundles everything one carrier's phone experiences —
deployment lookup, technology selection, channel, PHY, carrier aggregation,
handover tracking, RTT sampling and the test's TCP flow.  This is the
synthetic equivalent of "a Samsung S21 with an XCAL Solo probe attached".

The session does not tick.  :meth:`UESession.drive` runs one tight scalar
scan over a whole test block: the vehicle's path comes first, as arrays
(:class:`VehiclePath`: every tick's time, mark, speed, region and
position), and the scan returns the block's observations as
:class:`LinkColumns`, one list per KPI.  :meth:`UESession.park` does the
same for a phone parked in front of a base station.  There are no
per-tick objects.

The campaign runs its three phones one after another over a block, not
tick by tick.  That draws exactly what the tick-major loop drew, because
every stream a tick touches belongs to one operator: ``select-``,
``channel-``, ``phy-``, ``ca-``, ``ho-``, ``rtt-``, ``misc-`` and
``tcp-<op>``.  Inside a scan each stream's draws keep their order and
arguments.  The hot ones are written as the arithmetic numpy performs:
``uniform(a, b)`` as ``a + (b - a) * random()``, ``normal(m, s)`` as
``m + s * standard_normal()`` and ``lognormal(m, s)`` as
``exp(m + s * standard_normal())`` (the kernel parity tests check these
identities).  The sticky caches keep their bounds and eviction order,
because an evicted key draws again: technology selection 256 → 128 keys
(:class:`~repro.policy.selection.TechnologySelector`), CC counts 512 → 256
and shadowing 64 → 32 cells by last mark.  Path loss, shadowing, BLER and
the RTT's arcsine stay ``math`` (libm) calls; only arithmetic and ufuncs
that agree with ``math`` bit for bit are vectorised (DESIGN.md §6).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.geo.coords import haversine_from_m
from repro.geo.regions import ALL_REGION_TYPES, RegionType
from repro.geo.route import RoutePosition
from repro.mobility import engine as handover_engine
from repro.mobility.engine import HandoverDurationParams
from repro.net import latency
from repro.net.servers import Server
from repro.net.tcp import CubicFlow
from repro.policy.profiles import PolicyProfile, TrafficProfile
from repro.policy.selection import TechnologySelector
from repro.radio import channel, phy
from repro.radio.ca import CarrierAggregationModel, Direction
from repro.radio.cells import Cell
from repro.radio.channel import ChannelModel
from repro.radio.deployment import DeploymentModel, DeploymentZone
from repro.radio.operators import Operator
from repro.radio.phy import PhyModel
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology
from repro.rng import RngFactory

__all__ = ["LinkColumns", "StaticSite", "UESession", "VehiclePath"]

#: AT&T's mmWave uplink was essentially non-functional while driving: the
#: paper found 90% of its mmWave UL samples below 0.5 Mbps (§5.2).
_ATT_MMWAVE_UL_BREAK_PROB = 0.9
_ATT_MMWAVE_UL_FACTOR_RANGE = (0.002, 0.02)

#: Factor applied to the sampled (unloaded) RTT to approximate the RTT a
#: saturating TCP flow experiences (self-induced queueing).
_TCP_RTT_INFLATION = 1.3
_TCP_RTT_FLOOR_MS = 15.0

#: Ping-pong neighbours are numbered this far above the real cell.
_PINGPONG_SEQ_OFFSET = 500_000

_MMWAVE = RadioTechnology.NR_MMWAVE.rank
_IS_4G = tuple(t.is_4g for t in ALL_TECHNOLOGIES)
#: ``ChannelModel.state``'s interference margin, by region code.
_INTERFERENCE_DB = np.array([channel._INTERFERENCE_DB[r] for r in ALL_REGION_TYPES])
_CITY_INTERFERENCE_DB = channel._INTERFERENCE_DB[RegionType.CITY]
_NOISE_FLOOR_DBM = tuple(channel._NOISE_FLOOR_DBM[t] for t in ALL_TECHNOLOGIES)
_SHADOW_DECORRELATION_M = channel._SHADOW_DECORRELATION_M
_SINR_FLOOR_DB = phy._SINR_FLOOR_DB
_SINR_SPAN_DB = phy._SINR_CEILING_DB - phy._SINR_FLOOR_DB
_MAX_MCS = phy.MAX_MCS_INDEX
_SPEED_SINR_PENALTY = PhyModel.SPEED_SINR_PENALTY_DB_PER_MPH
_STATIC_JITTER_LOG_MEDIAN = float(np.log(latency._STATIC_JITTER_MEDIAN_MS))


def _shadow_mark(item: tuple) -> float:
    return item[1][0]


def _shadowing(shadow: dict, seq: int, mark: float, sigma: float, normal) -> float:
    """``ChannelModel._evolve_shadow`` on a memory keyed by cell sequence:
    the cell's correlated shadowing at ``mark`` (dB), stored; past 64
    cells the memory keeps the 32 seen last, by mark, in that order."""
    prev = shadow.get(seq)
    if prev is None:
        # A3-style selection bias: a cell starts serving because its
        # signal crossed above the old cell's by a hysteresis margin.
        value = 3.0 + sigma * normal()
    else:
        rho = math.exp(-abs(mark - prev[0]) / _SHADOW_DECORRELATION_M)
        value = rho * prev[1] + math.sqrt(max(0.0, 1.0 - rho * rho)) * (
            0.0 + sigma * normal()
        )
    shadow[seq] = (mark, value)
    if len(shadow) > 64:
        kept = sorted(shadow.items(), key=_shadow_mark)[-32:]
        shadow.clear()
        shadow.update(kept)
    return value


def _mcs_bler(sinr: float, speed_mph: float, normal, random) -> tuple[int, float]:
    """``PhyModel.mcs_from_sinr`` and ``bler_from_sinr`` at ``speed_mph``,
    drawing as they do: a normal, a uniform, a normal."""
    v = 0.0 if 0.0 > speed_mph else speed_mph
    raw = (sinr - _SPEED_SINR_PENALTY * v - _SINR_FLOOR_DB) / _SINR_SPAN_DB * _MAX_MCS + (
        0.0 + 1.5 * normal()
    )
    mcs = round(raw)
    mcs = 0 if mcs < 0 else _MAX_MCS if mcs > _MAX_MCS else mcs
    x = (sinr - 4.0) / 2.5
    x = -60.0 if x < -60.0 else 60.0 if x > 60.0 else x
    base = 0.03 + 0.25 / (1.0 + math.exp(x))
    penalty = 0.0008 * v * (0.5 + 1.0 * random())
    bler = base + penalty + (0.0 + 0.01 * normal())
    return mcs, 0.002 if bler < 0.002 else 0.85 if bler > 0.85 else bler


@functools.cache
def _operator_tables(operator: Operator) -> tuple:
    """One operator's per-technology tables, indexed by rank: path loss
    (reference power, 10 x exponent, shadowing sigma); the PHY's capacity
    before BLER and load, by direction, then rank, CC count and MCS; and
    the RTT model's speed sensitivity, jitter scale, RAN and extra core
    latency."""
    params = ChannelModel(operator, None)
    path_loss = tuple(
        (p.ref_dbm_at_100m, 10.0 * p.exponent, p.shadow_sigma_db)
        for p in map(params.params_for, ALL_TECHNOLOGIES)
    )
    model = PhyModel(None, operator)
    capacity = {
        direction: tuple(
            (None,) + tuple(
                tuple(
                    model.capacity_total(tech, mcs, n_ccs, direction)
                    for mcs in range(_MAX_MCS + 1)
                )
                for n_ccs in range(1, 9)
            )
            for tech in ALL_TECHNOLOGIES
        )
        for direction in Direction.ALL
    }
    rtt = latency.RttModel(operator, None)
    rtt_tables = (
        rtt._speed_sensitivity,
        rtt._jitter_scale,
        tuple(2.0 * t.ran_latency_ms for t in ALL_TECHNOLOGIES),
        rtt._extra_ms,
    )
    return path_loss, capacity, rtt_tables


class VehiclePath(NamedTuple):
    """The vehicle over one test block, one entry per tick: the clock,
    route mark and speed after each step, and the route's region,
    timezone (codes) and position at each mark."""

    time_s: list[float]
    mark_m: np.ndarray
    speed_mph: list[float]
    region: np.ndarray
    timezone: np.ndarray
    lat: np.ndarray
    lon: np.ndarray


class LinkColumns(NamedTuple):
    """One phone's observations over one test block.

    The tick columns hold one value per tick (``tech`` as ranks);
    ``tput_mbps`` is empty unless the block ran a TCP flow.  The handover
    columns hold one value per handover, in tick order: its tick, duration,
    and the technology rank and sequence of the cells it left and joined.
    """

    tech: list[int]
    rsrp_dbm: list[float]
    mcs: list[int]
    bler: list[float]
    n_ccs: list[int]
    capacity_dl_mbps: list[float]
    capacity_ul_mbps: list[float]
    rtt_ms: list[float]
    tput_mbps: list[float]
    ho_tick: list[int]
    ho_duration_ms: list[float]
    ho_from_tech: list[int]
    ho_from_seq: list[int]
    ho_to_tech: list[int]
    ho_to_seq: list[int]


@dataclass(frozen=True, slots=True)
class StaticSite:
    """A parked measurement position facing a chosen base station."""

    tech: RadioTechnology
    cell: Cell
    load: float


class UESession:
    """One operator's phone through the whole campaign.

    Parameters
    ----------
    operator:
        The carrier of this phone's SIM.
    deployment:
        The carrier's radio deployment along the route.
    rng_factory:
        Source of named substreams; each subsystem gets its own.
    """

    def __init__(
        self,
        operator: Operator,
        deployment: DeploymentModel,
        rng_factory: RngFactory,
        policy_profile: "PolicyProfile | None" = None,
    ) -> None:
        self.operator = operator
        self.deployment = deployment
        tag = operator.code
        self._selector = TechnologySelector(
            operator, rng_factory.stream(f"select-{tag}"), profile=policy_profile
        )
        #: The resolved policy (the operator's default unless overridden);
        #: the passive handover-logger of this operator follows it too.
        self.policy_profile = self._selector.profile
        self._channel = rng_factory.stream(f"channel-{tag}")
        self._phy = rng_factory.stream(f"phy-{tag}")
        self._ca = CarrierAggregationModel(rng_factory.stream(f"ca-{tag}"))
        self._ho = rng_factory.stream(f"ho-{tag}")
        self._rtt = rng_factory.stream(f"rtt-{tag}")
        self._misc = rng_factory.stream(f"misc-{tag}")
        self._tcp = rng_factory.stream(f"tcp-{tag}")
        self._path_loss, self._capacity, self._rtt_tables = _operator_tables(operator)
        # Sticky CA configuration per (zone index, tech rank, direction),
        # keyed by one int; parked sites use negative zone indices.
        self._cc_cache: dict[int, int] = {}
        # Shadowing memory: cell sequence -> (last mark, last value dB).
        # Cell sequences are unique within an operator's active layer.
        self._shadow: dict[int, tuple[float, float]] = {}
        # Cells as ``seq << 3 | rank`` ints: the serving cell (None while
        # detached) and every cell served while driving.
        self._serving: int | None = None
        self._connected: set[int] = set()

    # -- state -------------------------------------------------------------

    @property
    def connected_cell_keys(self) -> frozenset[int]:
        """All distinct cells this phone has been served by while driving,
        as ``seq << 3 | tech rank`` keys (:meth:`ZoneLayer.cell_keys`)."""
        return frozenset(self._connected)

    def reset_serving(self) -> None:
        """Forget the serving cell (e.g. between distant test locations)."""
        self._serving = None

    # -- driving -------------------------------------------------------------

    def drive(
        self,
        path: VehiclePath,
        traffic: TrafficProfile,
        direction: str,
        server: Server,
        dt_s: float,
        flow: bool = False,
    ) -> LinkColumns:
        """Observe the link at every tick of ``path`` while driving.

        ``flow`` runs a fresh TCP flow in ``direction`` over the block.
        """
        layer = self.deployment.zones
        zones = layer.index_at(path.mark_m)
        other = Direction.UPLINK if direction == Direction.DOWNLINK else Direction.DOWNLINK
        load_name = "load_ul" if direction == Direction.UPLINK else "load_dl"
        interference = (
            _INTERFERENCE_DB[path.region] + 5.0 * (1.0 - layer.arrays[load_name][zones])
        ).tolist()
        path_ms = [
            d / 1000.0 * latency._FIBRE_RTT_MS_PER_KM
            for d in haversine_from_m(server.location, path.lat, path.lon)
        ]
        sensitivity, jitter_scale, ran_ms, extra_ms = self._rtt_tables
        speed = np.asarray(path.speed_mph)
        log_median = np.log(
            latency._DRIVING_JITTER_MEDIAN_MS
            * (1.0 + sensitivity * np.maximum(speed, 0.0) / 60.0)
            * jitter_scale
        ).tolist()
        core_ms = latency._CORE_OVERHEAD_MS[server.kind]
        att = self.operator is Operator.ATT
        ul_lo, ul_hi = _ATT_MMWAVE_UL_FACTOR_RANGE
        ul_span = ul_hi - ul_lo
        pingpong = handover_engine._PINGPONG_RATE_PER_S * dt_s
        duration = HandoverDurationParams(
            handover_engine._DURATION_MEDIANS_MS[(self.operator, direction)]
        ).sample
        flow_advance = CubicFlow(self._tcp).advance if flow else None
        uplink = direction == Direction.UPLINK
        path_loss, noise_floor = self._path_loss, _NOISE_FLOOR_DBM
        capacity_dl, capacity_ul = self._capacity[Direction.DOWNLINK], self._capacity[Direction.UPLINK]
        shadow, connected = self._shadow, self._connected
        serving = self._serving
        select, sticky_ccs = self._selector.select, self._sticky_ccs
        ch_normal = self._channel.standard_normal
        phy_normal, phy_random = self._phy.standard_normal, self._phy.random
        ho_random, ho_rng = self._ho.random, self._ho
        rtt_normal, rtt_random, rtt_exp = (
            self._rtt.standard_normal, self._rtt.random, self._rtt.exponential
        )
        misc_random = self._misc.random
        exp, log10 = math.exp, math.log10

        out = LinkColumns(*([] for _ in LinkColumns._fields))
        (tech_out, rsrp_out, mcs_out, bler_out, ccs_out, dl_out, ul_out, rtt_out,
         tput_out, ho_tick, ho_ms, ho_from_tech, ho_from_seq, ho_to_tech,
         ho_to_seq) = out
        last_zone = -1
        for i, (z, mark, speed_mph) in enumerate(
            zip(zones.tolist(), path.mark_m.tolist(), path.speed_mph)
        ):
            if z != last_zone:
                # A new zone: select the technology and look up its sticky
                # CCs, primary direction first (the lookups cannot change
                # until the next zone: they draw and evict only on a miss).
                last_zone = z
                zone = layer[z]
                tech = select(zone, traffic)
                rank = tech.rank
                cell = zone.cell_for(tech)
                seq = cell.cell_id.sequence
                key = seq << 3 | rank
                site_mark = cell.site_mark_m
                perp2 = cell.perpendicular_m * cell.perpendicular_m
                ref_dbm, k_loss, sigma = path_loss[rank]
                noise = noise_floor[rank]
                n_primary = sticky_ccs(z, rank, direction)
                n_other = sticky_ccs(z, rank, other)
                n_dl, n_ul = (n_other, n_primary) if uplink else (n_primary, n_other)
                total_dl = capacity_dl[rank][n_dl]
                total_ul = capacity_ul[rank][n_ul]
                load_dl, load_ul = zone.load_dl, zone.load_ul
                base_ms = ran_ms[rank]
                extra = extra_ms[rank]
                broken_ul = att and rank == _MMWAVE
                is_4g = _IS_4G[rank]

            # Channel: log-distance path loss plus the cell's shadowing.
            dx = mark - site_mark
            distance = (dx * dx + perp2) ** 0.5
            if distance < 10.0:
                distance = 10.0
            rsrp = ref_dbm - k_loss * log10(distance / 100.0) + _shadowing(
                shadow, seq, mark, sigma, ch_normal
            )
            rsrp = -135.0 if rsrp < -135.0 else -45.0 if rsrp > -45.0 else rsrp
            sinr = rsrp - (noise + interference[i])
            sinr = -10.0 if sinr < -10.0 else 40.0 if sinr > 40.0 else sinr

            # PHY: MCS, BLER, capacity both ways.
            mcs, bler = _mcs_bler(sinr, speed_mph, phy_normal, phy_random)
            keep = 1.0 - bler
            cap_dl = total_dl[mcs] * keep * load_dl
            if 0.01 > cap_dl:
                cap_dl = 0.01
            cap_ul = total_ul[mcs] * keep * load_ul
            if 0.01 > cap_ul:
                cap_ul = 0.01
            if broken_ul and misc_random() < _ATT_MMWAVE_UL_BREAK_PROB:
                cap_ul = cap_ul * (ul_lo + ul_span * misc_random())
                if 0.01 > cap_ul:
                    cap_ul = 0.01

            # Handover: a new serving cell, or a rare ping-pong.
            connected.add(key)
            interruption = 0.0
            joined = key
            if serving is not None and serving != key:
                ms = duration(ho_rng)
                if _IS_4G[serving & 7] != is_4g:
                    ms *= handover_engine._VERTICAL_DURATION_FACTOR
                ho_tick.append(i)
                ho_ms.append(ms)
                ho_from_tech.append(serving & 7)
                ho_from_seq.append(serving >> 3)
                ho_to_tech.append(rank)
                ho_to_seq.append(seq)
                interruption = min(ms / 1000.0, dt_s)
            elif serving is not None and ho_random() < pingpong:
                # Out to a phantom neighbour of the same layer, which stays
                # the serving cell until the real one takes over again.
                joined = (seq + _PINGPONG_SEQ_OFFSET) << 3 | rank
                connected.add(joined)
                ms = duration(ho_rng)
                ho_tick.append(i)
                ho_ms.append(ms)
                ho_from_tech.append(rank)
                ho_from_seq.append(seq)
                ho_to_tech.append(rank)
                ho_to_seq.append(seq + _PINGPONG_SEQ_OFFSET)
                interruption = min(ms / 1000.0, dt_s)
            serving = joined

            # RTT: wired path, RAN, speed-dependent jitter, retransmissions
            # and rare spikes.
            rtt = core_ms + path_ms[i] + base_ms + extra + exp(
                log_median[i] + latency._DRIVING_JITTER_SIGMA * rtt_normal()
            )
            if rtt_random() < bler * 0.5:
                rtt += rtt_exp(30.0)
            if rtt_random() < latency._SPIKE_PROB:
                rtt += min(rtt_exp(latency._SPIKE_MEAN_MS), latency._SPIKE_CAP_MS)

            tech_out.append(rank)
            rsrp_out.append(rsrp)
            mcs_out.append(mcs)
            bler_out.append(bler)
            ccs_out.append(n_primary)
            dl_out.append(cap_dl)
            ul_out.append(cap_ul)
            rtt_out.append(rtt)
            if flow_advance is not None:
                tput_out.append(flow_advance(
                    capacity_mbps=cap_ul if uplink else cap_dl,
                    rtt_ms=max(rtt * _TCP_RTT_INFLATION, _TCP_RTT_FLOOR_MS),
                    dt_s=dt_s,
                    bler=bler,
                    interruption_s=interruption,
                ))
        self._serving = serving
        return out

    # -- parked ----------------------------------------------------------------

    def find_static_site(self, city_mark_m: float, city_span_m: float) -> StaticSite | None:
        """Find the best high-speed-5G base station within a city segment.

        Mirrors the paper's baseline methodology (§5.1): in each city, find a
        5G mmWave BS and measure facing it; fall back to midband; return
        ``None`` (skip the city) when neither is available.
        """
        start = max(city_mark_m - city_span_m / 2.0, 0.0)
        end = city_mark_m + city_span_m / 2.0
        best: tuple[int, DeploymentZone] | None = None
        mark = start
        while mark < end:
            zone = self.deployment.zone_at(mark)
            for tech in (RadioTechnology.NR_MMWAVE, RadioTechnology.NR_MID):
                if tech in zone.deployed:
                    rank = 1 if tech is RadioTechnology.NR_MMWAVE else 0
                    if best is None or rank > best[0]:
                        best = (rank, zone)
                    break
            mark = zone.end_m + 1.0
        if best is None:
            return None
        zone = best[1]
        tech = (
            RadioTechnology.NR_MMWAVE
            if RadioTechnology.NR_MMWAVE in zone.deployed
            else RadioTechnology.NR_MID
        )
        cell = zone.cell_for(tech)
        # Standing right at the site: distance dominated by a short offset.
        near = Cell(
            cell_id=cell.cell_id,
            site=cell.site,
            site_mark_m=(zone.start_m + zone.end_m) / 2.0,
            perpendicular_m=float(self._misc.uniform(30.0, 90.0)),
        )
        load = float(self._misc.uniform(0.50, 0.95))
        return StaticSite(tech=tech, cell=near, load=load)

    def park(
        self,
        site: StaticSite,
        position: RoutePosition,
        times_s: list[float],
        direction: str,
        server: Server,
        dt_s: float,
        flow: bool = False,
    ) -> LinkColumns:
        """Observe the link at each of ``times_s`` parked in front of
        ``site``'s base station (no handovers, no speed)."""
        tech = site.tech
        rank = tech.rank
        seq = site.cell.cell_id.sequence
        site_mark = site.cell.site_mark_m
        perp2 = site.cell.perpendicular_m * site.cell.perpendicular_m
        ref_dbm, k_loss, sigma = self._path_loss[rank]
        floor = _NOISE_FLOOR_DBM[rank] + (_CITY_INTERFERENCE_DB + 5.0 * (1.0 - site.load))
        uplink = direction == Direction.UPLINK
        n_ccs = self._sticky_ccs(-1 - seq, rank, direction)
        totals = self._capacity[direction][rank][n_ccs]
        broken_ul = uplink and self.operator is Operator.ATT and rank == _MMWAVE
        _, _, ran_ms, extra_ms = self._rtt_tables
        rtt_base = (
            latency._CORE_OVERHEAD_MS[server.kind]
            + server.distance_m(position.point) / 1000.0 * latency._FIBRE_RTT_MS_PER_KM
            + ran_ms[rank]
            + extra_ms[rank]
        )
        flow_advance = CubicFlow(self._tcp).advance if flow else None
        shadow = self._shadow
        ch_normal = self._channel.standard_normal
        phy_normal, phy_random = self._phy.standard_normal, self._phy.random
        misc_random = self._misc.random
        rtt_normal, rtt_random, rtt_exp = (
            self._rtt.standard_normal, self._rtt.random, self._rtt.exponential
        )
        exp, log10 = math.exp, math.log10

        out = LinkColumns(*([] for _ in LinkColumns._fields))
        (tech_out, rsrp_out, mcs_out, bler_out, ccs_out, dl_out, ul_out, rtt_out,
         tput_out, *_) = out
        for _ in times_s:
            mark = site_mark + (-5.0 + 10.0 * misc_random())
            dx = mark - site_mark
            distance = (dx * dx + perp2) ** 0.5
            if distance < 10.0:
                distance = 10.0
            rsrp = ref_dbm - k_loss * log10(distance / 100.0) + _shadowing(
                shadow, seq, mark, sigma, ch_normal
            )
            rsrp = -135.0 if rsrp < -135.0 else -45.0 if rsrp > -45.0 else rsrp
            sinr = rsrp - floor
            sinr = -10.0 if sinr < -10.0 else 40.0 if sinr > 40.0 else sinr

            load = site.load * (0.85 + (1.05 - 0.85) * misc_random())
            load = 0.05 if load < 0.05 else 1.0 if load > 1.0 else load
            mcs, bler = _mcs_bler(sinr, 0.0, phy_normal, phy_random)
            capacity = totals[mcs] * (1.0 - bler) * load
            if 0.01 > capacity:
                capacity = 0.01
            if broken_ul:
                capacity *= 0.25 + (0.6 - 0.25) * misc_random()
            # Transient blockage: even ideal static mmWave/midband shows a
            # non-negligible fraction of low samples (Fig. 3a).
            if misc_random() < 0.06:
                capacity *= 0.01 + (0.15 - 0.01) * misc_random()
            cap_dl = capacity / 0.12 if uplink else capacity
            cap_ul = capacity if uplink else capacity * 0.12
            rtt = rtt_base + exp(
                _STATIC_JITTER_LOG_MEDIAN + latency._STATIC_JITTER_SIGMA * rtt_normal()
            )
            if rtt_random() < bler * 0.5:
                rtt += rtt_exp(30.0)

            tech_out.append(rank)
            rsrp_out.append(rsrp)
            mcs_out.append(mcs)
            bler_out.append(bler)
            ccs_out.append(n_ccs)
            dl_out.append(cap_dl if cap_dl > 0.01 else 0.01)
            ul_out.append(cap_ul if cap_ul > 0.01 else 0.01)
            rtt_out.append(rtt)
            if flow_advance is not None:
                tput_out.append(flow_advance(
                    capacity_mbps=ul_out[-1] if uplink else dl_out[-1],
                    rtt_ms=max(rtt * _TCP_RTT_INFLATION, _TCP_RTT_FLOOR_MS),
                    dt_s=dt_s,
                    bler=bler,
                    interruption_s=0.0,
                ))
        return out

    # -- internals ---------------------------------------------------------

    def _sticky_ccs(self, zone_index: int, rank: int, direction: str) -> int:
        key = (zone_index << 4) | (rank << 1) | (direction == Direction.UPLINK)
        n_ccs = self._cc_cache.get(key)
        if n_ccs is None:
            n_ccs = self._cc_cache[key] = self._ca.draw_ccs(
                self.operator, ALL_TECHNOLOGIES[rank], direction
            )
            if len(self._cc_cache) > 512:
                for old in list(self._cc_cache)[:-256]:
                    del self._cc_cache[old]
        return n_ccs
