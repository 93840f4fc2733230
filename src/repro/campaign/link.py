"""Per-operator UE session: one tick of the full radio stack.

A :class:`UESession` bundles everything one carrier's phone experiences —
deployment lookup, technology selection, channel, PHY, carrier aggregation,
handover tracking and RTT sampling — and produces a :class:`LinkTick`
observation per 500 ms simulation step.  This is the synthetic equivalent of
"a Samsung S21 with an XCAL Solo probe attached".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rng import clamp

from repro.geo.regions import RegionType
from repro.geo.route import RoutePosition
from repro.mobility.engine import HandoverEngine
from repro.mobility.events import HandoverEvent
from repro.net.latency import RttModel
from repro.net.servers import Server
from repro.policy.profiles import PolicyProfile, TrafficProfile
from repro.policy.selection import TechnologySelector
from repro.radio.ca import CarrierAggregationModel, Direction
from repro.radio.cells import Cell, CellId
from repro.radio.channel import ChannelModel
from repro.radio.deployment import DeploymentModel, DeploymentZone
from repro.radio.operators import Operator
from repro.radio.phy import PhyModel
from repro.radio.technology import RadioTechnology
from repro.rng import RngFactory

__all__ = ["LinkTick", "UESession", "StaticSite"]

#: AT&T's mmWave uplink was essentially non-functional while driving: the
#: paper found 90% of its mmWave UL samples below 0.5 Mbps (§5.2).
_ATT_MMWAVE_UL_BREAK_PROB = 0.9
_ATT_MMWAVE_UL_FACTOR_RANGE = (0.002, 0.02)


@dataclass(frozen=True, slots=True)
class LinkTick:
    """One 500 ms observation of the serving link (what XCAL would log)."""

    time_s: float
    mark_m: float
    speed_mph: float
    position: RoutePosition
    tech: RadioTechnology
    cell_id: CellId
    rsrp_dbm: float
    sinr_db: float
    mcs: int
    bler: float
    n_ccs: int
    capacity_dl_mbps: float
    capacity_ul_mbps: float
    rtt_ms: float
    server: Server
    handovers: tuple[HandoverEvent, ...]
    #: Time within the tick lost to handover execution, seconds.
    interruption_s: float

    def capacity_mbps(self, direction: str) -> float:
        """Capacity in the requested direction."""
        if direction == Direction.UPLINK:
            return self.capacity_ul_mbps
        return self.capacity_dl_mbps


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
        self._channel = ChannelModel(operator, rng_factory.stream(f"channel-{tag}"))
        self._phy = PhyModel(rng_factory.stream(f"phy-{tag}"), operator)
        self._ca = CarrierAggregationModel(rng_factory.stream(f"ca-{tag}"))
        self.handover_engine = HandoverEngine(operator, rng_factory.stream(f"ho-{tag}"))
        self._rtt = RttModel(operator, rng_factory.stream(f"rtt-{tag}"))
        self._misc = rng_factory.stream(f"misc-{tag}")
        # Sticky CA configuration per (zone index, tech rank, direction).
        self._cc_cache: dict[tuple[int, int, str], int] = {}

    # -- driving ticks ----------------------------------------------------

    def tick(
        self,
        time_s: float,
        position: RoutePosition,
        speed_mph: float,
        traffic: TrafficProfile,
        direction: str,
        server: Server,
        dt_s: float = 0.5,
    ) -> LinkTick:
        """Advance the session by one tick while driving."""
        zone = self.deployment.zone_at(position.distance_m)
        tech = self._selector.select(zone, traffic)
        cell = zone.cell_for(tech)
        load = zone.load_dl if direction == Direction.DOWNLINK else zone.load_ul

        state = self._channel.state(cell, position.distance_m, position.region, load)
        n_ccs = self._sticky_ccs(zone.index, tech, direction)
        report = self._phy.report(tech, state, n_ccs, load, speed_mph, direction)

        capacity_dl = (
            report.capacity_mbps
            if direction == Direction.DOWNLINK
            else self._phy.capacity_mbps(
                tech, report.mcs, report.bler,
                self._sticky_ccs(zone.index, tech, Direction.DOWNLINK),
                zone.load_dl, Direction.DOWNLINK,
            )
        )
        capacity_ul = (
            report.capacity_mbps
            if direction == Direction.UPLINK
            else self._phy.capacity_mbps(
                tech, report.mcs, report.bler,
                self._sticky_ccs(zone.index, tech, Direction.UPLINK),
                zone.load_ul, Direction.UPLINK,
            )
        )
        capacity_ul = self._apply_ul_pathologies(tech, capacity_ul)

        handovers = tuple(
            self.handover_engine.observe(
                cell, time_s, position.distance_m, dt_s, direction
            )
        )
        interruption = min(sum(ev.duration_ms for ev in handovers) / 1000.0, dt_s)

        rtt = self._rtt.sample_rtt_ms(
            server, position.point, tech, speed_mph, static=False, bler=report.bler
        )

        return LinkTick(
            time_s=time_s,
            mark_m=position.distance_m,
            speed_mph=speed_mph,
            position=position,
            tech=tech,
            cell_id=cell.cell_id,
            rsrp_dbm=state.rsrp_dbm,
            sinr_db=state.sinr_db,
            mcs=report.mcs,
            bler=report.bler,
            n_ccs=n_ccs,
            capacity_dl_mbps=capacity_dl,
            capacity_ul_mbps=capacity_ul,
            rtt_ms=rtt,
            server=server,
            handovers=handovers,
            interruption_s=interruption,
        )

    # -- static baseline ticks ---------------------------------------------

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

    def static_tick(
        self,
        site: StaticSite,
        position: RoutePosition,
        time_s: float,
        direction: str,
        server: Server,
    ) -> LinkTick:
        """One tick parked in front of ``site``'s base station."""
        mark = site.cell.site_mark_m + float(self._misc.uniform(-5.0, 5.0))
        state = self._channel.state(site.cell, mark, RegionType.CITY, site.load)
        tech = site.tech
        zone_key = -1 - site.cell.cell_id.sequence  # static CA sticky key
        n_ccs = self._sticky_ccs(zone_key, tech, direction)
        load = site.load * float(self._misc.uniform(0.85, 1.05))
        load = clamp(load, 0.05, 1.0)
        report = self._phy.report(tech, state, n_ccs, load, 0.0, direction)
        capacity = report.capacity_mbps
        if (
            direction == Direction.UPLINK
            and self.operator is Operator.ATT
            and tech is RadioTechnology.NR_MMWAVE
        ):
            capacity *= float(self._misc.uniform(0.25, 0.6))
        # Transient blockage: even ideal static mmWave/midband shows a
        # non-negligible fraction of low samples (Fig. 3a).
        if self._misc.random() < 0.06:
            capacity *= float(self._misc.uniform(0.01, 0.15))
        cap_dl = capacity if direction == Direction.DOWNLINK else capacity / 0.12
        cap_ul = capacity if direction == Direction.UPLINK else capacity * 0.12
        rtt = self._rtt.sample_rtt_ms(
            server, position.point, tech, 0.0, static=True, bler=report.bler
        )
        return LinkTick(
            time_s=time_s,
            mark_m=position.distance_m,
            speed_mph=0.0,
            position=position,
            tech=tech,
            cell_id=site.cell.cell_id,
            rsrp_dbm=state.rsrp_dbm,
            sinr_db=state.sinr_db,
            mcs=report.mcs,
            bler=report.bler,
            n_ccs=n_ccs,
            capacity_dl_mbps=max(cap_dl, 0.01),
            capacity_ul_mbps=max(cap_ul, 0.01),
            rtt_ms=rtt,
            server=server,
            handovers=(),
            interruption_s=0.0,
        )

    # -- internals ---------------------------------------------------------

    def _sticky_ccs(self, zone_index: int, tech: RadioTechnology, direction: str) -> int:
        key = (zone_index, tech.rank, direction)
        n_ccs = self._cc_cache.get(key)
        if n_ccs is None:
            n_ccs = self._cc_cache[key] = self._ca.draw_ccs(self.operator, tech, direction)
            if len(self._cc_cache) > 512:
                for old in list(self._cc_cache)[:-256]:
                    del self._cc_cache[old]
        return n_ccs

    def _apply_ul_pathologies(self, tech: RadioTechnology, capacity_ul: float) -> float:
        if (
            self.operator is Operator.ATT
            and tech is RadioTechnology.NR_MMWAVE
            and self._misc.random() < _ATT_MMWAVE_UL_BREAK_PROB
        ):
            lo, hi = _ATT_MMWAVE_UL_FACTOR_RANGE
            return max(capacity_ul * float(self._misc.uniform(lo, hi)), 0.01)
        return capacity_ul
