"""The scalar draw models of the link: one phone, one tick, one call.

The simulator evaluates the link as arrays over a test block
(:mod:`repro.campaign.link`).  These are the per-tick models it replaced:
the channel (:class:`ChannelModel`), the PHY (:class:`PhyModel`), the RTT
(:class:`RttModel`) and the serving-cell tracker (:class:`HandoverEngine`).
The row oracle (``tests/row_oracle.py``) drives them tick by tick on the
kernel's streams, and the parity tests hold the two byte for byte.  Each
reads its parameters from the module of ``src/`` that owns them
(:mod:`repro.radio.channel`, :mod:`repro.radio.phy`,
:mod:`repro.net.latency`, :mod:`repro.mobility.engine`), which the kernel
reads too, so a parameter has one definition.  Nothing here runs outside
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geo.coords import LatLon
from repro.geo.regions import RegionType
from repro.mobility import engine
from repro.mobility.events import HandoverEvent
from repro.net import latency
from repro.net.servers import Server
from repro.radio import channel, phy
from repro.radio.ca import Direction
from repro.radio.cells import Cell, CellId
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology
from repro.rng import clamp


# -- channel -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PathLossParams:
    """Log-distance model: RSRP(d) = ref_dbm − 10·n·log10(d / 100 m)."""

    ref_dbm_at_100m: float
    exponent: float
    shadow_sigma_db: float


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
        self._params = tuple(
            PathLossParams(*channel.path_loss(operator, tech)) for tech in ALL_TECHNOLOGIES
        )

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
        params = self._params[cell.technology.rank]
        distance = max(cell.distance_to_mark_m(mark_m), 10.0)
        mean_rsrp = params.ref_dbm_at_100m - 10.0 * params.exponent * math.log10(distance / 100.0)
        shadow = self._evolve_shadow(cell, mark_m, params.shadow_sigma_db)
        rsrp = clamp(mean_rsrp + shadow, -135.0, -45.0)

        interference = channel.INTERFERENCE_DB[region] + 5.0 * (1.0 - load)
        floor = channel.NOISE_FLOOR_DBM[cell.technology] + interference
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
            rho = math.exp(-moved / channel.SHADOW_DECORRELATION_M)
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


# -- PHY -----------------------------------------------------------------------


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
        self._capacity = phy.capacity_table(operator)

    def mcs_from_sinr(self, sinr_db: float) -> int:
        """Select the primary cell's MCS index for a given SINR.

        A linear map from the SINR working range onto [0, 28] with ±1.5
        index reporting noise — the shape of real link adaptation without
        modelling the full CQI feedback loop.
        """
        span = phy.SINR_CEILING_DB - phy.SINR_FLOOR_DB
        frac = (sinr_db - phy.SINR_FLOOR_DB) / span
        raw = frac * phy.MAX_MCS_INDEX + self._rng.normal(0.0, 1.5)
        return int(clamp(round(raw), 0, phy.MAX_MCS_INDEX))

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
        """Instantaneous capacity offered to transport, in Mbps: the
        operator's :func:`~repro.radio.phy.capacity_table` entry times
        (1 − BLER) and the load share."""
        if not 0 <= mcs <= phy.MAX_MCS_INDEX:
            raise ValueError(f"MCS out of range: {mcs}")
        if not 0.0 < load <= 1.0:
            raise ValueError(f"load must be in (0, 1], got {load}")
        total = float(self._capacity[Direction.ALL.index(direction), tech.rank, n_ccs, mcs])
        return float(max(total * (1.0 - bler) * load, 0.01))

    def report(
        self,
        tech: RadioTechnology,
        state: ChannelState,
        n_ccs: int,
        load: float,
        speed_mph: float,
        direction: str,
    ) -> PhyReport:
        """Produce the full PHY observation for one 500 ms tick."""
        effective_sinr = state.sinr_db - phy.SPEED_SINR_PENALTY_DB_PER_MPH * max(speed_mph, 0.0)
        mcs = self.mcs_from_sinr(effective_sinr)
        bler = self.bler_from_sinr(state.sinr_db, speed_mph)
        capacity = self.capacity_mbps(tech, mcs, bler, n_ccs, load, direction)
        return PhyReport(mcs=mcs, bler=bler, n_ccs=n_ccs, capacity_mbps=capacity)


# -- RTT -----------------------------------------------------------------------


@dataclass
class RttModel:
    """Samples RTTs for one operator's UE.

    Each draw kind has its own stream, with a fixed count per sample: one
    jitter normal from ``rng``, two uniforms (retransmission, spike) from
    ``loss_rng`` and two exponentials (their delays) from ``tail_rng``,
    drawn whether or not they fire.
    """

    operator: Operator
    rng: np.random.Generator
    loss_rng: np.random.Generator
    tail_rng: np.random.Generator

    def __post_init__(self) -> None:
        self._extra_ms = latency.extra_core_ms(self.operator)

    def base_rtt_ms(self, server: Server, position: LatLon, tech: RadioTechnology) -> float:
        """Deterministic RTT floor: wired path + RAN scheduling latency."""
        path = server.distance_m(position) / 1000.0 * latency.FIBRE_RTT_MS_PER_KM
        ran = 2.0 * tech.ran_latency_ms  # grant + scheduling in each direction
        extra = self._extra_ms[tech.rank]
        return latency.CORE_OVERHEAD_MS[server.kind] + path + ran + extra

    def sample_rtt_ms(
        self,
        server: Server,
        position: LatLon,
        tech: RadioTechnology,
        speed_mph: float,
        static: bool = False,
        bler: float = 0.05,
    ) -> float:
        """One RTT sample (ICMP echo) in milliseconds.

        Parameters
        ----------
        static:
            True for the parked baseline measurements (small jitter, no
            speed effect).
        bler:
            Residual block error rate of the link; errors trigger HARQ/RLC
            retransmission delays.
        """
        base = self.base_rtt_ms(server, position, tech)
        if static:
            jitter = self.rng.lognormal(
                math.log(latency.STATIC_JITTER_MEDIAN_MS), latency.STATIC_JITTER_SIGMA
            )
        else:
            sensitivity = latency.SPEED_SENSITIVITY[self.operator]
            speed_factor = 1.0 + sensitivity * max(speed_mph, 0.0) / 60.0
            median = (
                latency.DRIVING_JITTER_MEDIAN_MS * speed_factor
                * latency.DRIVING_JITTER_SCALE[self.operator]
            )
            jitter = self.rng.lognormal(math.log(median), latency.DRIVING_JITTER_SIGMA)
        retransmit, spike = self.loss_rng.random(), self.loss_rng.random()
        retransmit_ms = self.tail_rng.exponential(latency.RETRANSMIT_MEAN_MS)
        spike_ms = self.tail_rng.exponential(latency.SPIKE_MEAN_MS)
        rtt = base + jitter
        # Link-layer retransmissions under lossy conditions.
        if retransmit < bler * 0.5:
            rtt += retransmit_ms
        # Rare deep spikes (RRC reestablishment, buffer excursions).
        if not static and spike < latency.SPIKE_PROB:
            rtt += min(spike_ms, latency.SPIKE_CAP_MS)
        return float(rtt)


# -- handovers -----------------------------------------------------------------


@dataclass
class HandoverEngine:
    """Tracks one UE's serving cell and emits :class:`HandoverEvent` s.

    Drive it by calling :meth:`observe` once per tick with the serving cell
    the selector chose; it returns the handovers (usually zero or one) that
    occurred during the tick.
    """

    operator: Operator
    rng: np.random.Generator
    _current_cell: Cell | None = field(default=None, repr=False)
    _connected_cells: set[CellId] = field(default_factory=set, repr=False)
    _total_handovers: int = 0

    @property
    def total_handovers(self) -> int:
        """Total handovers emitted over this engine's lifetime."""
        return self._total_handovers

    @property
    def connected_cells(self) -> frozenset[CellId]:
        """All distinct cells this UE has been served by."""
        return frozenset(self._connected_cells)

    def reset_serving(self) -> None:
        """Forget the serving cell (e.g. between distant test locations)."""
        self._current_cell = None

    def observe(
        self,
        cell: Cell,
        time_s: float,
        mark_m: float,
        dt_s: float,
        direction: str = Direction.DOWNLINK,
    ) -> list[HandoverEvent]:
        """Register the serving cell for one tick; return handovers fired.

        Parameters
        ----------
        cell:
            The serving cell chosen by the technology selector this tick.
        time_s, mark_m:
            Campaign clock and route position of the tick.
        dt_s:
            Tick length in seconds (scales the ping-pong rate).
        direction:
            Traffic direction of the running test (duration calibration).
        """
        events: list[HandoverEvent] = []
        previous = self._current_cell
        self._connected_cells.add(cell.cell_id)

        if previous is not None and previous.cell_id != cell.cell_id:
            events.append(self._make_event(previous, cell, time_s, mark_m, direction))
        elif previous is not None and self.rng.random() < engine.PINGPONG_RATE_PER_S * dt_s:
            # Ping-pong: bounce to a phantom neighbour of the same layer and
            # back.  That logs two handovers: one out to the neighbour's
            # distinct cell id on this tick and, as the neighbour stays the
            # current cell, one back on the next tick the real cell serves.
            neighbour_id = CellId(
                cell.operator, cell.technology,
                cell.cell_id.sequence + engine.PINGPONG_SEQ_OFFSET,
            )
            neighbour = Cell(
                cell_id=neighbour_id,
                site=cell.site,
                site_mark_m=cell.site_mark_m,
                perpendicular_m=cell.perpendicular_m * 1.5,
            )
            self._connected_cells.add(neighbour_id)
            events.append(self._make_event(cell, neighbour, time_s, mark_m, direction))
            cell = neighbour

        self._current_cell = cell
        return events

    def _make_event(
        self, from_cell: Cell, to_cell: Cell, time_s: float, mark_m: float, direction: str
    ) -> HandoverEvent:
        median = engine.DURATION_MEDIANS_MS[(self.operator, direction)]
        duration = engine.HandoverDurationParams(median_ms=median).sample(self.rng)
        if from_cell.technology.is_4g != to_cell.technology.is_4g:
            duration *= engine.VERTICAL_DURATION_FACTOR
        self._total_handovers += 1
        return HandoverEvent(
            operator=self.operator,
            time_s=time_s,
            mark_m=mark_m,
            duration_ms=duration,
            from_cell=from_cell.cell_id,
            to_cell=to_cell.cell_id,
            from_tech=from_cell.technology,
            to_tech=to_cell.technology,
        )
