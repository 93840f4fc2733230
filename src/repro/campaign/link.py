"""Per-operator UE sessions: the radio stack as a test-block kernel.

A :class:`UESession` bundles everything one carrier's phone experiences —
deployment lookup, technology selection, channel, PHY, carrier aggregation,
handover tracking, RTT sampling and the test's TCP flow.  This is the
synthetic equivalent of "a Samsung S21 with an XCAL Solo probe attached".

Sessions do not tick.  :func:`drive_block` evaluates one driving test for
several sessions at once, as arrays over (session × tick): the vehicle's
path comes first (:class:`VehiclePath`: every tick's time, mark, speed,
region and position), each session's random streams give one block draw
per test, and the test's observations come back as one
:class:`LinkBlock`.  :meth:`UESession.park` does the same for one phone
parked in front of a base station.  There are no per-tick objects.

The scalar tick loop (``tests/row_oracle``) reads the same values tick by
tick.  A stream whose ticks would mix draw kinds is split, one kind each,
a fixed count per tick, so a block draw of ``n`` values equals ``n``
scalar draws:

* ``channel-<op>``: one shadowing normal per tick;
* ``phy-<op>``, ``bler-<op>``, ``doppler-<op>``: one MCS normal, one BLER
  normal and one speed-penalty uniform per tick;
* ``rtt-<op>``, ``rtt-loss-<op>``, ``rtt-tail-<op>``: one jitter normal,
  two uniforms (retransmission, spike) and two standard exponentials
  (their delays) per tick, drawn whether or not they fire.

The streams of rare events keep the scalar loop's order, whose counts
depend on the values drawn; the kernel reads their uniforms ahead
(:func:`~repro.rng.peek_uniforms`) and then draws exactly the ones used:

* ``ho-<op>``: a ping-pong uniform on every tick that keeps its serving
  cell, and a duration per handover, in handover order;
* ``misc-<op>``: uniforms, two per static-site search, three to five per
  parked tick (mark offset, load, AT&T's mmWave uplink factor when it
  applies, blockage, and the blockage factor when it fires), and on each
  AT&T mmWave driving tick the uplink break and, when it breaks, its factor;
* ``select-<op>`` and ``ca-<op>``: on a sticky-cache miss, in zone order;
  ``tcp-<op>``: inside :class:`~repro.net.tcp.CubicFlow`.

Path loss, SINR, MCS/BLER, capacity both ways, the uplink break and RTT
are array expressions over the block.  What stays scalar is stateful: the
per-zone technology selection and sticky CCs (one decision per zone run),
the shadowing AR(1) memory (one scan per serving-cell run), the
handover/ping-pong state machine (one step per serving-cell run and per
handover) and the TCP flow (its uniforms served from a block buffer,
:class:`~repro.rng.BufferedUniforms`).  The sticky caches keep their bounds and
eviction order, because an evicted key draws again: technology selection
256 → 128 keys (:class:`~repro.policy.selection.TechnologySelector`), CC
counts 512 → 256 and shadowing 64 → 32 cells by last mark.  ``exp``,
``log``, ``log10`` and the haversine's ``asin`` stay ``math`` (libm)
calls per element; only arithmetic and ufuncs that agree with libm bit for
bit (``sqrt``, ``sin``, ``cos``, ``radians``, clips) are vectorised
(DESIGN.md §6).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
from repro.rng import BufferedUniforms, RngFactory, peek_uniforms

__all__ = [
    "LinkBlock", "LinkColumns", "StaticSite", "UESession", "VehiclePath", "drive_block",
]

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
_NOISE_FLOOR_DBM = np.array([channel._NOISE_FLOOR_DBM[t] for t in ALL_TECHNOLOGIES])
_SHADOW_DECORRELATION_M = channel._SHADOW_DECORRELATION_M
_SINR_FLOOR_DB = phy._SINR_FLOOR_DB
_SINR_SPAN_DB = phy._SINR_CEILING_DB - phy._SINR_FLOOR_DB
_MAX_MCS = phy.MAX_MCS_INDEX
_SPEED_SINR_PENALTY = PhyModel.SPEED_SINR_PENALTY_DB_PER_MPH
_STATIC_JITTER_LOG_MEDIAN = math.log(latency._STATIC_JITTER_MEDIAN_MS)

_exp, _log, _log10 = math.exp, math.log, math.log10


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) of every element, as a float array of
    the same shape."""
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(
        values.shape
    )


def _shadow_mark(item: tuple) -> float:
    return item[1][0]


def _shadowing(shadow: dict, seq: int, mark: float, sigma: float, z: float) -> float:
    """``ChannelModel._evolve_shadow`` on a memory keyed by cell sequence,
    with the tick's standard normal ``z``: the cell's correlated shadowing
    at ``mark`` (dB), stored; past 64 cells the memory keeps the 32 seen
    last, by mark, in that order."""
    prev = shadow.get(seq)
    if prev is None:
        # A3-style selection bias: a cell starts serving because its
        # signal crossed above the old cell's by a hysteresis margin.
        value = 3.0 + sigma * z
    else:
        rho = _exp(-abs(mark - prev[0]) / _SHADOW_DECORRELATION_M)
        value = rho * prev[1] + math.sqrt(max(0.0, 1.0 - rho * rho)) * (0.0 + sigma * z)
    shadow[seq] = (mark, value)
    if len(shadow) > 64:
        kept = sorted(shadow.items(), key=_shadow_mark)[-32:]
        shadow.clear()
        shadow.update(kept)
    return value


def _shadow_scan(
    shadow: dict,
    runs: list[tuple[int, int, int]],
    marks: list[float],
    sigma: list[float],
    z: list[float],
    rho: list[float],
    innovation: list[float],
) -> list[float]:
    """The shadowing of every tick of one session's block.

    ``runs`` are the serving-cell runs ``(first tick, end tick, cell
    sequence)``.  Inside a run the AR(1) recurrence reads the pre-computed
    ``rho`` and ``innovation`` (``sqrt(1 - rho²) * sigma * z``) of each step
    from the previous tick; the memory is read at a run's first tick and
    written at its last, which is what writing it every tick leaves, since
    nothing else enters it during the run.  A run whose cell is evicted on
    its own insertion (memory full of later marks) is scanned tick by tick.
    """
    out = [0.0] * len(marks)
    for start, end, seq in runs:
        value = out[start] = _shadowing(shadow, seq, marks[start], sigma[start], z[start])
        if start + 1 == end:
            continue
        if seq not in shadow:
            for t in range(start + 1, end):
                out[t] = _shadowing(shadow, seq, marks[t], sigma[t], z[t])
            continue
        for t in range(start + 1, end):
            value = out[t] = rho[t] * value + innovation[t]
        shadow[seq] = (marks[end - 1], value)
    return out


def _rho_steps(marks: np.ndarray) -> np.ndarray:
    """The shadowing correlation from each tick's predecessor (``[0]``
    unused): ``exp(-|Δmark| / 80 m)`` along the last axis."""
    rho = np.zeros(marks.shape)
    rho[..., 1:] = _libm(_exp, -np.abs(np.diff(marks)) / _SHADOW_DECORRELATION_M)
    return rho


def _innovation(rho: np.ndarray, sigma, z: np.ndarray) -> np.ndarray:
    """The AR(1) shadowing's new part at each tick:
    ``sqrt(max(0, 1 - rho²)) * sigma * z``."""
    return np.sqrt(np.maximum(0.0, 1.0 - rho * rho)) * (0.0 + sigma * z)


def _mcs_bler(
    sinr: np.ndarray,
    speed: np.ndarray,
    mcs_z: np.ndarray,
    doppler_u: np.ndarray,
    bler_z: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``PhyModel.mcs_from_sinr`` and ``bler_from_sinr`` over a block, from
    its MCS normals, speed-penalty uniforms and BLER normals; ``speed`` is
    already floored at zero."""
    raw = (sinr - _SPEED_SINR_PENALTY * speed - _SINR_FLOOR_DB) / _SINR_SPAN_DB * _MAX_MCS + (
        0.0 + 1.5 * mcs_z
    )
    # ``np.rint`` rounds half to even, as Python's ``round`` does.
    mcs = np.clip(np.rint(raw), 0, _MAX_MCS).astype(np.int64)
    x = np.clip((sinr - 4.0) / 2.5, -60.0, 60.0)
    base = 0.03 + 0.25 / (1.0 + _libm(_exp, x))
    penalty = 0.0008 * speed * (0.5 + 1.0 * doppler_u)
    bler = np.clip(base + penalty + (0.0 + 0.01 * bler_z), 0.002, 0.85)
    return mcs, bler


@functools.cache
def _operator_tables(operator: Operator) -> tuple:
    """One operator's per-technology arrays, indexed by rank: path loss
    (reference power, 10 x exponent, shadowing sigma); the PHY's capacity
    before BLER and load, by direction code, rank, CC count and MCS; the
    RTT model's RAN and extra core latency; then the RTT model's speed
    sensitivity and jitter scale."""
    params = ChannelModel(operator, None)
    path_loss = np.array([
        (p.ref_dbm_at_100m, 10.0 * p.exponent, p.shadow_sigma_db)
        for p in map(params.params_for, ALL_TECHNOLOGIES)
    ])
    model = PhyModel(None, operator, bler_rng=None, doppler_rng=None)
    capacity = np.zeros((2, len(ALL_TECHNOLOGIES), 9, _MAX_MCS + 1))
    for d, direction in enumerate(Direction.ALL):
        for tech in ALL_TECHNOLOGIES:
            for n_ccs in range(1, 9):
                capacity[d, tech.rank, n_ccs] = [
                    model.capacity_total(tech, mcs, n_ccs, direction)
                    for mcs in range(_MAX_MCS + 1)
                ]
    rtt = latency.RttModel(operator, None, None, None)
    ran_ms = np.array([2.0 * t.ran_latency_ms for t in ALL_TECHNOLOGIES])
    extra_ms = np.array(rtt._extra_ms)
    return path_loss, capacity, ran_ms, extra_ms, rtt._speed_sensitivity, rtt._jitter_scale


class _SessionTables(NamedTuple):
    """The operator tables of a block's sessions, stacked on the session
    axis (see :func:`_operator_tables`)."""

    path_loss: np.ndarray
    capacity: np.ndarray
    ran_ms: np.ndarray
    extra_ms: np.ndarray
    speed_sensitivity: np.ndarray
    jitter_scale: np.ndarray


@functools.cache
def _session_tables(operators: tuple[Operator, ...]) -> _SessionTables:
    path_loss, capacity, ran_ms, extra_ms, sensitivity, scale = zip(
        *map(_operator_tables, operators)
    )
    return _SessionTables(
        np.stack(path_loss), np.stack(capacity), np.stack(ran_ms), np.stack(extra_ms),
        np.array(sensitivity)[:, None], np.array(scale)[:, None],
    )


class VehiclePath(NamedTuple):
    """The vehicle over one test block, one entry per tick: the clock,
    route mark and speed after each step, and the route's region,
    timezone (codes) and position at each mark.  Every session of a block
    reads the same path."""

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

    tech: np.ndarray
    rsrp_dbm: np.ndarray
    mcs: np.ndarray
    bler: np.ndarray
    n_ccs: np.ndarray
    capacity_dl_mbps: np.ndarray
    capacity_ul_mbps: np.ndarray
    rtt_ms: np.ndarray
    tput_mbps: np.ndarray
    ho_tick: np.ndarray
    ho_duration_ms: np.ndarray
    ho_from_tech: np.ndarray
    ho_from_seq: np.ndarray
    ho_to_tech: np.ndarray
    ho_to_seq: np.ndarray


_TICK_FIELDS = LinkColumns._fields[:9]
_HANDOVER_FIELDS = LinkColumns._fields[9:]


class LinkBlock(NamedTuple):
    """The observations of a block's sessions, session-major.

    Each tick column is a (session × tick) array (``tech`` as ranks;
    ``tput_mbps`` has no ticks unless the block ran a TCP flow).  The
    handover columns hold one value per handover of any session, ordered
    by tick, then session: its session, tick, duration, and the
    technology rank and sequence of the cells it left and joined.
    """

    tech: np.ndarray
    rsrp_dbm: np.ndarray
    mcs: np.ndarray
    bler: np.ndarray
    n_ccs: np.ndarray
    capacity_dl_mbps: np.ndarray
    capacity_ul_mbps: np.ndarray
    rtt_ms: np.ndarray
    tput_mbps: np.ndarray
    ho_session: np.ndarray
    ho_tick: np.ndarray
    ho_duration_ms: np.ndarray
    ho_from_tech: np.ndarray
    ho_from_seq: np.ndarray
    ho_to_tech: np.ndarray
    ho_to_seq: np.ndarray

    def phone(self, j: int) -> LinkColumns:
        """Session ``j``'s columns."""
        mine = self.ho_session == j
        return LinkColumns(
            *(getattr(self, name)[j] for name in _TICK_FIELDS),
            *(getattr(self, name)[mine] for name in _HANDOVER_FIELDS),
        )


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
        stream = rng_factory.stream
        self._channel = stream(f"channel-{tag}")
        self._mcs = stream(f"phy-{tag}")
        self._bler = stream(f"bler-{tag}")
        self._doppler = stream(f"doppler-{tag}")
        self._ca = CarrierAggregationModel(stream(f"ca-{tag}"))
        self._ho = stream(f"ho-{tag}")
        self._rtt = stream(f"rtt-{tag}")
        self._rtt_loss = stream(f"rtt-loss-{tag}")
        self._rtt_tail = stream(f"rtt-tail-{tag}")
        self._misc = stream(f"misc-{tag}")
        # Every flow of this phone draws from one buffer of the stream.
        self._tcp = BufferedUniforms(stream(f"tcp-{tag}"))
        self._path_loss, self._capacity, self._ran_ms, self._extra_ms = (
            _operator_tables(operator)[:4]
        )
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
    ) -> LinkBlock:
        """Observe the link at each of ``times_s`` parked in front of
        ``site``'s base station (no handovers, no speed): a block of one
        session."""
        n = len(times_s)
        rank = site.tech.rank
        seq = site.cell.cell_id.sequence
        site_mark = site.cell.site_mark_m
        perp2 = site.cell.perpendicular_m * site.cell.perpendicular_m
        ref_dbm, k_loss, sigma = self._path_loss[rank].tolist()
        floor = _NOISE_FLOOR_DBM[rank] + (_CITY_INTERFERENCE_DB + 5.0 * (1.0 - site.load))
        uplink = direction == Direction.UPLINK
        n_ccs = self._sticky_ccs(-1 - seq, rank, direction)
        totals = self._capacity[Direction.ALL.index(direction), rank, n_ccs]
        broken_ul = uplink and self.operator is Operator.ATT and rank == _MMWAVE
        rtt_base = (
            latency._CORE_OVERHEAD_MS[server.kind]
            + server.distance_m(position.point) / 1000.0 * latency._FIBRE_RTT_MS_PER_KM
            + self._ran_ms[rank]
            + self._extra_ms[rank]
        )
        offset, load_u, break_u, blocked, block_f = self._parked_misc(n, broken_ul)

        # Channel: the site's cell at a jittered mark.
        marks = site_mark + (-5.0 + 10.0 * offset)
        dx = marks - site_mark
        distance = np.maximum(np.sqrt(dx * dx + perp2), 10.0)
        z = self._channel.standard_normal(n)
        rho = _rho_steps(marks)
        shadow = _shadow_scan(
            self._shadow, [(0, n, seq)], marks.tolist(), [sigma] * n,
            z.tolist(), rho.tolist(), _innovation(rho, sigma, z).tolist(),
        )
        rsrp = np.clip(ref_dbm - k_loss * _libm(_log10, distance / 100.0) + shadow, -135.0, -45.0)
        sinr = np.clip(rsrp - floor, -10.0, 40.0)

        load = np.clip(site.load * (0.85 + (1.05 - 0.85) * load_u), 0.05, 1.0)
        zero = np.zeros(n)
        mcs, bler = _mcs_bler(
            sinr, zero, self._mcs.standard_normal(n), self._doppler.random(n),
            self._bler.standard_normal(n),
        )
        capacity = np.maximum(totals[mcs] * (1.0 - bler) * load, 0.01)
        if broken_ul:
            capacity = capacity * (0.25 + (0.6 - 0.25) * break_u)
        # Transient blockage: even ideal static mmWave/midband shows a
        # non-negligible fraction of low samples (Fig. 3a).
        capacity = np.where(blocked, capacity * (0.01 + (0.15 - 0.01) * block_f), capacity)
        cap_dl = np.maximum(capacity / 0.12 if uplink else capacity, 0.01)
        cap_ul = np.maximum(capacity if uplink else capacity * 0.12, 0.01)

        jitter = _libm(
            _exp, _STATIC_JITTER_LOG_MEDIAN + latency._STATIC_JITTER_SIGMA * self._rtt.standard_normal(n)
        )
        loss = self._rtt_loss.random((n, 2))
        tail = self._rtt_tail.standard_exponential((n, 2))
        rtt = rtt_base + jitter
        rtt = np.where(loss[:, 0] < bler * 0.5, rtt + 30.0 * tail[:, 0], rtt)

        tput = self._flow(cap_ul if uplink else cap_dl, rtt, dt_s, bler, zero) if flow else ()
        none = np.empty(0, np.int64)
        return LinkBlock(
            np.full((1, n), rank), rsrp[None], mcs[None], bler[None],
            np.full((1, n), n_ccs), cap_dl[None], cap_ul[None], rtt[None],
            np.asarray(tput, float).reshape(1, -1),
            none, none, np.empty(0), none, none, none, none,
        )

    # -- internals ---------------------------------------------------------

    def _flow(self, capacity, rtt, dt_s: float, bler, interruption) -> list[float]:
        """A fresh TCP flow over the block's capacity of the test's
        direction."""
        return CubicFlow(self._tcp).run(
            capacity.tolist(),
            np.maximum(rtt * _TCP_RTT_INFLATION, _TCP_RTT_FLOOR_MS).tolist(),
            dt_s,
            bler.tolist(),
            interruption.tolist(),
        )

    def _parked_misc(self, n: int, broken_ul: bool) -> tuple[np.ndarray, ...]:
        """The ``misc`` uniforms of ``n`` parked ticks, in the scalar
        loop's order: per tick the mark offset, the load, the uplink factor
        (only when ``broken_ul``), the blockage draw and, when it fires,
        the blockage factor.  Returns the offset, load and uplink-factor
        uniforms (the last meaningless unless ``broken_ul``), whether
        blockage fired, and the blockage-factor uniforms (meaningless where
        it did not fire)."""
        per_tick = 4 if broken_ul else 3
        values = peek_uniforms(self._misc, (per_tick + 1) * n)
        flat = values.tolist()
        blocked = np.zeros(n, bool)
        at = per_tick - 1  # this tick's blockage draw
        for t in range(n):
            if flat[at] < 0.06:
                blocked[t] = True
                at += 1
            at += per_tick
        self._misc.random(at - (per_tick - 1))
        first = np.arange(n) * per_tick + (np.cumsum(blocked) - blocked)
        return values[first], values[first + 1], values[first + 2], blocked, values[first + per_tick]

    def _break_uplink(self, rank: np.ndarray, cap_ul: np.ndarray) -> np.ndarray:
        """AT&T's broken mmWave uplink over one driving block: every mmWave
        tick draws whether it breaks and, when it does, the factor that
        scales its uplink capacity."""
        ticks = np.flatnonzero(rank == _MMWAVE).tolist()
        if not ticks:
            return cap_ul
        values = peek_uniforms(self._misc, 2 * len(ticks)).tolist()
        broken, factors, at = [], [], 0
        for t in ticks:
            at += 1
            if values[at - 1] < _ATT_MMWAVE_UL_BREAK_PROB:
                broken.append(t)
                factors.append(values[at])
                at += 1
        self._misc.random(at)
        lo, hi = _ATT_MMWAVE_UL_FACTOR_RANGE
        cap_ul = cap_ul.copy()
        cap_ul[broken] = np.maximum(cap_ul[broken] * (lo + (hi - lo) * np.array(factors)), 0.01)
        return cap_ul

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

    def _handover_scan(
        self, keys: np.ndarray, rate: float, duration, dt_s: float, interruption: np.ndarray
    ) -> list[tuple]:
        """The serving-cell state machine over one block: the handovers,
        ``(tick, duration, from rank, from seq, to rank, to seq)`` in tick
        order, with their interruptions written to ``interruption``.

        ``keys`` is the serving cell of every tick (``seq << 3 | rank``),
        ``rate`` the ping-pong probability of a tick and ``duration`` the
        handover-duration sampler.  Every tick that keeps the serving cell
        draws one ``ho`` uniform, and a ping-pong fires where it falls
        below ``rate``; every handover then draws its duration.  So the
        scan steps once per run of one cell, reading the run's uniforms
        ahead, and once per handover, after drawing the uniforms used.
        """
        n = len(keys)
        ho = self._ho
        ends = [*(np.flatnonzero(np.diff(keys)) + 1).tolist(), n]
        keys = keys.tolist()
        serving = self._serving
        out = []
        ahead, used = peek_uniforms(ho, n), 0
        i = 0
        while i < n:
            key = keys[i]
            if serving == key:
                # The run keeps its cell: one ping-pong uniform a tick.
                end = ends[bisect.bisect_right(ends, i)]
                hits = np.flatnonzero(ahead[used:used + end - i] < rate)
                if not hits.size:
                    used += end - i
                    i = end
                    continue
                i += int(hits[0])
                used += int(hits[0]) + 1
                # Out to a phantom neighbour of the same layer, which stays
                # the serving cell until the real one takes over again.
                key = ((key >> 3) + _PINGPONG_SEQ_OFFSET) << 3 | (key & 7)
                self._connected.add(key)
            if serving is not None:
                ho.random(used)
                ms = duration(ho)
                if _IS_4G[serving & 7] != _IS_4G[key & 7]:
                    ms *= handover_engine._VERTICAL_DURATION_FACTOR
                out.append((i, ms, serving & 7, serving >> 3, key & 7, key >> 3))
                interruption[i] = min(ms / 1000.0, dt_s)
                ahead, used = peek_uniforms(ho, n - i), 0
            serving = key
            i += 1
        ho.random(used)
        self._serving = serving
        return out


def drive_block(
    sessions: Sequence[UESession],
    path: VehiclePath,
    traffic: TrafficProfile,
    direction: str,
    servers: Sequence[Server],
    dt_s: float,
    flow: bool = False,
) -> LinkBlock:
    """Observe the link of every session at every tick of ``path`` while
    driving, session ``j`` served by ``servers[j]``.

    ``flow`` runs a fresh TCP flow in ``direction`` on every session.  The
    session axis is the block's first axis: the sessions of one vehicle
    (its operators) share ``path``'s per-tick columns, which broadcast
    over it.
    """
    n_sessions, n = len(sessions), len(path.time_s)
    shape = (n_sessions, n)
    uplink = direction == Direction.UPLINK
    other = Direction.UPLINK if direction == Direction.DOWNLINK else Direction.DOWNLINK
    marks = path.mark_m
    speed = np.maximum(np.asarray(path.speed_mph, dtype=float), 0.0)
    rho = _rho_steps(marks)
    tables = _session_tables(tuple(s.operator for s in sessions))
    session_index = np.arange(n_sessions)[:, None]

    # Per session: the zone runs (one technology and CC decision each)
    # and the block's draws.
    runs, run_values, run_lengths = [], [], []
    draws = np.empty((5,) + shape)
    loss, tail = np.empty(shape + (2,)), np.empty(shape + (2,))
    for j, s in enumerate(sessions):
        layer = s.deployment.zones
        zones = layer.index_at(marks)
        bounds = (np.flatnonzero(np.diff(zones)) + 1).tolist()
        starts, ends = [0, *bounds], [*bounds, n]
        session_runs = []
        for z, start, end in zip(zones[starts].tolist(), starts, ends):
            zone = layer[z]
            tech = s._selector.select(zone, traffic)
            seq, site_mark_m, perpendicular_m = layer.serving_site(z, tech)
            rank = tech.rank
            session_runs.append((start, end, seq))
            run_values.append((
                rank, seq, s._sticky_ccs(z, rank, direction), s._sticky_ccs(z, rank, other),
                site_mark_m, perpendicular_m * perpendicular_m, zone.load_dl, zone.load_ul,
            ))
            run_lengths.append(end - start)
        runs.append(session_runs)
        draws[:, j] = (
            s._channel.standard_normal(n), s._mcs.standard_normal(n),
            s._bler.standard_normal(n), s._doppler.random(n), s._rtt.standard_normal(n),
        )
        loss[j] = s._rtt_loss.random((n, 2))
        tail[j] = s._rtt_tail.standard_exponential((n, 2))
    channel_z, mcs_z, bler_z, doppler_u, rtt_z = draws
    ticks = np.repeat(np.array(run_values), run_lengths, axis=0).reshape(shape + (8,))
    rank, seq, n_primary, n_other = ticks[..., :4].astype(np.int64).transpose(2, 0, 1)
    site_mark, perp2, load_dl, load_ul = ticks[..., 4:].transpose(2, 0, 1)

    # Channel: log-distance path loss plus each serving cell's shadowing.
    ref_dbm, k_loss, sigma = tables.path_loss[session_index, rank].transpose(2, 0, 1)
    dx = marks - site_mark
    distance = np.maximum(np.sqrt(dx * dx + perp2), 10.0)
    innovation = _innovation(rho, sigma, channel_z)
    marks_list, rho_list = marks.tolist(), rho.tolist()
    shadow = np.array([
        _shadow_scan(s._shadow, session_runs, marks_list, sig, z, rho_list, inno)
        for s, session_runs, sig, z, inno in zip(
            sessions, runs, sigma.tolist(), channel_z.tolist(), innovation.tolist()
        )
    ]).reshape(shape)
    rsrp = np.clip(ref_dbm - k_loss * _libm(_log10, distance / 100.0) + shadow, -135.0, -45.0)
    interference = _INTERFERENCE_DB[path.region] + 5.0 * (1.0 - (load_ul if uplink else load_dl))
    sinr = np.clip(rsrp - (_NOISE_FLOOR_DBM[rank] + interference), -10.0, 40.0)

    # PHY: MCS, BLER, capacity both ways, and AT&T's broken mmWave uplink.
    mcs, bler = _mcs_bler(sinr, speed, mcs_z, doppler_u, bler_z)
    n_dl, n_ul = (n_other, n_primary) if uplink else (n_primary, n_other)
    keep = 1.0 - bler
    cap_dl = np.maximum(tables.capacity[session_index, 0, rank, n_dl, mcs] * keep * load_dl, 0.01)
    cap_ul = np.maximum(tables.capacity[session_index, 1, rank, n_ul, mcs] * keep * load_ul, 0.01)
    for j, s in enumerate(sessions):
        if s.operator is Operator.ATT:
            cap_ul[j] = s._break_uplink(rank[j], cap_ul[j])

    # RTT: wired path, RAN, speed-dependent jitter, retransmissions and
    # rare spikes.
    log_median = _libm(
        _log,
        latency._DRIVING_JITTER_MEDIAN_MS
        * (1.0 + tables.speed_sensitivity * speed / 60.0)
        * tables.jitter_scale,
    )
    paths: dict = {}
    for server in servers:
        if server.location not in paths:
            paths[server.location] = haversine_from_m(server.location, path.lat, path.lon)
    wired = np.array([
        latency._CORE_OVERHEAD_MS[server.kind]
        + paths[server.location] / 1000.0 * latency._FIBRE_RTT_MS_PER_KM
        for server in servers
    ]).reshape(shape)
    rtt = (
        wired + tables.ran_ms[session_index, rank] + tables.extra_ms[session_index, rank]
        + _libm(_exp, log_median + latency._DRIVING_JITTER_SIGMA * rtt_z)
    )
    rtt = np.where(loss[..., 0] < bler * 0.5, rtt + 30.0 * tail[..., 0], rtt)
    rtt = np.where(
        loss[..., 1] < latency._SPIKE_PROB,
        rtt + np.minimum(latency._SPIKE_MEAN_MS * tail[..., 1], latency._SPIKE_CAP_MS),
        rtt,
    )

    # Handovers, then the TCP flows they interrupt.
    keys = seq << 3 | rank
    rate = handover_engine._PINGPONG_RATE_PER_S * dt_s
    interruption = np.zeros(shape)
    handovers = []
    for j, s in enumerate(sessions):
        s._connected.update(keys[j].tolist())
        duration = HandoverDurationParams(
            handover_engine._DURATION_MEDIANS_MS[(s.operator, direction)]
        ).sample
        handovers += [
            (ho[0], j, *ho[1:])
            for ho in s._handover_scan(keys[j], rate, duration, dt_s, interruption[j])
        ]
    handovers.sort(key=lambda ho: ho[:2])
    capacity = cap_ul if uplink else cap_dl
    tput = np.array([
        s._flow(capacity[j], rtt[j], dt_s, bler[j], interruption[j])
        for j, s in enumerate(sessions)
    ]).reshape(n_sessions, -1) if flow else np.empty((n_sessions, 0))
    ho = list(zip(*handovers)) or [()] * 7
    return LinkBlock(
        rank, rsrp, mcs, bler, n_primary, cap_dl, cap_ul, rtt, tput,
        np.asarray(ho[1], np.int64), np.asarray(ho[0], np.int64), np.asarray(ho[2], float),
        np.asarray(ho[3], np.int64), np.asarray(ho[4], np.int64),
        np.asarray(ho[5], np.int64), np.asarray(ho[6], np.int64),
    )
