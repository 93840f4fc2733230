"""The drive campaign: LA→Boston with a round-robin measurement cycle.

Mirrors the paper's methodology (§3): three phones (one per carrier, all in
the same vehicle) run the test suite round-robin — downlink/uplink TCP bulk
transfers, ICMP RTT tests, AR and CAV offloading runs (with and without
compression), a 360° video session and a cloud-gaming session — while an
XCAL-style probe logs 500 ms KPI samples, and three further passive
"handover-logger" phones record the technology they camp on across the whole
trip.  Static baselines are measured in each major city facing the best
high-speed-5G base station available (§5.1).

Both ways of testing run through one test-block kernel,
``DriveCampaign._run_test``: the vehicle's path over the test comes first
(parked, only the clock moves), then the phones' links are evaluated over
it as one block of (phone × tick) arrays
(:func:`~repro.campaign.link.drive_block`, or
:meth:`~repro.campaign.link.UESession.park`).  The block's rows
(throughput or RTT samples, handovers, one test row per phone) are
written tick-major and operator-minor; app runs turn a phone's columns
into a :class:`LinkSchedule`.  What a cycle runs is decided in one place,
``CampaignConfig.plan.runs()`` with run lengths from
``CampaignConfig.duration_s``: the drive cycle, the parked battery and the
engine planner's nominal cycle length all read it.

``CampaignConfig.scale`` subsamples the *active testing duty cycle* (the
fraction of the route covered by tests) while still traversing the full
route, so small-scale datasets remain geographically representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.gaming import run_gaming_session
from repro.apps.offload import AR_CONFIG, CAV_CONFIG, run_offload_app
from repro.apps.schedule import LinkSchedule
from repro.apps.video import VideoConfig, run_video_session
from repro.campaign.dataset import DriveDataset
from repro.campaign.link import (
    LinkBlock,
    LinkColumns,
    StaticSite,
    UESession,
    VehiclePath,
    drive_block,
)
from repro.campaign.scheduler import CyclePlan, FULL_CYCLE
from repro.campaign.tests import TEST_DIRECTION, TEST_DURATIONS_S, TEST_TRAFFIC, TestType
from repro.errors import CampaignError
from repro.geo.regions import ALL_REGION_TYPES
from repro.geo.route import Route, RoutePosition, build_cross_country_route
from repro.geo.timezones import ALL_TIMEZONES
from repro.geo.speed import SpeedProfile
from repro.net.servers import Server, ServerKind, ServerRegistry
from repro.policy.profiles import PolicyProfile
from repro.radio.deployment import DeploymentModel
from repro.radio.operators import Operator
from repro.radio.ca import Direction
from repro.radio.cells import CellId
from repro.radio.technology import ALL_TECHNOLOGIES, HIGH_THROUGHPUT_TECHS
from repro.rng import RngFactory
from repro.units import mph_to_mps

__all__ = [
    "CampaignConfig",
    "CampaignWindow",
    "DriveCampaign",
    "generate_dataset",
    "NOMINAL_CRUISE_MPS",
]

#: ICMP RTT tests send one ping every 200 ms.
_PING_INTERVAL_S = 0.2

#: Nominal cruise speed used to give each route window a deterministic
#: wall-clock origin (matches the ≈60 mph assumption of the duty-cycle
#: fast-forward).
NOMINAL_CRUISE_MPS = 27.0


@dataclass(frozen=True, slots=True)
class CampaignWindow:
    """One contiguous route span executed as an independent shard.

    The sharded execution engine (:mod:`repro.engine`) splits the LA→Boston
    route into windows and runs one :class:`DriveCampaign` per window.  A
    windowed campaign starts at ``start_m`` with a deterministic clock origin
    (``start_m / NOMINAL_CRUISE_MPS``), runs measurement cycles until it
    crosses ``end_m``, and visits only the static-baseline cities that fall
    inside its span.  Every window drives through the same whole-route
    deployment (:meth:`DeploymentModel.world`), so the last cycle of a
    window may run past ``end_m`` and still find zones to camp on.  Its
    passive handover-loggers walk that deployment clipped to
    ``[start_m, end_m)``, so the windows' passive segments tile the route.
    """

    index: int
    start_m: float
    end_m: float
    #: Base added to every locally sequential test id, giving each window a
    #: disjoint, deterministic id namespace in the merged dataset.
    test_id_base: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_m < self.end_m:
            raise CampaignError(
                f"invalid window span [{self.start_m}, {self.end_m})"
            )

    @property
    def start_time_s(self) -> float:
        """Deterministic wall-clock origin of this window."""
        return self.start_m / NOMINAL_CRUISE_MPS

    @property
    def length_m(self) -> float:
        return self.end_m - self.start_m


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """Knobs of a campaign run."""

    seed: int = 42
    #: Fraction of the route covered by active testing (1.0 = tests run
    #: back-to-back for the entire drive).
    scale: float = 1.0
    tick_s: float = 0.5
    include_apps: bool = True
    include_static: bool = True
    video_duration_s: float = 180.0
    gaming_duration_s: float = 60.0
    inter_test_gap_s: float = 4.0
    #: The round-robin test cycle; defaults to the paper's full suite.
    cycle: CyclePlan = FULL_CYCLE

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise CampaignError(f"scale must be in (0, 1], got {self.scale}")
        if self.tick_s <= 0.0:
            raise CampaignError("tick_s must be positive")

    @property
    def plan(self) -> CyclePlan:
        """The cycle this campaign runs, driving and parked: ``cycle``,
        without its app tests unless ``include_apps``."""
        return self.cycle if self.include_apps else self.cycle.without_apps()

    def duration_s(self, test_type: TestType) -> float:
        """Length of one run of ``test_type``: video and gaming sessions
        last as configured, every other test as in :data:`TEST_DURATIONS_S`."""
        if test_type is TestType.VIDEO_360:
            return self.video_duration_s
        if test_type is TestType.CLOUD_GAMING:
            return self.gaming_duration_s
        return TEST_DURATIONS_S[test_type]


class DriveCampaign:
    """One full campaign execution.

    Examples
    --------
    >>> campaign = DriveCampaign(CampaignConfig(seed=7, scale=0.01,
    ...                                         include_apps=False))
    >>> dataset = campaign.run()
    >>> len(dataset.tests) > 0
    True
    """

    def __init__(
        self,
        config: CampaignConfig | None = None,
        route: Route | None = None,
        policy_profiles: "dict[Operator, PolicyProfile] | None" = None,
        *,
        window: CampaignWindow | None = None,
        rng_factory: RngFactory | None = None,
    ) -> None:
        """Set up the campaign.

        Parameters
        ----------
        policy_profiles:
            Optional per-operator policy overrides (ablations: e.g. a
            no-uplink-demotion world).  Operators not in the mapping keep
            their default profile.
        window:
            The route span to drive (see :class:`CampaignWindow`).  ``None``
            is the one window covering the whole route, with test ids
            counted from 0.
        rng_factory:
            Override the random-substream factory.  The engine passes each
            window ``RngFactory(seed).shard(window.index)`` so shard draws
            are independent of executor topology.  The radio deployment is
            not drawn from it: every window shares the one world of
            ``(route, config.seed, operator)``.
        """
        self.config = config or CampaignConfig()
        self.route = route or build_cross_country_route()
        self.window = window or CampaignWindow(
            index=0, start_m=0.0, end_m=self.route.total_length_m
        )
        self._rngs = rng_factory or RngFactory(seed=self.config.seed)
        self._servers = ServerRegistry(self.route)
        self._speed = SpeedProfile(self._rngs.stream("speed"))
        self._sessions: dict[Operator, UESession] = {}
        overrides = policy_profiles or {}
        for op in Operator:
            deployment = DeploymentModel.world(op, self.route, self.config.seed)
            self._sessions[op] = UESession(
                op, deployment, self._rngs, policy_profile=overrides.get(op)
            )
        self._mark_m = self.window.start_m
        self._time_s = self.window.start_time_s
        self._tables = _CampaignTables()
        self._test_seq = 0
        self._dataset = DriveDataset(
            seed=self.config.seed,
            scale=self.config.scale,
            route_length_km=self.route.total_length_km,
        )

    # -- public API --------------------------------------------------------

    def run(self) -> DriveDataset:
        """Execute the campaign window and return its dataset."""
        marks = ((self.route.city_mark_m(c.name), c.name) for c in self.route.cities)
        remaining_cities = sorted(m for m in marks if self._city_in_window(m[0]))
        end_m = min(self.window.end_m, self.route.total_length_m - 2_000.0)
        while self._mark_m < end_m:
            # Static battery when we reach a city.
            while remaining_cities and remaining_cities[0][0] <= self._mark_m:
                _, city_name = remaining_cities.pop(0)
                if self.config.include_static:
                    self._run_static_battery(city_name)
            cycle_start_m = self._mark_m
            self._run_cycle()
            cycle_dist = self._mark_m - cycle_start_m
            self._fast_forward(cycle_dist, end_m)

        # Cities not reached before the loop ended (Boston sits at the end).
        for _, city_name in remaining_cities:
            if self.config.include_static:
                self._run_static_battery(city_name)
        self._record_passive_coverage()
        self._tables.hand_to(self._dataset)
        return self._dataset

    def _city_in_window(self, city_mark_m: float) -> bool:
        """Whether this window owns the city at ``city_mark_m``.

        Windows own cities half-open ``[start, end)``; the final window (the
        one whose end reaches the route terminus) also owns the terminus
        city, Boston.
        """
        if self.window.end_m >= self.route.total_length_m - 1e-6:
            return self.window.start_m <= city_mark_m <= self.window.end_m
        return self.window.start_m <= city_mark_m < self.window.end_m

    # -- cycle & movement ----------------------------------------------------

    def _run_cycle(self) -> None:
        """One round-robin pass over the configured cycle plan (§3)."""
        for test_type, compression in self.config.plan.runs():
            self._run_test(test_type, compression)
            self._gap()

    def _gap(self) -> None:
        """Short idle gap between tests (reconfiguration, logging flush)."""
        steps = max(int(self.config.inter_test_gap_s / self.config.tick_s), 1)
        self._advance(steps, self.config.tick_s)

    def _advance(self, steps: int, dt_s: float) -> tuple[list, list, list]:
        """Move the vehicle ``steps`` times by ``dt_s`` seconds: the speed
        model steps in the region the vehicle is in, then the vehicle
        moves.  Returns the clock, mark and speed after each step."""
        step, region_at = self._speed.step, self.route.region_at
        end_m = self.route.total_length_m
        mark, clock = self._mark_m, self._time_s
        times, marks, speeds = [], [], []
        for _ in range(steps):
            mph = step(region_at(min(mark, end_m)), dt_s)
            mark = min(mark + mph_to_mps(mph) * dt_s, end_m)
            clock += dt_s
            times.append(clock)
            marks.append(mark)
            speeds.append(mph)
        self._mark_m, self._time_s = mark, clock
        return times, marks, speeds

    def _fast_forward(self, cycle_dist_m: float, end_m: float) -> None:
        """Skip the idle stretch implied by the campaign's duty cycle."""
        if self.config.scale >= 1.0:
            return
        skip = cycle_dist_m * (1.0 / self.config.scale - 1.0)
        skip = min(skip, max(end_m + 1_000.0 - self._mark_m, 0.0))
        if skip <= 0.0:
            return
        self._mark_m += skip
        self._time_s += skip / NOMINAL_CRUISE_MPS
        for session in self._sessions.values():
            session.reset_serving()

    def _next_test_id(self) -> int:
        self._test_seq += 1
        return self.window.test_id_base + self._test_seq

    def _servers_now(self, position: RoutePosition) -> dict[Operator, Server]:
        return {
            op: self._servers.select(op, position.point, position.timezone)
            for op in Operator
        }

    # -- the test-block kernel -------------------------------------------------

    def _run_static_battery(self, city_name: str) -> None:
        """Static baselines in a city (§5.1): each phone in turn parks
        facing the best high-speed-5G base station and runs the cycle's
        tests there."""
        city_mark = self.route.city_mark_m(city_name)
        position = self.route.position_at(city_mark)
        for op in Operator:
            session = self._sessions[op]
            site = session.find_static_site(city_mark, city_span_m=8_000.0)
            if site is None:
                continue  # no mmWave/midband here: skip, as the paper did
            server = self._servers.select(op, position.point, position.timezone)
            for test_type, compression in self.config.plan.runs():
                self._run_test(test_type, compression, (op, site, position, server))
            session.reset_serving()

    def _run_test(
        self,
        test_type: TestType,
        compression: bool,
        parked: "tuple[Operator, StaticSite, RoutePosition, Server] | None" = None,
    ) -> None:
        """Run one test on every phone while driving, or on the one
        ``parked`` phone ``(operator, site, position, server)``.

        The vehicle's path over the whole test comes first, as arrays;
        then the phones' links are evaluated over it as one block of
        (phone × tick) arrays (:func:`~repro.campaign.link.drive_block`, or
        :meth:`UESession.park` for the one parked phone), and the block is
        interleaved into the tables' tick-major, operator-minor row order.
        App runs build their :class:`LinkSchedule` from the columns.
        """
        direction = TEST_DIRECTION[test_type]
        traffic = TEST_TRAFFIC[test_type]
        rtt_test = test_type is TestType.RTT
        tput_test = test_type in (TestType.DOWNLINK_THROUGHPUT, TestType.UPLINK_THROUGHPUT)
        app_test = not (rtt_test or tput_test)
        step = _PING_INTERVAL_S if rtt_test else self.config.tick_s
        steps = int(self.config.duration_s(test_type) / step)
        static = parked is not None
        start_time = self._time_s
        if parked is None:
            position = self.route.position_at(self._mark_m)
            servers = self._servers_now(position)
            start_mark = self._mark_m
            test_ids = {op: self._next_test_id() for op in servers}
            times, marks, speeds = self._advance(steps, step)
            marks = np.asarray(marks)
            region, lat, lon, timezone = self.route.locate(marks)
            path = VehiclePath(times, marks, speeds, region, timezone, lat, lon)
            block = drive_block(
                [self._sessions[op] for op in servers], path, traffic, direction,
                list(servers.values()), step, tput_test,
            )
            end_mark = self._mark_m
        else:
            parked_op, site, position, server = parked
            servers = {parked_op: server}
            start_mark = end_mark = position.distance_m
            test_ids = {parked_op: self._next_test_id()}
            if app_test:
                # A parked app run ticks from its start time and moves the
                # clock once, after the run: the pinned output's times
                # depend on this float arithmetic.
                times = [start_time + i * step for i in range(steps)]
                self._time_s += self.config.duration_s(test_type)
            else:
                times, clock = [], self._time_s
                for _ in range(steps):
                    clock += step
                    times.append(clock)
                self._time_s = clock
            speeds = [0.0] * steps
            marks = np.full(steps, position.distance_m)
            region = np.full(steps, ALL_REGION_TYPES.index(position.region))
            timezone = np.full(steps, ALL_TIMEZONES.index(position.timezone))
            block = self._sessions[parked_op].park(
                site, position, times, direction, server, step, tput_test
            )

        ticks = (times, marks, speeds, region, timezone)
        if tput_test:
            self._tables.add_samples("tput", ticks, block, test_ids, servers, static, direction)
        elif rtt_test:
            self._tables.add_samples("rtt", ticks, block, test_ids, servers, static)
        self._tables.add_handovers(ticks, block, test_ids, direction)
        for j, (op, server) in enumerate(servers.items()):
            if app_test:
                self._record_app_run(
                    test_type, compression, test_ids[op], op, server.kind,
                    block.phone(j), times, static=static,
                )
            self._tables.add_row(
                "test",
                test_id=test_ids[op],
                test_type=_TEST_TYPE_CODE[test_type],
                operator=_OPERATOR_CODE[op],
                start_time_s=start_time,
                end_time_s=self._time_s,
                start_mark_m=start_mark,
                end_mark_m=end_mark,
                server_kind=_SERVER_KIND_CODE[server.kind],
                static=static,
            )

    def _record_app_run(
        self,
        test_type: TestType,
        compression: bool,
        test_id: int,
        op: Operator,
        server_kind: ServerKind,
        link: LinkColumns,
        times: list[float],
        static: bool,
    ) -> None:
        """Run the app model of ``test_type`` over one phone's columns and
        record the run."""
        schedule = LinkSchedule(
            times_s=np.asarray(times),
            tick_s=self.config.tick_s,
            ul_mbps=link.capacity_ul_mbps,
            dl_mbps=link.capacity_dl_mbps,
            rtt_ms=link.rtt_ms,
            techs=tuple(ALL_TECHNOLOGIES[rank] for rank in link.tech.tolist()),
            interruptions=tuple(
                (times[i], ms / 1000.0)
                for i, ms in zip(link.ho_tick.tolist(), link.ho_duration_ms.tolist())
            ),
        )
        run = dict(
            test_id=test_id,
            operator=_OPERATOR_CODE[op],
            server_kind=_SERVER_KIND_CODE[server_kind],
            ho_count=schedule.handover_count(),
            frac_hs5g=schedule.fraction_on(HIGH_THROUGHPUT_TECHS),
            static=static,
        )
        if test_type is TestType.VIDEO_360:
            video = run_video_session(
                schedule, VideoConfig(session_duration_s=self.config.video_duration_s)
            )
            self._tables.add_row(
                "video",
                qoe=video.qoe,
                avg_bitrate_mbps=video.avg_bitrate_mbps,
                rebuffer_ratio=video.rebuffer_ratio,
                downlink_megabits=video.downlink_megabits,
                **run,
            )
        elif test_type is TestType.CLOUD_GAMING:
            gaming = run_gaming_session(schedule)
            self._tables.add_row(
                "gaming",
                avg_bitrate_mbps=gaming.avg_bitrate_mbps,
                median_latency_ms=gaming.median_latency_ms,
                p95_latency_ms=gaming.p95_latency_ms,
                frame_drop_rate=gaming.frame_drop_rate,
                downlink_megabits=gaming.downlink_megabits,
                **run,
            )
        else:
            app_config = AR_CONFIG if test_type is TestType.AR else CAV_CONFIG
            offload = run_offload_app(schedule, app_config, compression)
            self._tables.add_row(
                "offload",
                app=_TEST_TYPE_CODE[test_type],
                compression=compression,
                mean_e2e_ms=offload.mean_e2e_ms,
                median_e2e_ms=offload.median_e2e_ms,
                offload_fps=offload.offload_fps,
                map_score=offload.map_score,
                uplink_megabits=offload.uplink_megabits,
                **run,
            )

    # -- recording helpers ------------------------------------------------------------

    def _record_passive_coverage(self) -> None:
        """Walk the window with the passive handover-loggers (§3), hold
        their coverage rows as the dataset's ``passive`` table, and record
        the distinct cells each operator's phones connected to."""
        # Imported here: repro.xcal and repro.store pull in repro.campaign at
        # package level, so module-level imports would be circular.
        from repro.store.columnar import ColumnTable
        from repro.xcal.handover_logger import run_handover_logger

        tables = []
        for op, session in self._sessions.items():
            trace = run_handover_logger(
                op,
                session.deployment,
                self._rngs.stream(f"passive-{op.code}"),
                self.window.start_m,
                self.window.end_m,
                session.policy_profile,
            )
            tables.append(trace.table)
            self._dataset.passive_handover_counts[op] = trace.macro_handovers
            self._dataset.connected_cells[op] = len(
                session.connected_cell_keys | trace.macro_cell_keys
            )
        self._dataset.set_table(ColumnTable.concat(tables))


#: Dictionary values of the enum columns the campaign writes, in code order
#: (an enum column's codes index these; a tech column's codes are ranks).
_TECH_NAMES = tuple(t.name for t in ALL_TECHNOLOGIES)
_TEST_TYPE_NAMES = tuple(t.name for t in TestType)
_ENUM_VALUES = {
    "operator": tuple(op.name for op in Operator),
    "direction": Direction.ALL,
    "region": tuple(r.name for r in ALL_REGION_TYPES),
    "timezone": tuple(tz.name for tz in ALL_TIMEZONES),
    "tech": _TECH_NAMES,
    "from_tech": _TECH_NAMES,
    "to_tech": _TECH_NAMES,
    "server_kind": tuple(k.name for k in ServerKind),
    "test_type": _TEST_TYPE_NAMES,
    "app": _TEST_TYPE_NAMES,
}
_OPERATOR_CODE = {op: code for code, op in enumerate(Operator)}
_SERVER_KIND_CODE = {kind: code for code, kind in enumerate(ServerKind)}
_TEST_TYPE_CODE = {t: code for code, t in enumerate(TestType)}
_DTYPES = {"f8": np.float64, "i8": np.int64, "bool": np.bool_, "dict": np.uint32}


class _CampaignTables:
    """Every table of the campaign but ``passive``, held as column blocks
    as the tests write them and handed to the dataset as
    :class:`~repro.store.columnar.ColumnTable` s.

    Enum columns hold codes into :data:`_ENUM_VALUES`; the handover cell
    columns hold codes into the cells ``(operator, tech rank, sequence)``
    seen so far.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, dict[str, list]] = {
            name: {} for name in ("tput", "rtt", "test", "ho", "offload", "video", "gaming")
        }
        self._cells: dict[tuple[Operator, int, int], int] = {}

    def _add(self, table: str, **columns) -> None:
        blocks = self._blocks[table]
        for name, values in columns.items():
            blocks.setdefault(name, []).append(values)

    def add_samples(
        self,
        table: str,
        ticks: tuple,
        block: LinkBlock,
        test_ids: dict[Operator, int],
        servers: dict[Operator, Server],
        static: bool,
        direction: str | None = None,
    ) -> None:
        """One test's ``tput`` (with ``direction``) or ``rtt`` samples: a
        row per tick and phone (``block``'s sessions are ``servers``'
        operators, in order), tick-major, operator-minor."""
        times, marks, speeds, region, timezone = ticks
        ops = list(servers)
        k = len(ops)
        n = len(times)

        def each(column) -> np.ndarray:  # a (phone x tick) column, interleaved
            return np.asarray(column).T.ravel()

        def per_phone(values) -> np.ndarray:  # one value per phone, tiled
            return np.tile(np.asarray(values), n)

        columns = dict(
            test_id=per_phone([test_ids[op] for op in ops]),
            operator=per_phone([_OPERATOR_CODE[op] for op in ops]),
            time_s=np.repeat(times, k),
            mark_m=np.repeat(marks, k),
            speed_mph=np.repeat(speeds, k),
            region=np.repeat(region, k),
            timezone=np.repeat(timezone, k),
            tech=each(block.tech),
            server_kind=per_phone([_SERVER_KIND_CODE[servers[op].kind] for op in ops]),
            static=np.full(n * k, static),
        )
        if table == "rtt":
            columns["rtt_ms"] = each(block.rtt_ms)
        else:
            ho_count = np.bincount(block.ho_tick * k + block.ho_session, minlength=n * k)
            columns.update(
                direction=np.full(n * k, Direction.ALL.index(direction)),
                rsrp_dbm=each(block.rsrp_dbm),
                mcs=each(block.mcs),
                bler=each(block.bler),
                n_ccs=each(block.n_ccs),
                tput_mbps=each(block.tput_mbps),
                ho_count=ho_count,
            )
        self._add(table, **columns)

    def add_handovers(
        self,
        ticks: tuple,
        block: LinkBlock,
        test_ids: dict[Operator, int],
        direction: str,
    ) -> None:
        """One test's handovers, ordered by tick, then phone (``block``'s
        sessions are ``test_ids``' operators, in order)."""
        if not block.ho_tick.size:
            return
        times, marks = ticks[0], ticks[1]
        ops = [list(test_ids)[j] for j in block.ho_session.tolist()]
        tick = block.ho_tick.tolist()
        from_tech, to_tech = block.ho_from_tech.tolist(), block.ho_to_tech.tolist()
        cells = self._cells

        def cell_codes(techs: list[int], seqs: np.ndarray) -> list[int]:
            return [
                cells.setdefault(cell, len(cells)) for cell in zip(ops, techs, seqs.tolist())
            ]

        self._add(
            "ho",
            test_id=[test_ids[op] for op in ops],
            direction=[Direction.ALL.index(direction)] * len(ops),
            operator=[_OPERATOR_CODE[op] for op in ops],
            time_s=[times[i] for i in tick],
            mark_m=np.asarray(marks)[block.ho_tick],
            duration_ms=block.ho_duration_ms,
            from_cell=cell_codes(from_tech, block.ho_from_seq),
            to_cell=cell_codes(to_tech, block.ho_to_seq),
            from_tech=from_tech,
            to_tech=to_tech,
        )

    def add_row(self, table: str, **values) -> None:
        """One row of ``table`` (``test`` or an app-run table), given as
        one value per column: each column's values gather in one list."""
        blocks = self._blocks[table]
        for name, value in values.items():
            blocks.setdefault(name, [[]])[0].append(value)

    def hand_to(self, dataset: DriveDataset) -> None:
        """Hold every table written to in ``dataset`` as columns (the
        others stay the dataset's shared empty tables)."""
        # Imported here: repro.store pulls in repro.campaign at package level.
        from repro.store.columnar import TABLE_SCHEMAS, ColumnTable, cell_to_str

        cells = tuple(
            cell_to_str(CellId(op, ALL_TECHNOLOGIES[rank], seq))
            for op, rank, seq in self._cells
        )
        values = dict(_ENUM_VALUES, from_cell=cells, to_cell=cells)
        for name, blocks in self._blocks.items():
            if not blocks:
                continue
            arrays = {
                spec.name: np.concatenate([
                    np.asarray(block, dtype=_DTYPES[spec.kind]) for block in blocks[spec.name]
                ])
                for spec in TABLE_SCHEMAS[name].stored
            }
            dataset.set_table(ColumnTable.from_codes(name, arrays, values))


def generate_dataset(
    seed: int = 42,
    scale: float = 1.0,
    include_apps: bool = True,
    include_static: bool = True,
) -> DriveDataset:
    """Generate a full campaign dataset — the library's main entry point.

    Executes the canonical shard plan of :mod:`repro.engine` serially in
    this process, so the result is bit-identical to
    :func:`repro.engine.generate_dataset_parallel` with the same seed at any
    worker count.

    Parameters
    ----------
    seed:
        Root seed; identical seeds produce identical datasets.
    scale:
        Active-testing duty cycle along the route (1.0 reproduces the
        paper's back-to-back schedule; 0.1 is a quick representative slice).
    include_apps / include_static:
        Toggle the application tests and the static city baselines.
    """
    # Imported here: repro.engine orchestrates this module, so a module-level
    # import would be circular.
    from repro.engine import generate_dataset_parallel

    return generate_dataset_parallel(
        seed=seed, scale=scale,
        include_apps=include_apps, include_static=include_static,
        workers=1, executor="serial",
    )
