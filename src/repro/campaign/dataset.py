"""The drive dataset: typed records plus Table-1-style summary statistics.

This is the synthetic counterpart of the paper's published dataset [8]: every
analysis in :mod:`repro.analysis` consumes a :class:`DriveDataset`.

The record dataclasses below are also the on-disk schema.  Both file
formats — gzipped JSON-lines (:mod:`repro.campaign.persistence`) and the
columnar ``.rcol`` store (:mod:`repro.store.columnar`) — derive their
columns from these fields' types, and :data:`RECORD_FAMILIES` is the one
list of record families that the codecs, the engine's merge and its
record counts iterate.  A new field needs only a dataclass edit plus its
short JSON key; a new family needs one more :data:`RECORD_FAMILIES` entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from repro.campaign.tests import TestType
from repro.geo.regions import RegionType
from repro.geo.timezones import Timezone
from repro.mobility.events import HandoverEvent
from repro.net.servers import ServerKind
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.units import bytes_to_gigabytes, megabits_to_bytes, meters_to_miles

__all__ = [
    "ThroughputSample",
    "RttSample",
    "TestRecord",
    "HandoverRecord",
    "PassiveCoverageSegment",
    "OffloadRunResult",
    "VideoRunResult",
    "GamingRunResult",
    "DatasetSummary",
    "DriveDataset",
    "RecordFamily",
    "RECORD_FAMILIES",
]


@dataclass(frozen=True, slots=True)
class ThroughputSample:
    """One 500 ms application-layer throughput sample (XCAL logging)."""

    test_id: int
    operator: Operator
    direction: str
    time_s: float
    mark_m: float
    speed_mph: float
    region: RegionType
    timezone: Timezone
    tech: RadioTechnology
    rsrp_dbm: float
    mcs: int
    bler: float
    n_ccs: int
    tput_mbps: float
    server_kind: ServerKind
    ho_count: int
    static: bool


@dataclass(frozen=True, slots=True)
class RttSample:
    """One ICMP echo RTT sample."""

    test_id: int
    operator: Operator
    time_s: float
    mark_m: float
    speed_mph: float
    region: RegionType
    timezone: Timezone
    tech: RadioTechnology
    rtt_ms: float
    server_kind: ServerKind
    static: bool


@dataclass(frozen=True, slots=True)
class TestRecord:
    """Metadata of one test run."""

    test_id: int
    test_type: TestType
    operator: Operator
    start_time_s: float
    end_time_s: float
    start_mark_m: float
    end_mark_m: float
    server_kind: ServerKind
    static: bool

    @property
    def duration_s(self) -> float:
        return self.end_time_s - self.start_time_s

    @property
    def distance_miles(self) -> float:
        return meters_to_miles(self.end_mark_m - self.start_mark_m)


@dataclass(frozen=True, slots=True)
class HandoverRecord:
    """A handover observed during a test, with test context attached."""

    test_id: int
    direction: str
    event: HandoverEvent


@dataclass(frozen=True, slots=True)
class PassiveCoverageSegment:
    """Technology view of the passive handover-logger over one zone."""

    operator: Operator
    start_m: float
    end_m: float
    tech: RadioTechnology
    timezone: Timezone
    region: RegionType

    @property
    def length_m(self) -> float:
        return self.end_m - self.start_m


@dataclass(frozen=True, slots=True)
class OffloadRunResult:
    """One 20 s AR or CAV offloading run (§7.1)."""

    app: TestType
    test_id: int
    operator: Operator
    server_kind: ServerKind
    compression: bool
    mean_e2e_ms: float
    median_e2e_ms: float
    offload_fps: float
    #: Object-detection accuracy; only meaningful for the AR app.
    map_score: float
    ho_count: int
    frac_hs5g: float
    static: bool
    uplink_megabits: float


@dataclass(frozen=True, slots=True)
class VideoRunResult:
    """One 3-minute 360° video streaming session (§7.2)."""

    test_id: int
    operator: Operator
    server_kind: ServerKind
    qoe: float
    avg_bitrate_mbps: float
    rebuffer_ratio: float
    ho_count: int
    frac_hs5g: float
    static: bool
    downlink_megabits: float


@dataclass(frozen=True, slots=True)
class GamingRunResult:
    """One cloud-gaming session (§7.3)."""

    test_id: int
    operator: Operator
    server_kind: ServerKind
    avg_bitrate_mbps: float
    median_latency_ms: float
    p95_latency_ms: float
    frame_drop_rate: float
    ho_count: int
    frac_hs5g: float
    static: bool
    downlink_megabits: float


@dataclass(frozen=True, slots=True)
class DatasetSummary:
    """Table 1: dataset statistics."""

    total_distance_km: float
    operators: tuple[Operator, ...]
    unique_cells: dict[Operator, int]
    handovers: dict[Operator, int]
    total_rx_gb: float
    total_tx_gb: float
    runtime_min: dict[Operator, float]
    test_counts: dict[TestType, int]


@dataclass
class DriveDataset:
    """Everything generated by one campaign run."""

    seed: int
    scale: float
    route_length_km: float
    throughput_samples: list[ThroughputSample] = field(default_factory=list)
    rtt_samples: list[RttSample] = field(default_factory=list)
    tests: list[TestRecord] = field(default_factory=list)
    handovers: list[HandoverRecord] = field(default_factory=list)
    passive_coverage: list[PassiveCoverageSegment] = field(default_factory=list)
    offload_runs: list[OffloadRunResult] = field(default_factory=list)
    video_runs: list[VideoRunResult] = field(default_factory=list)
    gaming_runs: list[GamingRunResult] = field(default_factory=list)
    #: Trip-wide passive (handover-logger) HO counts per operator.
    passive_handover_counts: dict[Operator, int] = field(default_factory=dict)
    #: Distinct cells each operator's UEs connected to (active + passive).
    connected_cells: dict[Operator, int] = field(default_factory=dict)

    # -- selection helpers -------------------------------------------------

    def tput(
        self,
        operator: Operator | None = None,
        direction: str | None = None,
        static: bool | None = None,
        techs: Iterable[RadioTechnology] | None = None,
        server_kind: ServerKind | None = None,
        timezone: Timezone | None = None,
    ) -> list[ThroughputSample]:
        """Filter throughput samples; ``None`` criteria match everything."""
        tech_set = frozenset(techs) if techs is not None else None
        return [
            s
            for s in self.throughput_samples
            if (operator is None or s.operator is operator)
            and (direction is None or s.direction == direction)
            and (static is None or s.static == static)
            and (tech_set is None or s.tech in tech_set)
            and (server_kind is None or s.server_kind is server_kind)
            and (timezone is None or s.timezone is timezone)
        ]

    def tput_values(self, **kwargs: object) -> np.ndarray:
        """Throughput values (Mbps) matching the same filters as :meth:`tput`."""
        return np.asarray([s.tput_mbps for s in self.tput(**kwargs)], dtype=float)

    def rtts(
        self,
        operator: Operator | None = None,
        static: bool | None = None,
        techs: Iterable[RadioTechnology] | None = None,
        server_kind: ServerKind | None = None,
    ) -> list[RttSample]:
        """Filter RTT samples; ``None`` criteria match everything."""
        tech_set = frozenset(techs) if techs is not None else None
        return [
            s
            for s in self.rtt_samples
            if (operator is None or s.operator is operator)
            and (static is None or s.static == static)
            and (tech_set is None or s.tech in tech_set)
            and (server_kind is None or s.server_kind is server_kind)
        ]

    def rtt_values(self, **kwargs: object) -> np.ndarray:
        """RTT values (ms) matching the same filters as :meth:`rtts`."""
        return np.asarray([s.rtt_ms for s in self.rtts(**kwargs)], dtype=float)

    def tests_of(
        self,
        test_type: TestType | None = None,
        operator: Operator | None = None,
        static: bool | None = None,
    ) -> list[TestRecord]:
        """Filter test records."""
        return [
            t
            for t in self.tests
            if (test_type is None or t.test_type is test_type)
            and (operator is None or t.operator is operator)
            and (static is None or t.static == static)
        ]

    def handovers_of(
        self, operator: Operator | None = None, direction: str | None = None
    ) -> list[HandoverRecord]:
        """Filter handover records observed during tests."""
        return [
            h
            for h in self.handovers
            if (operator is None or h.event.operator is operator)
            and (direction is None or h.direction == direction)
        ]

    def samples_by_test(self) -> dict[int, list[ThroughputSample]]:
        """Group throughput samples by test id, preserving time order."""
        grouped: dict[int, list[ThroughputSample]] = {}
        for s in self.throughput_samples:
            grouped.setdefault(s.test_id, []).append(s)
        return grouped

    # -- summary -------------------------------------------------------------

    def data_volume_bytes(self) -> tuple[float, float]:
        """(rx_bytes, tx_bytes) moved by all tests and app runs."""
        rx = 0.0
        tx = 0.0
        for s in self.throughput_samples:
            mbits = s.tput_mbps * 0.5
            if s.direction == "uplink":
                tx += megabits_to_bytes(mbits)
            else:
                rx += megabits_to_bytes(mbits)
        for run in self.offload_runs:
            tx += megabits_to_bytes(run.uplink_megabits)
        for run in self.video_runs:
            rx += megabits_to_bytes(run.downlink_megabits)
        for run in self.gaming_runs:
            rx += megabits_to_bytes(run.downlink_megabits)
        return rx, tx

    def summary(self) -> DatasetSummary:
        """Compute Table 1's dataset statistics."""
        runtime: dict[Operator, float] = {op: 0.0 for op in Operator}
        for t in self.tests:
            runtime[t.operator] += t.duration_s
        active_hos: dict[Operator, int] = {op: 0 for op in Operator}
        for h in self.handovers:
            active_hos[h.event.operator] += 1
        handover_totals = {
            op: self.passive_handover_counts.get(op, 0) + active_hos[op]
            for op in Operator
        }
        test_counts: dict[TestType, int] = {}
        for t in self.tests:
            test_counts[t.test_type] = test_counts.get(t.test_type, 0) + 1
        rx, tx = self.data_volume_bytes()
        return DatasetSummary(
            total_distance_km=self.route_length_km,
            operators=tuple(Operator),
            unique_cells=dict(self.connected_cells),
            handovers=handover_totals,
            total_rx_gb=bytes_to_gigabytes(rx),
            total_tx_gb=bytes_to_gigabytes(tx),
            runtime_min={op: v / 60.0 for op, v in runtime.items()},
            test_counts=test_counts,
        )


class RecordFamily(NamedTuple):
    """One record family: its table name on disk, the :class:`DriveDataset`
    attribute holding its records, and the record class."""

    table: str
    attr: str
    record: type


#: Every record family, in serialisation and merge order.
RECORD_FAMILIES: tuple[RecordFamily, ...] = (
    RecordFamily("tput", "throughput_samples", ThroughputSample),
    RecordFamily("rtt", "rtt_samples", RttSample),
    RecordFamily("test", "tests", TestRecord),
    RecordFamily("ho", "handovers", HandoverRecord),
    RecordFamily("passive", "passive_coverage", PassiveCoverageSegment),
    RecordFamily("offload", "offload_runs", OffloadRunResult),
    RecordFamily("video", "video_runs", VideoRunResult),
    RecordFamily("gaming", "gaming_runs", GamingRunResult),
)
