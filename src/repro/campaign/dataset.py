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

A :class:`DriveDataset` holds every table as a
:class:`~repro.store.columnar.ColumnTable` (column arrays) and nothing
else; every statistic, merge and write reads it through
:meth:`DriveDataset.table`.  A record attribute
(``dataset.throughput_samples``) is a read-only view: a tuple of the held
table's records, built on first read and kept until the table is replaced.
Assigning a sequence of records (also as a constructor keyword) holds the
table shredded from them; a table given no records is one shared empty
table.  The value helpers (:meth:`~DriveDataset.tput_values`,
:meth:`~DriveDataset.rtt_values`) run the query engine over the columns.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
    "empty_table",
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
    throughput_samples: Sequence[ThroughputSample] = ()
    rtt_samples: Sequence[RttSample] = ()
    tests: Sequence[TestRecord] = ()
    handovers: Sequence[HandoverRecord] = ()
    passive_coverage: Sequence[PassiveCoverageSegment] = ()
    offload_runs: Sequence[OffloadRunResult] = ()
    video_runs: Sequence[VideoRunResult] = ()
    gaming_runs: Sequence[GamingRunResult] = ()
    #: Trip-wide passive (handover-logger) HO counts per operator.
    passive_handover_counts: dict[Operator, int] = field(default_factory=dict)
    #: Distinct cells each operator's UEs connected to (active + passive).
    connected_cells: dict[Operator, int] = field(default_factory=dict)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop(_VIEWS, None)
        return state

    # -- value helpers -----------------------------------------------------

    def tput_values(
        self,
        operator: Operator | None = None,
        direction: str | None = None,
        static: bool | None = None,
        server_kind: ServerKind | None = None,
    ) -> np.ndarray:
        """Throughput values (Mbps) of the samples meeting every given
        criterion (``None`` matches everything), in row order, selected by
        the query engine from :meth:`table`."""
        return _values(self, "tput", "tput_mbps", (
            ("operator", operator), ("direction", direction),
            ("static", static), ("server_kind", server_kind),
        ))

    def rtt_values(
        self,
        operator: Operator | None = None,
        static: bool | None = None,
        server_kind: ServerKind | None = None,
    ) -> np.ndarray:
        """RTT values (ms) of the samples meeting every given criterion, in
        row order, selected by the query engine from :meth:`table`."""
        return _values(self, "rtt", "rtt_ms", (
            ("operator", operator), ("static", static), ("server_kind", server_kind),
        ))

    # -- tables ----------------------------------------------------------------

    def table(self, name: str):
        """The named table, a :class:`~repro.store.columnar.ColumnTable`."""
        return self.__dict__[_FAMILY_OF_TABLE[name].attr]

    def set_table(self, table) -> None:
        """Hold ``table`` (a :class:`~repro.store.columnar.ColumnTable`) as
        its family's table, replacing the one held."""
        self.__dict__[_FAMILY_OF_TABLE[table.name].attr] = table

    def count(self, name: str) -> int:
        """Rows in the named table, without building any."""
        return self.table(name).count

    # -- summary -------------------------------------------------------------

    def data_volume_bytes(self) -> tuple[float, float]:
        """(rx_bytes, tx_bytes) moved by all tests and app runs.

        Each total is one left fold in row order: the throughput samples'
        500 ms volumes (uplink to tx, every other direction to rx), then
        the app runs' volumes (offload uplink; video, then gaming downlink).
        """
        # Imported here: the query engine reads datasets.
        from repro.store.query import fold, select, select_columns

        tput_mbps, directions = select_columns(self, "tput", ("tput_mbps", "direction"))
        tput_bytes = megabits_to_bytes(tput_mbps * 0.5)
        uplink = directions == "uplink"

        def run_bytes(table: str, column: str) -> np.ndarray:
            return megabits_to_bytes(select(self, table, column))

        rx = fold(np.concatenate((
            tput_bytes[~uplink],
            run_bytes("video", "downlink_megabits"),
            run_bytes("gaming", "downlink_megabits"),
        )))
        tx = fold(np.concatenate((
            tput_bytes[uplink], run_bytes("offload", "uplink_megabits")
        )))
        return rx, tx

    def summary(self) -> DatasetSummary:
        """Compute Table 1's dataset statistics."""
        from repro.store.query import Eq, count, fold, select, select_columns

        runtime: dict[Operator, float] = {}
        handover_totals: dict[Operator, int] = {}
        for op in Operator:
            of_op = (Eq("operator", op),)
            end, start = select_columns(self, "test", ("end_time_s", "start_time_s"), of_op)
            runtime[op] = fold(end - start)
            handover_totals[op] = self.passive_handover_counts.get(op, 0) + count(
                self, "ho", of_op
            )
        rx, tx = self.data_volume_bytes()
        return DatasetSummary(
            total_distance_km=self.route_length_km,
            operators=tuple(Operator),
            unique_cells=dict(self.connected_cells),
            handovers=handover_totals,
            total_rx_gb=bytes_to_gigabytes(rx),
            total_tx_gb=bytes_to_gigabytes(tx),
            runtime_min={op: v / 60.0 for op, v in runtime.items()},
            test_counts=dict(Counter(select(self, "test", "test_type"))),
        )


class RecordFamily(NamedTuple):
    """One record family: its table name on disk, the :class:`DriveDataset`
    attribute viewing its records, and the record class."""

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

_FAMILY_OF_TABLE: dict[str, RecordFamily] = {f.table: f for f in RECORD_FAMILIES}

#: Instance-dict key of a dataset's record views, by table name; pickles
#: and copies leave it out (views are rebuilt from the tables).
_VIEWS = "_record_views"


class _Records:
    """The record attribute of one family on :class:`DriveDataset`.

    Reading it returns the held table's records as a tuple, built on first
    read and kept in the instance dict as a ``(table, records)`` pair
    (:data:`_VIEWS`), served while that table is the one held.  Assigning a
    sequence of records holds the table shredded from them, or the family's
    shared empty table if the sequence is empty; the records are not kept.
    The table is held in the instance dict under the attribute's own name,
    which this data descriptor shadows.
    """

    def __init__(self, family: RecordFamily) -> None:
        self.table = family.table

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        table = obj.table(self.table)
        views = obj.__dict__.setdefault(_VIEWS, {})
        view = views.get(self.table)
        if view is None or view[0] is not table:
            view = views[self.table] = (table, tuple(table.rows()))
        return view[1]

    def __set__(self, obj, records: Sequence) -> None:
        if not records:
            obj.set_table(empty_table(self.table))
            return
        # Imported here: the store derives its schemas from this module.
        from repro.store.columnar import TABLE_SCHEMAS, ColumnTable

        obj.set_table(ColumnTable.from_rows(TABLE_SCHEMAS[self.table], records))


@functools.cache
def empty_table(name: str):
    """The zero-row table ``name``, one object shared by every holder (its
    arrays are read-only): what a dataset holds for a table given no
    records, and what the store reader loads a writer's zero-row table as."""
    from repro.store.columnar import TABLE_SCHEMAS, ColumnTable

    return ColumnTable.from_rows(TABLE_SCHEMAS[name], ())


for _family in RECORD_FAMILIES:
    setattr(DriveDataset, _family.attr, _Records(_family))
del _family


def _values(dataset: DriveDataset, table: str, column: str, criteria) -> np.ndarray:
    """``column`` of the rows of ``table`` equal to every ``(column, value)``
    criterion whose value is not ``None``."""
    # Imported here: the query engine reads datasets.
    from repro.store.query import Eq, select

    where = tuple(Eq(name, want) for name, want in criteria if want is not None)
    return select(dataset, table, column, where)
