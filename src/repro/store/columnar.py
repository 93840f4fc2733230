"""Per-column encodings for the campaign dataset store.

Each record family of a :class:`~repro.campaign.dataset.DriveDataset`
(throughput samples, RTT samples, tests, handovers, passive coverage,
app runs) is shredded into typed columns:

* **f8** — IEEE-754 doubles packed with :mod:`array` (``'d'``); exact
  round-trip of every Python float, including NaN and infinities;
* **i8** — signed 64-bit integers (``'q'``);
* **bool** — one byte per value;
* **dict** — dictionary encoding for low-cardinality strings (operator,
  technology, region, timezone, server kind, direction, cell ids): the
  distinct values, in first-appearance order, live in the footer and the
  column body holds fixed-width codes (1/2/4 bytes as cardinality needs).

Integer, boolean, and dictionary-code streams are additionally run-length
encoded when that shrinks them — slowly-changing columns (technology,
region, timezone, test id) compress to a handful of runs.  The choice is
per column, data-driven, and recorded in the footer, so readers never
guess.

Every encoded column carries **footer stats** — min/max over finite values
and a null (NaN) count, plus the distinct-value list for dict columns —
which is what the query engine's predicate pushdown prunes on without
touching the column bytes.

Encoding is fully deterministic (no timestamps, no hashing order), which
keeps store files byte-stable: equal datasets serialise to equal bytes.
"""

from __future__ import annotations

import dataclasses
import enum
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.campaign.dataset import (
    GamingRunResult,
    HandoverRecord,
    OffloadRunResult,
    PassiveCoverageSegment,
    RttSample,
    TestRecord,
    ThroughputSample,
    VideoRunResult,
)
from repro.campaign.tests import TestType
from repro.errors import StoreError
from repro.geo.regions import RegionType
from repro.geo.timezones import Timezone
from repro.mobility.events import HandoverEvent
from repro.net.servers import ServerKind
from repro.radio.cells import CellId
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology

__all__ = [
    "ColumnSpec",
    "ColumnStats",
    "EncodedColumn",
    "TableSchema",
    "TABLE_SCHEMAS",
    "TABLE_ATTRS",
    "encode_column",
    "decode_column",
    "decode_dict_codes",
    "decode_dict_column",
]

#: Width of one run-length prefix (little-endian u4).
_RUN_PREFIX_BYTES = 4

_CODE_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4"}


@dataclass(frozen=True, slots=True)
class ColumnSpec:
    """Static description of one column of a table."""

    name: str
    #: ``"f8"`` | ``"i8"`` | ``"bool"`` | ``"dict"``.
    kind: str
    #: Enum class whose member *names* populate a dict column; ``None`` for
    #: free-string dict columns (cell identifiers) and non-dict kinds.
    enum: type[enum.Enum] | None = None
    #: Derived columns are materialised at write time for the query engine
    #: (e.g. passive ``length_m``) but not fed back to the row constructor.
    derived: bool = False
    #: Parser of a free-string dict column's values into Python objects
    #: (cell identifiers); ``None`` keeps the strings.
    parse: Callable[[str], Any] | None = None

    def members(self, values: Sequence[Any]) -> list[Any]:
        """Python objects of a dict column's distinct footer ``values``.

        Built once per column, so enum lookups and parses run once per
        distinct value, not once per row.  Raises :class:`StoreError` on a
        non-string value, an unknown enum member or an unparsable value.
        """
        if not isinstance(values, (list, tuple)) or not all(
            isinstance(v, str) for v in values
        ):
            raise StoreError(
                f"column {self.name!r}: dictionary values must be strings"
            )
        if self.enum is not None:
            lookup = {member.name: member for member in self.enum}
            try:
                return [lookup[v] for v in values]
            except KeyError as exc:
                raise StoreError(
                    f"unknown {self.enum.__name__} member {exc.args[0]!r} in "
                    f"column {self.name!r}"
                ) from None
        if self.parse is not None:
            return [self.parse(v) for v in values]
        return list(values)


@dataclass(frozen=True, slots=True)
class ColumnStats:
    """Footer statistics of one column, the basis of predicate pushdown."""

    #: NaN count (always 0 for non-float columns).
    nulls: int
    #: Min/max over finite values (int for integer/bool columns, float for
    #: f8); ``None`` when no finite value exists (empty column, all-NaN)
    #: and for dict columns.
    min: float | int | None
    max: float | int | None

    def to_obj(self) -> dict:
        return {"nulls": self.nulls, "min": self.min, "max": self.max}

    @classmethod
    def from_obj(cls, obj: dict) -> "ColumnStats":
        return cls(
            nulls=int(obj.get("nulls", 0)),
            min=obj.get("min"),
            max=obj.get("max"),
        )


@dataclass(frozen=True, slots=True)
class EncodedColumn:
    """One column ready to be written: payload bytes + footer entry."""

    name: str
    kind: str
    #: ``"plain"`` or ``"rle"``.
    codec: str
    #: Bytes per packed value/code (8 for f8/i8, 1 for bool, 1/2/4 for dict).
    width: int
    count: int
    payload: bytes
    stats: ColumnStats
    #: Distinct values in first-appearance order; dict columns only.
    values: tuple[str, ...] | None = None

    def footer_entry(self, offset: int) -> dict:
        entry = {
            "name": self.name,
            "kind": self.kind,
            "codec": self.codec,
            "width": self.width,
            "count": self.count,
            "offset": offset,
            "nbytes": len(self.payload),
            "stats": self.stats.to_obj(),
        }
        if self.values is not None:
            entry["values"] = list(self.values)
        return entry


# -- encoding -----------------------------------------------------------------


def _numeric_stats(arr: np.ndarray) -> ColumnStats:
    if arr.size == 0:
        return ColumnStats(nulls=0, min=None, max=None)
    if arr.dtype.kind == "f":
        finite = arr[np.isfinite(arr)]
        nulls = int(np.isnan(arr).sum())
        if finite.size == 0:
            return ColumnStats(nulls=nulls, min=None, max=None)
        return ColumnStats(
            nulls=nulls, min=float(finite.min()), max=float(finite.max())
        )
    # Integer stats stay integers: a float cast would round large int64
    # values and make pushdown bounds (and tests) inexact.
    return ColumnStats(nulls=0, min=int(arr.min()), max=int(arr.max()))


def _rle_encode(
    codes: np.ndarray, width: int, value_dtype: str
) -> bytes | None:
    """Run-length encode ``codes``; ``None`` when plain packing is smaller.

    The stream is a sequence of interleaved ``(u4 run_length, value)``
    pairs, so a truncated tail is always detectable by length.
    """
    n = int(codes.size)
    if n == 0:
        return None
    boundaries = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    n_runs = int(starts.size)
    if n_runs * (_RUN_PREFIX_BYTES + width) >= n * width:
        return None
    pairs = np.empty(n_runs, dtype=[("n", "<u4"), ("v", value_dtype)])
    pairs["n"] = ends - starts
    pairs["v"] = codes[starts]
    return pairs.tobytes()


def _encode_int_like(
    name: str, kind: str, arr: np.ndarray, width: int, value_dtype: str,
    stats: ColumnStats, values: tuple[str, ...] | None = None,
) -> EncodedColumn:
    """Pack an integer-valued stream, run-length encoded when smaller."""
    rle = _rle_encode(arr, width, value_dtype)
    if rle is not None:
        return EncodedColumn(
            name=name, kind=kind, codec="rle", width=width,
            count=int(arr.size), payload=rle, stats=stats, values=values,
        )
    packed = arr.astype(value_dtype, copy=False).tobytes()
    return EncodedColumn(
        name=name, kind=kind, codec="plain", width=width,
        count=int(arr.size), payload=packed, stats=stats, values=values,
    )


def encode_column(spec: ColumnSpec, raw_values: list[Any]) -> EncodedColumn:
    """Encode one column of raw per-record values."""
    n = len(raw_values)
    if spec.kind == "f8":
        packed = array("d", [float(v) for v in raw_values])
        arr = np.frombuffer(packed.tobytes(), dtype="<f8")
        return EncodedColumn(
            name=spec.name, kind="f8", codec="plain", width=8, count=n,
            payload=packed.tobytes(), stats=_numeric_stats(arr),
        )
    if spec.kind == "i8":
        arr = np.asarray([int(v) for v in raw_values], dtype="<i8")
        return _encode_int_like(
            spec.name, "i8", arr, 8, "<i8", _numeric_stats(arr)
        )
    if spec.kind == "bool":
        arr = np.asarray([1 if v else 0 for v in raw_values], dtype="<u1")
        return _encode_int_like(
            spec.name, "bool", arr, 1, "<u1", _numeric_stats(arr)
        )
    if spec.kind == "dict":
        # Key on the value objects themselves, so an enum's ``.name`` is
        # computed once per distinct member rather than once per row.
        index: dict[Any, int] = {}
        codes = np.asarray(
            [index.setdefault(v, len(index)) for v in raw_values], dtype="<u4"
        )
        names = [v.name if isinstance(v, enum.Enum) else str(v) for v in index]
        table = dict.fromkeys(names)
        if len(table) != len(names):
            # Distinct objects sharing one string form (say a member and its
            # name) must share one code, exactly as if keyed on the string.
            first = {name: code for code, name in enumerate(table)}
            codes = np.asarray([first[name] for name in names], "<u4")[codes]
        cardinality = max(len(table), 1)
        width = 1 if cardinality <= 0xFF else 2 if cardinality <= 0xFFFF else 4
        codes = codes.astype(_CODE_DTYPES[width])
        return _encode_int_like(
            spec.name, "dict", codes, width, _CODE_DTYPES[width],
            ColumnStats(nulls=0, min=None, max=None),
            values=tuple(table),
        )
    raise StoreError(f"unknown column kind {spec.kind!r} for {spec.name!r}")


# -- decoding -----------------------------------------------------------------


def _decode_rle(
    entry: dict, payload: bytes | memoryview, width: int
) -> np.ndarray:
    pair_bytes = _RUN_PREFIX_BYTES + width
    nbytes = len(payload)
    if nbytes % pair_bytes != 0:
        raise StoreError(
            f"column {entry.get('name')!r}: RLE payload of {nbytes} bytes is "
            f"not a whole number of {pair_bytes}-byte runs (truncated file?)"
        )
    pairs = np.frombuffer(
        payload, dtype=[("n", "<u4"), ("v", _CODE_DTYPES.get(width, "<i8"))]
    )
    decoded = np.repeat(pairs["v"], pairs["n"])
    if decoded.size != int(entry["count"]):
        raise StoreError(
            f"column {entry.get('name')!r}: RLE expands to {decoded.size} "
            f"values, footer says {entry['count']} (corrupt file)"
        )
    return decoded


def decode_column(entry: dict, payload: bytes | memoryview) -> np.ndarray:
    """Decode one column payload into a numpy array.

    ``f8``/``i8`` columns decode to float64/int64; ``bool`` columns to
    uint8 (0/1); ``dict`` columns to their integer *codes* (pair with
    :func:`decode_dict_column` or the footer ``values`` list to get
    strings).  Plain columns are zero-copy views of ``payload``.

    Raises :class:`StoreError` when the payload length disagrees with the
    footer entry — a truncated or corrupt file never decodes to garbage.
    """
    kind = entry["kind"]
    codec = entry.get("codec", "plain")
    count = int(entry["count"])
    width = int(entry["width"])
    if kind == "f8":
        expected = count * 8
        if len(payload) != expected:
            raise StoreError(
                f"column {entry.get('name')!r}: expected {expected} bytes, "
                f"found {len(payload)} (truncated file?)"
            )
        return np.frombuffer(payload, dtype="<f8")
    if kind == "i8":
        if codec == "rle":
            return _decode_rle(entry, payload, 8).astype(np.int64, copy=False)
        expected = count * 8
        if len(payload) != expected:
            raise StoreError(
                f"column {entry.get('name')!r}: expected {expected} bytes, "
                f"found {len(payload)} (truncated file?)"
            )
        return np.frombuffer(payload, dtype="<i8")
    if kind in ("bool", "dict"):
        if codec == "rle":
            return _decode_rle(entry, payload, width)
        expected = count * width
        if len(payload) != expected:
            raise StoreError(
                f"column {entry.get('name')!r}: expected {expected} bytes, "
                f"found {len(payload)} (truncated file?)"
            )
        return np.frombuffer(payload, dtype=_CODE_DTYPES[width])
    raise StoreError(f"unknown column kind {kind!r} in footer")


def decode_dict_codes(entry: dict, payload: bytes | memoryview) -> np.ndarray:
    """Decode a dict column's codes, each checked against the footer values.

    Raises :class:`StoreError` when a code has no dictionary value, so
    indexing the footer ``values`` with the result can never fail.
    """
    codes = decode_column(entry, payload)
    n_values = len(entry.get("values", []))
    if codes.size and int(codes.max()) >= n_values:
        raise StoreError(
            f"column {entry.get('name')!r}: code {int(codes.max())} out of "
            f"range for {n_values} dictionary values (corrupt file)"
        )
    return codes


def decode_dict_column(entry: dict, payload: bytes | memoryview) -> list[str]:
    """Decode a dict column to its per-row string values."""
    values = entry.get("values", [])
    return [values[c] for c in decode_dict_codes(entry, payload).tolist()]


# -- table schemas ------------------------------------------------------------


@dataclass(frozen=True)
class TableSchema:
    """Columnar schema of one record family: shred and rebuild rows."""

    name: str
    columns: tuple[ColumnSpec, ...]
    #: Per-column raw-value getters, keyed by column name.
    getters: dict[str, Callable[[Any], Any]] = field(repr=False)
    #: Build the table's records from whole decoded columns, keyed by name
    #: (every non-derived column, all of the table's length).
    build: Callable[[Mapping[str, list[Any]]], list[Any]] = field(repr=False)

    def column(self, name: str) -> ColumnSpec:
        for spec in self.columns:
            if spec.name == name:
                return spec
        raise StoreError(
            f"table {self.name!r} has no column {name!r}; "
            f"known: {[c.name for c in self.columns]}"
        )

    def shred(self, records: list[Any]) -> list[EncodedColumn]:
        """Encode the records column by column."""
        encoded = []
        for spec in self.columns:
            get = self.getters[spec.name]
            encoded.append(encode_column(spec, [get(r) for r in records]))
        return encoded


def _cell_to_str(cid: CellId) -> str:
    return f"{cid.operator.name}:{cid.technology.name}:{cid.sequence}"


def _cell_from_str(text: str) -> CellId:
    try:
        op_name, tech_name, seq = text.split(":")
        return CellId(
            Operator[op_name], RadioTechnology[tech_name], int(seq)
        )
    except (KeyError, ValueError) as exc:
        raise StoreError(f"invalid cell id {text!r} in store file") from exc


def _records(cls: type) -> Callable[[Mapping[str, list[Any]]], list[Any]]:
    """Column-wise builder of a record class whose fields are all columns."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    return lambda columns: list(map(cls, *(columns[n] for n in names)))


def _build_ho(c: Mapping[str, list[Any]]) -> list[HandoverRecord]:
    events = map(
        HandoverEvent, c["operator"], c["time_s"], c["mark_m"],
        c["duration_ms"], c["from_cell"], c["to_cell"], c["from_tech"],
        c["to_tech"],
    )
    return list(map(HandoverRecord, c["test_id"], c["direction"], events))


def _schema(
    name: str,
    fields: list[tuple[str, str, Any, Callable[[Any], Any]]],
    build: Callable[[Mapping[str, list[Any]]], list[Any]],
    derived: list[tuple[str, str, Callable[[Any], Any]]] = (),
) -> TableSchema:
    """``fields`` rows are ``(name, kind, decoder, getter)``; a decoder is
    an enum class, a string parser, or ``None``."""
    columns = [
        ColumnSpec(n, kind, enum=d)
        if isinstance(d, type) and issubclass(d, enum.Enum)
        else ColumnSpec(n, kind, parse=d)
        for n, kind, d, _ in fields
    ]
    columns += [ColumnSpec(n, kind, derived=True) for n, kind, _ in derived]
    getters = {n: g for n, _, _, g in fields}
    getters.update({n: g for n, _, g in derived})
    return TableSchema(
        name=name, columns=tuple(columns), getters=getters, build=build
    )


#: Columnar schema of every record family, keyed by the same section names
#: the JSON-lines persistence format uses.
TABLE_SCHEMAS: dict[str, TableSchema] = {
    "tput": _schema(
        "tput",
        [
            ("test_id", "i8", None, lambda s: s.test_id),
            ("operator", "dict", Operator, lambda s: s.operator),
            ("direction", "dict", None, lambda s: s.direction),
            ("time_s", "f8", None, lambda s: s.time_s),
            ("mark_m", "f8", None, lambda s: s.mark_m),
            ("speed_mph", "f8", None, lambda s: s.speed_mph),
            ("region", "dict", RegionType, lambda s: s.region),
            ("timezone", "dict", Timezone, lambda s: s.timezone),
            ("tech", "dict", RadioTechnology, lambda s: s.tech),
            ("rsrp_dbm", "f8", None, lambda s: s.rsrp_dbm),
            ("mcs", "i8", None, lambda s: s.mcs),
            ("bler", "f8", None, lambda s: s.bler),
            ("n_ccs", "i8", None, lambda s: s.n_ccs),
            ("tput_mbps", "f8", None, lambda s: s.tput_mbps),
            ("server_kind", "dict", ServerKind, lambda s: s.server_kind),
            ("ho_count", "i8", None, lambda s: s.ho_count),
            ("static", "bool", None, lambda s: s.static),
        ],
        _records(ThroughputSample),
    ),
    "rtt": _schema(
        "rtt",
        [
            ("test_id", "i8", None, lambda s: s.test_id),
            ("operator", "dict", Operator, lambda s: s.operator),
            ("time_s", "f8", None, lambda s: s.time_s),
            ("mark_m", "f8", None, lambda s: s.mark_m),
            ("speed_mph", "f8", None, lambda s: s.speed_mph),
            ("region", "dict", RegionType, lambda s: s.region),
            ("timezone", "dict", Timezone, lambda s: s.timezone),
            ("tech", "dict", RadioTechnology, lambda s: s.tech),
            ("rtt_ms", "f8", None, lambda s: s.rtt_ms),
            ("server_kind", "dict", ServerKind, lambda s: s.server_kind),
            ("static", "bool", None, lambda s: s.static),
        ],
        _records(RttSample),
    ),
    "test": _schema(
        "test",
        [
            ("test_id", "i8", None, lambda t: t.test_id),
            ("test_type", "dict", TestType, lambda t: t.test_type),
            ("operator", "dict", Operator, lambda t: t.operator),
            ("start_time_s", "f8", None, lambda t: t.start_time_s),
            ("end_time_s", "f8", None, lambda t: t.end_time_s),
            ("start_mark_m", "f8", None, lambda t: t.start_mark_m),
            ("end_mark_m", "f8", None, lambda t: t.end_mark_m),
            ("server_kind", "dict", ServerKind, lambda t: t.server_kind),
            ("static", "bool", None, lambda t: t.static),
        ],
        _records(TestRecord),
    ),
    "ho": _schema(
        "ho",
        [
            ("test_id", "i8", None, lambda h: h.test_id),
            ("direction", "dict", None, lambda h: h.direction),
            ("operator", "dict", Operator, lambda h: h.event.operator),
            ("time_s", "f8", None, lambda h: h.event.time_s),
            ("mark_m", "f8", None, lambda h: h.event.mark_m),
            ("duration_ms", "f8", None, lambda h: h.event.duration_ms),
            ("from_cell", "dict", _cell_from_str,
             lambda h: _cell_to_str(h.event.from_cell)),
            ("to_cell", "dict", _cell_from_str,
             lambda h: _cell_to_str(h.event.to_cell)),
            ("from_tech", "dict", RadioTechnology, lambda h: h.event.from_tech),
            ("to_tech", "dict", RadioTechnology, lambda h: h.event.to_tech),
        ],
        _build_ho,
    ),
    "passive": _schema(
        "passive",
        [
            ("operator", "dict", Operator, lambda p: p.operator),
            ("start_m", "f8", None, lambda p: p.start_m),
            ("end_m", "f8", None, lambda p: p.end_m),
            ("tech", "dict", RadioTechnology, lambda p: p.tech),
            ("timezone", "dict", Timezone, lambda p: p.timezone),
            ("region", "dict", RegionType, lambda p: p.region),
        ],
        _records(PassiveCoverageSegment),
        derived=[("length_m", "f8", lambda p: p.length_m)],
    ),
    "offload": _schema(
        "offload",
        [
            ("app", "dict", TestType, lambda r: r.app),
            ("test_id", "i8", None, lambda r: r.test_id),
            ("operator", "dict", Operator, lambda r: r.operator),
            ("server_kind", "dict", ServerKind, lambda r: r.server_kind),
            ("compression", "bool", None, lambda r: r.compression),
            ("mean_e2e_ms", "f8", None, lambda r: r.mean_e2e_ms),
            ("median_e2e_ms", "f8", None, lambda r: r.median_e2e_ms),
            ("offload_fps", "f8", None, lambda r: r.offload_fps),
            ("map_score", "f8", None, lambda r: r.map_score),
            ("ho_count", "i8", None, lambda r: r.ho_count),
            ("frac_hs5g", "f8", None, lambda r: r.frac_hs5g),
            ("static", "bool", None, lambda r: r.static),
            ("uplink_megabits", "f8", None, lambda r: r.uplink_megabits),
        ],
        _records(OffloadRunResult),
    ),
    "video": _schema(
        "video",
        [
            ("test_id", "i8", None, lambda r: r.test_id),
            ("operator", "dict", Operator, lambda r: r.operator),
            ("server_kind", "dict", ServerKind, lambda r: r.server_kind),
            ("qoe", "f8", None, lambda r: r.qoe),
            ("avg_bitrate_mbps", "f8", None, lambda r: r.avg_bitrate_mbps),
            ("rebuffer_ratio", "f8", None, lambda r: r.rebuffer_ratio),
            ("ho_count", "i8", None, lambda r: r.ho_count),
            ("frac_hs5g", "f8", None, lambda r: r.frac_hs5g),
            ("static", "bool", None, lambda r: r.static),
            ("downlink_megabits", "f8", None, lambda r: r.downlink_megabits),
        ],
        _records(VideoRunResult),
    ),
    "gaming": _schema(
        "gaming",
        [
            ("test_id", "i8", None, lambda r: r.test_id),
            ("operator", "dict", Operator, lambda r: r.operator),
            ("server_kind", "dict", ServerKind, lambda r: r.server_kind),
            ("avg_bitrate_mbps", "f8", None, lambda r: r.avg_bitrate_mbps),
            ("median_latency_ms", "f8", None, lambda r: r.median_latency_ms),
            ("p95_latency_ms", "f8", None, lambda r: r.p95_latency_ms),
            ("frame_drop_rate", "f8", None, lambda r: r.frame_drop_rate),
            ("ho_count", "i8", None, lambda r: r.ho_count),
            ("frac_hs5g", "f8", None, lambda r: r.frac_hs5g),
            ("static", "bool", None, lambda r: r.static),
            ("downlink_megabits", "f8", None, lambda r: r.downlink_megabits),
        ],
        _records(GamingRunResult),
    ),
}

#: Dataset attribute holding each table's records, in serialisation order.
TABLE_ATTRS: dict[str, str] = {
    "tput": "throughput_samples",
    "rtt": "rtt_samples",
    "test": "tests",
    "ho": "handovers",
    "passive": "passive_coverage",
    "offload": "offload_runs",
    "video": "video_runs",
    "gaming": "gaming_runs",
}
