"""Per-column encodings for the campaign dataset store.

Each record family of a :class:`~repro.campaign.dataset.DriveDataset`
(throughput samples, RTT samples, tests, handovers, passive coverage,
app runs) is shredded into typed columns.  The record dataclasses are the
schema: :meth:`TableSchema.derive` makes one column per field from its
type annotation (``int``, ``float``, ``bool``, ``str``, an enum, or a
:class:`~repro.radio.cells.CellId` stored as ``OP:TECH:seq``; a nested
dataclass flattens), so a new field needs only a dataclass edit (plus its
short key in the JSON-lines codec).  The column kinds are:

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
import typing
from array import array
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.campaign.dataset import RECORD_FAMILIES
from repro.errors import StoreError
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

#: Column kind of each scalar field type; ``str`` fields are free-string
#: dict columns.
_KINDS = {int: "i8", float: "f8", bool: "bool", str: "dict"}

#: Properties materialised as derived columns, by table.
_DERIVED = {"passive": ("length_m",)}


def _cell_to_str(cid: CellId) -> str:
    """The stored form of a cell id, ``OP:TECH:seq`` (not ``str(cid)``)."""
    return f"{cid.operator.name}:{cid.technology.name}:{cid.sequence}"


def _cell_from_str(text: str) -> CellId:
    try:
        op_name, tech_name, seq = text.split(":")
        return CellId(
            Operator[op_name], RadioTechnology[tech_name], int(seq)
        )
    except (KeyError, ValueError) as exc:
        raise StoreError(f"invalid cell id {text!r}") from exc


def _column(name: str, tp: Any, owner: type) -> ColumnSpec:
    if tp in _KINDS:
        return ColumnSpec(name, _KINDS[tp])
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return ColumnSpec(name, "dict", enum=tp)
    if tp is CellId:
        return ColumnSpec(name, "dict", parse=_cell_from_str)
    raise TypeError(
        f"{owner.__name__}.{name}: no column type for annotation {tp!r}"
    )


def _getter(path: str, tp: Any) -> Callable[[Any], Any]:
    get = attrgetter(path)
    if tp is CellId:
        return lambda record: _cell_to_str(get(record))
    return get


def _assemble(record: type, layout: tuple, columns: Mapping[str, list]):
    return map(record, *(
        columns[part] if isinstance(part, str) else _assemble(*part, columns)
        for part in layout
    ))


@dataclass(frozen=True)
class TableSchema:
    """Columnar schema of one record family, derived from its dataclass."""

    name: str
    columns: tuple[ColumnSpec, ...]
    #: Per-column raw-value getters, keyed by column name; enum fields
    #: return members, cell ids their stored ``OP:TECH:seq`` strings.
    getters: dict[str, Callable[[Any], Any]] = field(repr=False)
    record: type = field(repr=False)
    #: Per constructor argument of ``record``: a column name, or a
    #: ``(class, layout)`` pair for a nested dataclass field.
    layout: tuple = field(repr=False)

    @classmethod
    def derive(
        cls, name: str, record: type, derived: Sequence[str] = ()
    ) -> "TableSchema":
        """The schema of ``record``: one column per field, in field order.

        Field types map to column kinds (``int`` → i8, ``float`` → f8,
        ``bool`` → bool, ``str``/enum/:class:`CellId` → dict); a nested
        dataclass field (a handover's ``event``) flattens into its own
        fields.  ``derived`` names properties stored as extra columns for
        queries but never fed back to the constructor.  Any other
        annotation raises :class:`TypeError`, so no field is dropped.
        """
        columns: list[ColumnSpec] = []
        getters: dict[str, Callable[[Any], Any]] = {}

        def walk(owner: type, prefix: str) -> tuple:
            hints = typing.get_type_hints(owner)
            layout = []
            for f in dataclasses.fields(owner):
                tp = hints[f.name]
                if dataclasses.is_dataclass(tp) and tp is not CellId:
                    layout.append((tp, walk(tp, f"{prefix}{f.name}.")))
                    continue
                columns.append(_column(f.name, tp, owner))
                getters[f.name] = _getter(prefix + f.name, tp)
                layout.append(f.name)
            return tuple(layout)

        layout = walk(record, "")
        for prop in derived:
            tp = typing.get_type_hints(getattr(record, prop).fget)["return"]
            columns.append(
                dataclasses.replace(_column(prop, tp, record), derived=True)
            )
            getters[prop] = attrgetter(prop)
        if len(getters) != len(columns):
            raise TypeError(f"{record.__name__}: duplicate column names")
        return cls(name, tuple(columns), getters, record, layout)

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
        return [
            encode_column(spec, list(map(self.getters[spec.name], records)))
            for spec in self.columns
        ]

    def build(self, columns: Mapping[str, list[Any]]) -> list[Any]:
        """The table's records from whole decoded columns, keyed by name
        (every non-derived column, all of the table's length)."""
        return list(_assemble(self.record, self.layout, columns))


#: Columnar schema of every record family, keyed by table name.
TABLE_SCHEMAS: dict[str, TableSchema] = {
    f.table: TableSchema.derive(f.table, f.record, _DERIVED.get(f.table, ()))
    for f in RECORD_FAMILIES
}

#: Dataset attribute holding each table's records, in serialisation order.
TABLE_ATTRS: dict[str, str] = {f.table: f.attr for f in RECORD_FAMILIES}
