"""Per-column encodings for the campaign dataset store.

Each record family of a :class:`~repro.campaign.dataset.DriveDataset`
(throughput samples, RTT samples, tests, handovers, passive coverage,
app runs) is shredded into typed columns.  The record dataclasses are the
schema: :meth:`TableSchema.derive` makes one column per field from its
type annotation (``int``, ``float``, ``bool``, ``str``, an enum, or a
:class:`~repro.radio.cells.CellId` stored as ``OP:TECH:seq``; a nested
dataclass flattens), so a new field needs only a dataclass edit (plus its
short key in the JSON-lines codec).  The column kinds are:

* **f8** — little-endian IEEE-754 doubles; exact round-trip of every
  Python float, including NaN and infinities;
* **i8** — little-endian signed 64-bit integers;
* **bool** — one byte per value;
* **dict** — dictionary encoding for low-cardinality strings (operator,
  technology, region, timezone, server kind, direction, cell ids): the
  distinct values, in first-appearance order, live in the file's string
  section and the column body holds fixed-width codes (1/2/4 bytes as
  cardinality needs).

Integer, boolean, and dictionary-code streams are additionally run-length
encoded when that shrinks them — slowly-changing columns (technology,
region, timezone, test id) compress to a handful of runs.  The choice is
per column, data-driven, and recorded in the file's column directory, so
readers never guess.

Every encoded column carries **stats** — min/max over finite values and a
null (NaN) count, plus the distinct-value list for dict columns — which is
what the query engine's predicate pushdown prunes on without touching the
column bytes.  :meth:`EncodedColumn.footer_entry` describes a column as
the dict a reader's ``column_entry`` returns.

Encoding is fully deterministic (no timestamps, no hashing order), which
keeps store files byte-stable: equal datasets serialise to equal bytes.

A :class:`ColumnTable` is one table held in memory as column arrays (dict
columns as codes plus their string values).  It is the one route between
records and bytes: :meth:`ColumnTable.from_rows` is the only place record
getters run, :meth:`ColumnTable.encode` (through :func:`encode_array`) the
only encoder, and :meth:`ColumnTable.rows` the only place records are
rebuilt from columns.  :meth:`ColumnTable.concat` merges shard tables by
joining their dictionaries in first-appearance order, so a merged table
encodes to exactly the bytes its concatenated records would.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import threading
import typing
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
    "CODECS",
    "KINDS",
    "KIND_WIDTHS",
    "RUN_PREFIX_BYTES",
    "ColumnSpec",
    "ColumnTable",
    "ColumnStats",
    "EncodedColumn",
    "TableSchema",
    "TABLE_SCHEMAS",
    "TABLE_ATTRS",
    "cell_to_str",
    "encode_array",
    "encode_column",
    "decode_column",
    "decode_payload",
    "decode_dict_codes",
    "value_dtype",
    "decode_dict_column",
]

#: Width of one run-length prefix (little-endian u4).
RUN_PREFIX_BYTES = 4

_CODE_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4"}

#: Column kinds and codecs, in the order of their codes in a store file's
#: column directory.
KINDS = ("f8", "i8", "bool", "dict")
CODECS = ("plain", "rle")
#: The value widths each kind is stored at.
KIND_WIDTHS = {"f8": (8,), "i8": (8,), "bool": (1,), "dict": tuple(_CODE_DTYPES)}


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
        distinct value, not once per row, and checked once per distinct
        dictionary: the check is a pure function of the strings, so a
        dictionary met before (every shard of a sweep has the same operator
        and technology dictionaries) is answered from a bounded cache.
        Raises :class:`StoreError` on a non-string value, an unknown enum
        member or an unparsable value; failures are never cached.
        """
        if not isinstance(values, (list, tuple)):
            raise StoreError(
                f"column {self.name!r}: dictionary values must be strings"
            )
        key = (self, tuple(values))
        try:
            cached = _MEMBERS.get(key)
        except TypeError:  # an unhashable value: not a string either
            cached = None
        if cached is None:
            cached = self._check_members(key[1])
            _MEMBERS.put(key, cached)
        return list(cached)

    def _check_members(self, values: tuple[Any, ...]) -> tuple[Any, ...]:
        if not all(isinstance(v, str) for v in values):
            raise StoreError(
                f"column {self.name!r}: dictionary values must be strings"
            )
        if self.enum is not None:
            lookup = _enum_lookup(self.enum)
            try:
                return tuple([lookup[v] for v in values])
            except KeyError as exc:
                raise StoreError(
                    f"unknown {self.enum.__name__} member {exc.args[0]!r} in "
                    f"column {self.name!r}"
                ) from None
        if self.parse is not None:
            return tuple(map(self.parse, values))
        return values


@functools.cache
def _enum_lookup(cls: type[enum.Enum]) -> dict[str, enum.Enum]:
    """An enum's members by name (aliases left out, as iteration does)."""
    return {member.name: member for member in cls}


class _MembersCache:
    """Checked dictionaries and their members, first in first out, bounded
    by the number of values held rather than of entries (a cell-id
    dictionary of a whole-route campaign holds thousands)."""

    def __init__(self, max_values: int) -> None:
        self.max_values = max_values
        self._held = 0
        self._entries: dict[tuple, tuple] = {}
        self._lock = threading.Lock()

    def get(self, key: tuple) -> tuple | None:
        return self._entries.get(key)

    def put(self, key: tuple, members: tuple) -> None:
        with self._lock:
            if len(members) > self.max_values or key in self._entries:
                return
            self._entries[key] = members
            self._held += len(members)
            while self._held > self.max_values:
                self._held -= len(self._entries.pop(next(iter(self._entries))))


_MEMBERS = _MembersCache(max_values=1 << 16)


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
    if n_runs * (RUN_PREFIX_BYTES + width) >= n * width:
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


def _dictionary_codes(raw_values: list[Any]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes and distinct string values (first-appearance order) of raw
    dict-column values: enum members by name, anything else by ``str``."""
    # Key on the value objects themselves, so an enum's ``.name`` is
    # computed once per distinct member rather than once per row.
    index: dict[Any, int] = {}
    codes = np.fromiter(
        (index.setdefault(v, len(index)) for v in raw_values),
        dtype=np.uint32, count=len(raw_values),
    )
    names = [v.name if isinstance(v, enum.Enum) else str(v) for v in index]
    table = dict.fromkeys(names)
    if len(table) != len(names):
        # Distinct objects sharing one string form (say a member and its
        # name) must share one code, exactly as if keyed on the string.
        first = {name: code for code, name in enumerate(table)}
        codes = np.asarray([first[name] for name in names], np.uint32)[codes]
    return codes, tuple(table)


def _column_array(
    spec: ColumnSpec, raw_values: list[Any]
) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """One column of raw per-record values as an array.

    Returns float64 (f8), int64 (i8), ``bool`` (bool) or dictionary codes
    (dict), plus the dict column's distinct string values (``None`` for the
    other kinds).  This is the only conversion from Python values to
    column arrays; everything after it is array code.
    """
    n = len(raw_values)
    if spec.kind == "f8":
        return np.fromiter(map(float, raw_values), np.float64, count=n), None
    if spec.kind == "i8":
        return np.fromiter(map(int, raw_values), np.int64, count=n), None
    if spec.kind == "bool":
        return np.fromiter(map(bool, raw_values), np.bool_, count=n), None
    if spec.kind == "dict":
        return _dictionary_codes(raw_values)
    raise StoreError(f"unknown column kind {spec.kind!r} for {spec.name!r}")


def _first_appearance(
    codes: np.ndarray, values: tuple[str, ...]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """The dictionary of ``codes`` in first-appearance order, every value
    used and distinct — the dictionary encoding the rows would build."""
    k = len(values)
    if codes.size == 0:
        return codes, ()
    run_max = np.maximum.accumulate(codes)
    if (
        int(codes[0]) == 0
        and int(run_max[-1]) == k - 1
        and bool((np.diff(run_max) <= 1).all())
        and len(set(values)) == k
    ):
        return codes, values  # already canonical: the common case
    return _renumbered(codes, values)


def _renumbered(
    codes: np.ndarray, values: tuple[str, ...]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes into ``values`` renumbered to :func:`_first_appearance`'s
    dictionary, as ``uint32``.  The order is found from the codes' run
    heads (a slowly changing column has few), so the rows are read twice
    and never sorted."""
    codes = np.asarray(codes)
    if len(set(values)) != len(values):
        # Values sharing one string share one code, exactly as if the
        # dictionary were built from the strings.
        index: dict[str, int] = {}
        merge = np.asarray([index.setdefault(v, len(index)) for v in values])
        codes, values = merge[codes], tuple(index)
    if codes.size == 0:
        return codes.astype(np.uint32), ()
    starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    used, first = np.unique(codes[np.concatenate(([0], starts))], return_index=True)
    order = used[np.argsort(first, kind="stable")]
    if order.size == len(values) and bool((order == np.arange(order.size)).all()):
        return codes.astype(np.uint32), values
    renumber = np.zeros(len(values), dtype=np.uint32)
    renumber[order] = np.arange(order.size, dtype=np.uint32)
    return renumber[codes], tuple(values[c] for c in order.tolist())


def encode_array(
    spec: ColumnSpec,
    arr: np.ndarray,
    values: tuple[str, ...] | None = None,
    canonical: bool = False,
) -> EncodedColumn:
    """Encode one column array (see :func:`_column_array` for the forms);
    a dict column's ``values`` are the strings its codes index, brought
    into first-appearance order here unless ``canonical`` says they are."""
    if spec.kind == "f8":
        arr = np.ascontiguousarray(arr, dtype="<f8")
        return EncodedColumn(
            name=spec.name, kind="f8", codec="plain", width=8,
            count=int(arr.size), payload=arr.tobytes(),
            stats=_numeric_stats(arr),
        )
    if spec.kind == "i8":
        arr = np.asarray(arr, dtype="<i8")
        return _encode_int_like(
            spec.name, "i8", arr, 8, "<i8", _numeric_stats(arr)
        )
    if spec.kind == "bool":
        arr = np.asarray(arr != 0, dtype="<u1")
        return _encode_int_like(
            spec.name, "bool", arr, 1, "<u1", _numeric_stats(arr)
        )
    if spec.kind == "dict":
        codes, values = np.asarray(arr), tuple(values or ())
        if not canonical:
            codes, values = _first_appearance(codes, values)
        cardinality = max(len(values), 1)
        width = 1 if cardinality <= 0xFF else 2 if cardinality <= 0xFFFF else 4
        codes = codes.astype(_CODE_DTYPES[width])
        return _encode_int_like(
            spec.name, "dict", codes, width, _CODE_DTYPES[width],
            ColumnStats(nulls=0, min=None, max=None), values=values,
        )
    raise StoreError(f"unknown column kind {spec.kind!r} for {spec.name!r}")


def encode_column(spec: ColumnSpec, raw_values: list[Any]) -> EncodedColumn:
    """Encode one column of raw per-record values."""
    return encode_array(spec, *_column_array(spec, raw_values))


# -- decoding -----------------------------------------------------------------


def _decode_rle(
    name: str, count: int, payload: bytes | memoryview, width: int
) -> np.ndarray:
    pair_bytes = RUN_PREFIX_BYTES + width
    nbytes = len(payload)
    if nbytes % pair_bytes != 0:
        raise StoreError(
            f"column {name!r}: RLE payload of {nbytes} bytes is "
            f"not a whole number of {pair_bytes}-byte runs (truncated file?)"
        )
    dtype = _RUN_DTYPES.get(width)
    if dtype is None:
        raise StoreError(f"column {name!r}: no RLE stream of width {width}")
    pairs = np.frombuffer(payload, dtype=dtype)
    decoded = pairs["v"].repeat(pairs["n"])
    if decoded.size != count:
        raise StoreError(
            f"column {name!r}: RLE expands to {decoded.size} "
            f"values, not its {count} (corrupt file)"
        )
    return decoded


#: One ``(u4 run length, value)`` pair of an RLE stream, by value width.
_RUN_DTYPES = {
    width: np.dtype([("n", "<u4"), ("v", _CODE_DTYPES.get(width, "<i8"))])
    for width in (*_CODE_DTYPES, 8)
}

def value_dtype(kind: str, width: int) -> str:
    """The little-endian dtype a plain column of ``kind`` is stored in."""
    return {"f8": "<f8", "i8": "<i8"}.get(kind) or _CODE_DTYPES[width]


def decode_payload(
    name: str, kind: str, codec: str, width: int, count: int,
    payload: bytes | memoryview,
) -> np.ndarray:
    """Decode one column payload, described by plain values, into a numpy
    array (see :func:`decode_column`)."""
    if kind not in KIND_WIDTHS:
        raise StoreError(f"unknown column kind {kind!r} in footer")
    if codec == "rle" and kind != "f8":
        decoded = _decode_rle(name, count, payload, width)
        return decoded.astype(np.int64, copy=False) if kind == "i8" else decoded
    expected = count * width
    if len(payload) != expected:
        raise StoreError(
            f"column {name!r}: expected {expected} bytes, "
            f"found {len(payload)} (truncated file?)"
        )
    return np.frombuffer(payload, dtype=value_dtype(kind, width))


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
    return decode_payload(
        entry.get("name"), kind, entry.get("codec", "plain"),
        8 if kind in ("f8", "i8") else int(entry["width"]),
        int(entry["count"]), payload,
    )


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

#: Properties materialised as derived columns, by table: each computes its
#: column from the table's stored column arrays, as the property does from
#: one record's fields.
_DERIVED: dict[str, dict[str, Callable[[Mapping[str, np.ndarray]], np.ndarray]]] = {
    "passive": {"length_m": lambda cols: cols["end_m"] - cols["start_m"]},
}


def cell_to_str(cid: CellId) -> str:
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
        return lambda record: cell_to_str(get(record))
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
    #: Array form of each derived column, from the stored column arrays.
    derivations: dict[str, Callable[[Mapping[str, np.ndarray]], np.ndarray]] = (
        field(repr=False, default_factory=dict)
    )

    @classmethod
    def derive(
        cls,
        name: str,
        record: type,
        derived: Mapping[str, Callable[[Mapping[str, np.ndarray]], np.ndarray]]
        | None = None,
    ) -> "TableSchema":
        """The schema of ``record``: one column per field, in field order.

        Field types map to column kinds (``int`` → i8, ``float`` → f8,
        ``bool`` → bool, ``str``/enum/:class:`CellId` → dict); a nested
        dataclass field (a handover's ``event``) flattens into its own
        fields.  ``derived`` maps properties stored as extra columns for
        queries (but never fed back to the constructor) to their array
        form.  Any other annotation raises :class:`TypeError`, so no field
        is dropped.
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
        derived = dict(derived or {})
        for prop in derived:
            tp = typing.get_type_hints(getattr(record, prop).fget)["return"]
            columns.append(
                dataclasses.replace(_column(prop, tp, record), derived=True)
            )
            getters[prop] = attrgetter(prop)
        if len(getters) != len(columns):
            raise TypeError(f"{record.__name__}: duplicate column names")
        return cls(name, tuple(columns), getters, record, layout, derived)

    def column(self, name: str) -> ColumnSpec:
        for spec in self.columns:
            if spec.name == name:
                return spec
        raise StoreError(
            f"table {self.name!r} has no column {name!r}; "
            f"known: {[c.name for c in self.columns]}"
        )

    @functools.cached_property
    def stored(self) -> tuple[ColumnSpec, ...]:
        """The non-derived columns: what a :class:`ColumnTable` holds."""
        return tuple(spec for spec in self.columns if not spec.derived)

    def shred(self, records: list[Any]) -> list[EncodedColumn]:
        """Encode the records column by column."""
        return ColumnTable.from_rows(self, records).encode()

    def build(self, columns: Mapping[str, list[Any]]) -> list[Any]:
        """The table's records from whole decoded columns, keyed by name
        (every non-derived column, all of the table's length)."""
        return list(_assemble(self.record, self.layout, columns))


#: numpy dtype kinds a :class:`ColumnTable` holds each column kind as.
_ARRAY_KINDS = {"f8": "f", "i8": "i", "bool": "b", "dict": "ui"}


@dataclass(frozen=True, slots=True, eq=False)
class ColumnTable:
    """One table held as column arrays instead of record objects.

    ``arrays`` holds one array per stored (non-derived) column of the
    table's schema: float64 for f8, int64 for i8, ``bool`` for bool, and
    integer codes for dict columns, whose string values (in code order)
    are in ``values``.  Arrays are read-only, so a table can be shared
    (between datasets, or between a dataset and its shallow copy) safely.

    :meth:`from_rows` is the only place records become columns, and
    :meth:`rows` the only place columns become records again.

    ``canonical`` marks a table whose dictionaries are already in
    first-appearance order, every value used once (what :meth:`from_rows`
    and :meth:`from_codes` build, and :meth:`concat` keeps), so
    :meth:`encode` does not check them again.  A table read from a file is
    not marked: its dictionaries are checked when it is encoded.
    """

    name: str
    count: int
    arrays: Mapping[str, np.ndarray]
    values: Mapping[str, tuple[str, ...]]
    canonical: bool = False

    def __post_init__(self) -> None:
        shape = (self.count,)
        for spec in TABLE_SCHEMAS[self.name].stored:
            arr = self.arrays[spec.name]
            if arr.shape != shape:
                raise StoreError(
                    f"column {spec.name!r} holds {arr.size} values, table "
                    f"{self.name!r} has {self.count} rows"
                )
            if arr.dtype.kind not in _ARRAY_KINDS[spec.kind]:
                raise StoreError(
                    f"column {spec.name!r} ({spec.kind}) cannot be held as "
                    f"a {arr.dtype} array"
                )
            arr.setflags(write=False)

    @property
    def schema(self) -> TableSchema:
        return TABLE_SCHEMAS[self.name]

    @classmethod
    def from_rows(cls, schema: TableSchema, records: list[Any]) -> "ColumnTable":
        """Shred records into columns (the schema's getters, one pass each)."""
        arrays: dict[str, np.ndarray] = {}
        values: dict[str, tuple[str, ...]] = {}
        for spec in schema.stored:
            raw = list(map(schema.getters[spec.name], records))
            arrays[spec.name], dictionary = _column_array(spec, raw)
            if dictionary is not None:
                values[spec.name] = dictionary
        return cls(schema.name, len(records), arrays, values, canonical=True)

    @classmethod
    def from_codes(
        cls,
        name: str,
        arrays: Mapping[str, np.ndarray],
        values: Mapping[str, tuple[str, ...]],
    ) -> "ColumnTable":
        """A table straight from column arrays: each dict column's codes
        index its ``values``, renumbered here, once, to the used values in
        first-appearance order, the dictionary :meth:`from_rows` builds."""
        arrays = dict(arrays)
        values = dict(values)
        for spec in TABLE_SCHEMAS[name].stored:
            if spec.kind == "dict":
                arrays[spec.name], values[spec.name] = _renumbered(
                    arrays[spec.name], tuple(values[spec.name])
                )
        count = len(next(iter(arrays.values())))
        return cls(name, count, arrays, values, canonical=True)

    @classmethod
    def concat(cls, tables: Sequence["ColumnTable"]) -> "ColumnTable":
        """The tables' rows one after another, as one table.

        Dictionaries join in first-appearance order and codes are remapped
        into the joined dictionary, so encoding the result gives exactly
        the bytes encoding the concatenated records would.
        """
        first = tables[0]
        if any(t.name != first.name for t in tables):
            raise StoreError(
                f"cannot concatenate tables {sorted({t.name for t in tables})}"
            )
        if first.count == 0 and all(t is first for t in tables):
            return first  # one shared empty table (a replayed shard's)
        arrays: dict[str, np.ndarray] = {}
        values: dict[str, tuple[str, ...]] = {}
        for spec in first.schema.stored:
            parts = [t.arrays[spec.name] for t in tables]
            if spec.kind != "dict":
                arrays[spec.name] = np.concatenate(parts)
                continue
            joined: dict[str, int] = {}
            for k, t in enumerate(tables):
                remap = [
                    joined.setdefault(v, len(joined)) for v in t.values[spec.name]
                ]
                # A dictionary that is a prefix of the joined one (the same
                # operators in the same order, say) keeps its codes.
                if parts[k].dtype.kind != "u" or remap != list(range(len(remap))):
                    parts[k] = np.array(remap, dtype=np.uint32)[parts[k]]
            values[spec.name] = tuple(joined)
            arrays[spec.name] = np.concatenate(parts, dtype=np.uint32)
        return cls(
            first.name, sum(t.count for t in tables), arrays, values,
            canonical=all(t.canonical for t in tables),
        )

    def members(self, column: str) -> list[Any]:
        """A dict column's Python values (enum members, cell ids, strings)
        in code order."""
        return self.schema.column(column).members(self.values[column])

    def column_entry(self, name: str) -> dict:
        """The column described as a store footer entry (a dict column's
        values included) but without min/max/null stats, so the query
        engine judges a numeric predicate on it by reading the column."""
        spec = self.schema.column(name)
        entry = {"name": name, "kind": spec.kind, "count": self.count}
        if spec.kind == "dict":
            entry["values"] = list(self.values[name])
        return entry

    def array(self, name: str) -> np.ndarray:
        """A column as :meth:`~repro.store.format.TableReader.array` decodes
        it: f8/i8 values, bool bytes, dict codes, derived columns computed."""
        spec = self.schema.column(name)
        if spec.derived:
            return self.schema.derivations[name](self.arrays)
        arr = self.arrays[name]
        return arr.view(np.uint8) if spec.kind == "bool" else arr

    def rows(self) -> list[Any]:
        """The table's records, built a whole column at a time: dictionary
        codes map through a member table built once per column."""
        columns: dict[str, list[Any]] = {}
        for spec in self.schema.stored:
            arr = self.arrays[spec.name]
            if spec.kind == "dict":
                members = self.members(spec.name)
                table = np.empty(len(members), dtype=object)
                for code, member in enumerate(members):
                    table[code] = member
                columns[spec.name] = table[arr].tolist()
            else:
                columns[spec.name] = arr.tolist()
        return self.schema.build(columns)

    def encode(self) -> list[EncodedColumn]:
        """Every column of the table encoded, derived columns included."""
        schema = self.schema
        return [
            encode_array(
                spec,
                schema.derivations[spec.name](self.arrays)
                if spec.derived
                else self.arrays[spec.name],
                self.values.get(spec.name),
                self.canonical,
            )
            for spec in schema.columns
        ]


#: Columnar schema of every record family, keyed by table name.
TABLE_SCHEMAS: dict[str, TableSchema] = {
    f.table: TableSchema.derive(f.table, f.record, _DERIVED.get(f.table, {}))
    for f in RECORD_FAMILIES
}

#: Dataset attribute holding each table's records, in serialisation order.
TABLE_ATTRS: dict[str, str] = {f.table: f.attr for f in RECORD_FAMILIES}
