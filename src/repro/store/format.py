"""The store file format: atomic byte-stable writer, checked reader.

One ``.rcol`` file holds one campaign dataset, columnar (format 3)::

    [8-byte magic "RPRCOL01"]
    [column chunks, back to back, in directory order]
    [column directory: one packed 65-byte little-endian row per column]
    [string section: <u4 n>, n <u4> byte lengths, then the n UTF-8 strings]
    [meta: UTF-8 JSON]
    [24-byte tail: <u8 directory offset> <u4 directory bytes>
                   <u4 string bytes> <u4 meta bytes> "RCL3"]

A directory row describes one column, grouped by table::

    count u8  offset u8  nbytes u8  nulls u8
    min 8 bytes  max 8 bytes   int64 for i8/bool columns, float64 for f8
    name u4                    string index of the column name
    values_at u4  n_values u4  a dict column's dictionary: that many
                               strings from ``values_at`` on
    table u1                   index into the meta's table list
    kind u1  codec u1  width u1  flags u1

``kind`` and ``codec`` are indexes into
:data:`~repro.store.columnar.KINDS` and
:data:`~repro.store.columnar.CODECS`.  ``flags`` bit 1 says the column has
stats and bit 0 that it has a finite min/max; a column without one
(empty, all-NaN, dict) has the bit clear, never a NaN.  Integer stats are
exact int64.  The meta is the compact sorted-key JSON of the dataset's
seed, scale, route length, per-operator ``[name, count]`` pairs and the
tables as ``[name, row count]`` pairs, in directory order.  The tail's
last four bytes carry the format version.

A reader takes the directory with one :func:`numpy.frombuffer` and checks
its structure as arrays on every open — spans inside the data section,
legal kind, codec and width codes, every column's count equal to its
table's row count, plain payload sizes, string indexes inside the string
section, names unique per table — so a column then decodes from plain
integers.  Column entries (the dicts the query engine and ``inspect``
read) are built from the directory only when asked for.

Versions 1 and 2 ended in a JSON footer and a 16-byte tail (``<u8 footer
offset> <u4 footer length> "RCOL"``); their footer parses into the same
directory form, so every version loads through one path.  Version 1
stored the meta counts as objects, whose key order the sorted footer
lost.

Like :mod:`repro.campaign.persistence`, writes are **atomic** (unique temp
sibling + ``os.replace``) and **byte-stable** (no timestamps, sorted JSON
keys, deterministic encodings), so equal datasets produce equal files and
shard checkpointing can rely on byte comparison.

:func:`read_dataset` builds no records: it reads the file into one buffer
and returns a dataset whose tables are held as
:class:`~repro.store.columnar.ColumnTable` objects over read-only views of
it (run-length encoded and bool columns are decoded into arrays of their
own).  Every check still runs at read time — the directory's structure,
column kinds against the schema, RLE expansion, dictionary code ranges,
and each distinct dictionary value as an enum member or cell id — so a
corrupt file fails here, never later when rows are built.  Records appear
only when a caller reads a record attribute.  That makes it the fast way
to replay a dataset, which is why the engine's shard cache stores
``.rcol`` entries.  A process that reads a file again keeps what it
decoded (:func:`held_result`): a later read whose bytes equal the ones
decoded for that path shares the decoded tables, and any other bytes are
decoded and checked in full.
:func:`write_dataset` encodes each table from ``dataset.table(name)``,
the columns the dataset holds.

Every structural change bumps :data:`STORE_FORMAT_VERSION`; the version is
checked on open, the same contract as ``EngineReport``/``SweepReport``.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
import pathlib
import struct
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.campaign.dataset import DriveDataset, empty_table
from repro.errors import StoreError
from repro.radio.operators import Operator
from repro.store.columnar import (
    CODECS,
    KIND_WIDTHS,
    KINDS,
    RUN_PREFIX_BYTES,
    TABLE_SCHEMAS,
    ColumnStats,
    ColumnTable,
    EncodedColumn,
    TableSchema,
    decode_payload,
    value_dtype,
)

__all__ = [
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC",
    "STORE_SUFFIX",
    "HELD_MAX_BYTES",
    "DatasetReader",
    "TableReader",
    "held_result",
    "is_size",
    "is_store_file",
    "read_dataset",
    "write_dataset",
]

#: Bump on any structural change to the file layout, directory or meta.
#: 2: meta counts are ``[name, count]`` pair lists (order-preserving).
#: 3: a binary column directory and string section replace the JSON footer.
STORE_FORMAT_VERSION = 3

#: Older versions this build still reads (JSON footer, ``"RCOL"`` tail).
_LEGACY_FORMATS = (1, 2)

STORE_MAGIC = b"RPRCOL01"
_TAIL = struct.Struct("<QIII4s")
_LEGACY_TAIL = struct.Struct("<QI4s")
_LEGACY_TAIL_MAGIC = b"RCOL"
#: A format-3-or-later tail ends in ``"RCL"`` and the version digit.
_TAIL_PREFIX = b"RCL"

#: Conventional file suffix for columnar dataset files.
STORE_SUFFIX = ".rcol"

#: One column of the directory, packed (see the module docstring).
_DIRECTORY = np.dtype([
    ("count", "<u8"), ("offset", "<u8"), ("nbytes", "<u8"), ("nulls", "<u8"),
    ("min", "<i8"), ("max", "<i8"),
    ("name", "<u4"), ("values_at", "<u4"), ("n_values", "<u4"),
    ("table", "u1"), ("kind", "u1"), ("codec", "u1"), ("width", "u1"),
    ("flags", "u1"),
])
#: Positions of the fields in a directory row's ``tolist()`` tuple.
(_COUNT, _OFFSET, _NBYTES, _NULLS, _MIN, _MAX, _NAME, _VALUES_AT, _N_VALUES,
 _TABLE, _KIND, _CODEC, _WIDTH, _FLAGS) = range(len(_DIRECTORY.names))
#: ``flags`` bits.
_HAS_RANGE = 1
_HAS_STATS = 2

_DICT = KINDS.index("dict")
_BOOL = KINDS.index("bool")
_PLAIN = CODECS.index("plain")
#: ``_LEGAL[kind, codec, width]``: a layout a writer writes.
_LEGAL = np.zeros((len(KINDS), len(CODECS), 256), dtype=bool)
for _kind, _widths in KIND_WIDTHS.items():
    for _codec in ("plain",) if _kind == "f8" else CODECS:
        _LEGAL[KINDS.index(_kind), CODECS.index(_codec), list(_widths)] = True
#: Value dtype of a plain column, by kind code and width.
_PLAIN_DTYPES = {
    (KINDS.index(kind), width): np.dtype(value_dtype(kind, width))
    for kind, widths in KIND_WIDTHS.items()
    for width in widths
}
_INT64 = struct.Struct("<q")
_FLOAT64 = struct.Struct("<d")


def _range_bits(kind: str, value: Any) -> int:
    """A min/max stat as the int64 the directory stores: the value itself
    for integer kinds, the float64's bit pattern for f8."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StoreError(f"bad min/max stat {value!r}")
    if kind == "f8":
        return _INT64.unpack(_FLOAT64.pack(value))[0]
    if not isinstance(value, int) or not -(1 << 63) <= value < 1 << 63:
        raise StoreError(f"bad min/max stat {value!r} for a {kind} column")
    return value


def _range_value(kind: str, bits: int) -> int | float:
    return _FLOAT64.unpack(_INT64.pack(bits))[0] if kind == "f8" else bits


def _directory_row(
    col: EncodedColumn, table: int, offset: int, strings: list[str]
) -> tuple:
    """One column's directory row; its name and dictionary join ``strings``."""
    stats = col.stats
    flags, lo, hi = _HAS_STATS, 0, 0
    if stats.min is not None and stats.max is not None:
        flags |= _HAS_RANGE
        lo, hi = _range_bits(col.kind, stats.min), _range_bits(col.kind, stats.max)
    strings.append(col.name)
    values = col.values or ()
    values_at = len(strings)
    strings.extend(values)
    return (
        col.count, offset, len(col.payload), stats.nulls, lo, hi,
        values_at - 1, values_at, len(values),
        table, KINDS.index(col.kind), CODECS.index(col.codec), col.width, flags,
    )


def _pack_strings(strings: list[str]) -> bytes:
    encoded = [s.encode("utf-8") for s in strings]
    lengths = np.array([len(b) for b in encoded], dtype="<u4")
    return struct.pack("<I", len(encoded)) + lengths.tobytes() + b"".join(encoded)


def write_dataset(
    dataset: DriveDataset, path: str | pathlib.Path, *, hasher=None
) -> dict:
    """Write a dataset as one columnar store file, atomically.

    Returns what the file holds as a footer object — ``format``, the
    dataset ``meta`` and, per table, its row count and column entries (see
    :meth:`TableReader.column_entry`) — so a caller that needs the column
    stats, such as the catalog's ingest, does not have to reopen the file.
    A ``hasher`` (a :mod:`hashlib` object) is fed every byte written, in
    file order, so a caller that needs the file's digest does not have to
    read it back.
    """
    path = pathlib.Path(path)
    tables: dict[str, Any] = {}
    chunks: list[bytes] = []
    rows: list[tuple] = []
    strings: list[str] = []
    offset = len(STORE_MAGIC)
    for index, table_name in enumerate(TABLE_SCHEMAS):
        table = dataset.table(table_name)
        columns = []
        for col in table.encode():
            columns.append(col.footer_entry(offset))
            rows.append(_directory_row(col, index, offset, strings))
            chunks.append(col.payload)
            offset += len(col.payload)
        tables[table_name] = {"count": table.count, "columns": columns}
    meta = {
        "seed": dataset.seed,
        "scale": dataset.scale,
        "route_length_km": dataset.route_length_km,
        "passive_handover_counts": [
            [op.name, n] for op, n in dataset.passive_handover_counts.items()
        ],
        "connected_cells": [
            [op.name, n] for op, n in dataset.connected_cells.items()
        ],
    }
    directory = np.array(rows, dtype=_DIRECTORY).tobytes()
    string_bytes = _pack_strings(strings)
    meta_bytes = json.dumps(
        dict(meta, tables=[[name, t["count"]] for name, t in tables.items()]),
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    tail = _TAIL.pack(
        offset, len(directory), len(string_bytes), len(meta_bytes),
        _TAIL_PREFIX + str(STORE_FORMAT_VERSION).encode(),
    )

    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in (STORE_MAGIC, *chunks, directory, string_bytes,
                         meta_bytes, tail):
                fh.write(part)
                if hasher is not None:
                    hasher.update(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return {"format": STORE_FORMAT_VERSION, "meta": meta, "tables": tables}


def is_store_file(path: str | pathlib.Path) -> bool:
    """True when ``path`` starts with the columnar store magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(STORE_MAGIC)) == STORE_MAGIC
    except OSError:
        return False


def _operator_counts(obj: Any, path: pathlib.Path) -> dict[Operator, int]:
    """Per-operator counts from the meta, in their stored order.

    Versions 2 and 3 store ``[name, count]`` pairs; version 1 stored an
    object (read back in its sorted key order).
    """
    pairs = obj.items() if isinstance(obj, dict) else obj
    try:
        return {Operator[name]: int(n) for name, n in pairs}
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"bad operator counts in footer of {path}") from exc


def is_size(value: Any) -> bool:
    """A non-negative JSON integer (``true``/``false`` are not sizes)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


#: Footer fields of a column entry that must be sizes.
_SIZE_KEYS = ("count", "offset", "nbytes", "width")


def _where(column: str, table: str) -> str:
    return f"column {column!r} of table {table!r}"


def _footer_problem(footer: dict) -> str | None:
    """What is structurally wrong with a parsed version 1/2 footer, or
    ``None``.

    Checks the shape those writers gave every footer — a ``meta`` object
    and a ``tables`` object whose tables hold a row count and a list of
    column entries with sizes, offsets and string names — so the footer's
    conversion to a directory never trips over a wrong JSON type.
    """
    if not isinstance(footer.get("meta", {}), dict):
        return "meta is not an object"
    tables = footer.get("tables")
    if not isinstance(tables, dict):
        return "tables is not an object"
    for name, table in tables.items():
        if not isinstance(table, dict):
            return f"table {name!r} is not an object"
        if not is_size(table.get("count")):
            return f"table {name!r} has no row count"
        columns = table.get("columns")
        if not isinstance(columns, list):
            return f"table {name!r} has no column list"
        for col in columns:
            if not isinstance(col, dict) or not isinstance(col.get("name"), str):
                return f"table {name!r} has a column entry without a name"
            get = col.get
            column = col["name"]
            if get("kind") not in KINDS or get("codec", "plain") not in CODECS:
                return f"{_where(column, name)} has no known kind or codec"
            for key in _SIZE_KEYS:
                if not is_size(get(key)):
                    return f"{_where(column, name)} has a bad {key}"
            stats = get("stats", {})
            if not isinstance(stats, dict) or not is_size(stats.get("nulls", 0)):
                return f"{_where(column, name)} has bad stats"
            values = get("values", [])
            if not isinstance(values, list) or not all(
                isinstance(v, str) for v in values
            ):
                return f"{_where(column, name)} has bad dictionary values"
    return None


def _legacy_directory(
    footer: dict,
) -> tuple[list[tuple[str, Any]], np.ndarray, list[str]]:
    """A checked version 1/2 footer in directory form: the ``(table, row
    count)`` pairs, the directory rows and the strings they index."""
    counts: list[tuple[str, Any]] = []
    rows: list[tuple] = []
    strings: list[str] = []
    for index, (name, table) in enumerate(footer["tables"].items()):
        counts.append((name, table["count"]))
        for col in table["columns"]:
            kind = col["kind"]
            flags, nulls, lo, hi = 0, 0, 0, 0
            stats = col.get("stats")
            if stats is not None:
                flags, nulls = _HAS_STATS, stats.get("nulls", 0)
                if stats.get("min") is not None and stats.get("max") is not None:
                    flags |= _HAS_RANGE
                    lo = _range_bits(kind, stats["min"])
                    hi = _range_bits(kind, stats["max"])
            strings.append(col["name"])
            values = col.get("values", []) if kind == "dict" else []
            rows.append((
                col["count"], col["offset"], col["nbytes"], nulls, lo, hi,
                len(strings) - 1, len(strings), len(values), index,
                KINDS.index(kind), CODECS.index(col.get("codec", "plain")),
                col["width"], flags,
            ))
            strings.extend(values)
    try:
        return counts, np.array(rows, dtype=_DIRECTORY), strings
    except OverflowError as exc:
        raise StoreError(f"a size out of range ({exc})") from None


def _unpack_strings(section: bytes) -> list[str]:
    """The strings of a string section (``<u4 n>``, n ``<u4>`` lengths,
    then the UTF-8 bytes)."""
    if len(section) < 4:
        raise StoreError("string section shorter than its count")
    (n,) = struct.unpack_from("<I", section)
    head = 4 + 4 * n
    if head > len(section):
        raise StoreError(f"string section too short for {n} lengths")
    ends = np.cumsum(np.frombuffer(section, "<u4", n, 4), dtype=np.int64)
    blob = section[head:]
    if (int(ends[-1]) if n else 0) != len(blob):
        raise StoreError("string lengths disagree with the string section")
    bounds = [0, *ends.tolist()]
    try:
        text = blob.decode("utf-8")
        if len(text) == len(blob):  # ASCII: byte offsets are str offsets
            return [text[a:b] for a, b in zip(bounds, bounds[1:])]
        return [blob[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise StoreError(f"invalid UTF-8 in the string section ({exc})") from None


def _first_bad(mask: np.ndarray) -> int | None:
    return int(mask.argmax()) if mask.any() else None


def _directory_problem(
    rows: np.ndarray,
    n_strings: int,
    counts: np.ndarray,
    data_end: int,
) -> tuple[str, int | None] | None:
    """What is structurally wrong with a directory, checked as arrays: a
    message and the offending row, or ``None``.  The row is given once the
    string indexes are checked, so the message can name its column."""
    table = rows["table"]
    if (i := _first_bad(table >= counts.size)) is not None:
        return f"row {i} names table {table[i]} of {counts.size}", None
    if (i := _first_bad(table[1:] < table[:-1])) is not None:
        return f"row {i + 1} is not grouped with its table", None
    values_at, n_values = rows["values_at"], rows["n_values"]
    bad = (
        (rows["name"] >= n_strings) | (values_at > n_strings)
        | (n_values > n_strings - np.minimum(values_at, n_strings))
    )
    if (i := _first_bad(bad)) is not None:
        return f"row {i} has a string index past the string section", None
    kind, codec, width = rows["kind"], rows["codec"], rows["width"]
    if (i := _first_bad((kind >= len(KINDS)) | (codec >= len(CODECS)))) is not None:
        return f"has an unknown kind or codec code ({kind[i]}, {codec[i]})", i
    bad = (
        ~_LEGAL[kind, codec, width] | (rows["flags"] > _HAS_RANGE | _HAS_STATS)
        | ((kind != _DICT) & (n_values > 0))
    )
    if (i := _first_bad(bad)) is not None:
        return (
            f"has a {KINDS[kind[i]]}/{CODECS[codec[i]]} layout of width "
            f"{width[i]} (flags {rows['flags'][i]}) no writer writes", i
        )
    offset, nbytes, count = rows["offset"], rows["nbytes"], rows["count"]
    start = len(STORE_MAGIC)
    bad = (
        (offset < start) | (offset > data_end)
        | (nbytes > data_end - np.minimum(offset, data_end))
    )
    if (i := _first_bad(bad)) is not None:
        return (
            f"spans [{offset[i]}, {int(offset[i]) + int(nbytes[i])}) outside "
            f"the data section [{start}, {data_end})", i
        )
    if (i := _first_bad(count != counts[table])) is not None:
        return f"holds {count[i]} values, its table has {counts[table[i]]} rows", i
    plain = codec == _PLAIN
    if (i := _first_bad(plain & ((count > nbytes) | (count * width != nbytes)))) is not None:
        return (
            f"needs {int(count[i]) * int(width[i])} bytes, spans {nbytes[i]} "
            "(truncated file?)", i
        )
    bad = ~plain & (nbytes % (width + np.uint64(RUN_PREFIX_BYTES)) != 0)
    if (i := _first_bad(bad)) is not None:
        return f"has an RLE payload of {nbytes[i]} bytes, not whole runs", i
    return None


def _decode_row(buf: bytes | mmap.mmap, name: str, row: tuple) -> np.ndarray:
    """Decode the column a checked directory row describes."""
    if row[_CODEC] == _PLAIN:  # its size was checked on open
        return np.frombuffer(
            buf, _PLAIN_DTYPES[row[_KIND], row[_WIDTH]], row[_COUNT], row[_OFFSET]
        )
    offset = row[_OFFSET]
    return decode_payload(
        name, KINDS[row[_KIND]], CODECS[row[_CODEC]], row[_WIDTH], row[_COUNT],
        memoryview(buf)[offset:offset + row[_NBYTES]],
    )


def _check_codes(name: str, codes: np.ndarray, row: tuple) -> None:
    """Every code of a dict column indexes its dictionary."""
    if codes.size and int(codes.max()) >= row[_N_VALUES]:
        raise StoreError(
            f"column {name!r}: code {int(codes.max())} out of range "
            f"for {row[_N_VALUES]} dictionary values (corrupt file)"
        )


@functools.cache
def _written_layout(name: str) -> tuple[tuple[str, ...], bytes]:
    """Column names and kind codes the writer writes for a table."""
    columns = TABLE_SCHEMAS[name].columns
    return (
        tuple(spec.name for spec in columns),
        bytes(KINDS.index(spec.kind) for spec in columns),
    )


class TableReader:
    """Column-level access to one table of an open store file."""

    def __init__(
        self, reader: "DatasetReader", name: str, count: int, lo: int, hi: int
    ) -> None:
        self._reader = reader
        self.name = name
        self.count = count
        self._lo, self._hi = lo, hi
        self.column_names: tuple[str, ...] = tuple(reader._names[lo:hi])
        #: Each column's directory row as plain integers, by name; taken
        #: from the directory on first use.
        self._rows: dict[str, tuple] | None = None
        self._entries: dict[str, dict] = {}
        #: Dict columns whose codes were checked against their dictionary.
        #: The file's bytes cannot change while it is open: store files
        #: are replaced whole, never rewritten in place.
        self._checked_codes: set[str] = set()

    def _rows_by_name(self) -> dict[str, tuple]:
        rows = self._rows
        if rows is None:
            rows = self._rows = dict(zip(
                self.column_names,
                self._reader._rows[self._lo:self._hi].tolist(),
            ))
        return rows

    def _row(self, name: str) -> tuple:
        row = self._rows_by_name().get(name)
        if row is None:
            raise StoreError(
                f"table {self.name!r} has no column {name!r}; "
                f"known: {sorted(self._rows_by_name())}"
            )
        return row

    def _values(self, row: tuple) -> tuple[str, ...]:
        at = row[_VALUES_AT]
        return tuple(self._reader._strings[at:at + row[_N_VALUES]])

    def column_entry(self, name: str) -> dict:
        """The column as a footer entry: name, kind, codec, width, count,
        offset, nbytes, ``stats`` (nulls, min, max) and a dict column's
        ``values``; built from the directory on first use."""
        entry = self._entries.get(name)
        if entry is None:
            row = self._row(name)
            kind = KINDS[row[_KIND]]
            entry = {
                "name": name, "kind": kind, "codec": CODECS[row[_CODEC]],
                "width": row[_WIDTH], "count": row[_COUNT],
                "offset": row[_OFFSET], "nbytes": row[_NBYTES],
            }
            flags = row[_FLAGS]
            if flags & _HAS_STATS:
                lo = hi = None
                if flags & _HAS_RANGE:
                    lo = _range_value(kind, row[_MIN])
                    hi = _range_value(kind, row[_MAX])
                entry["stats"] = {"nulls": row[_NULLS], "min": lo, "max": hi}
            if kind == "dict":
                entry["values"] = list(self._values(row))
            self._entries[name] = entry
        return entry

    def stats(self, name: str) -> ColumnStats:
        return ColumnStats.from_obj(self.column_entry(name).get("stats", {}))

    def dict_values(self, name: str) -> tuple[str, ...]:
        """Distinct values of a dict column, from the directory alone."""
        row = self._row(name)
        if row[_KIND] != _DICT:
            raise StoreError(
                f"column {name!r} is {KINDS[row[_KIND]]}, not dict"
            )
        return self._values(row)

    def array(self, name: str) -> np.ndarray:
        """Decode a column to numbers: f8/i8 values, bool bytes, dict codes
        (checked, on first decode, to index the column's dictionary)."""
        return self._decode(name, self._row(name))

    def _decode(self, name: str, row: tuple) -> np.ndarray:
        arr = _decode_row(self._reader._buffer(), name, row)
        if row[_KIND] == _DICT and name not in self._checked_codes:
            _check_codes(name, arr, row)
            self._checked_codes.add(name)
        return arr

    def _is_bare(self) -> bool:
        """A zero-row table exactly as the writer writes one: its columns
        in schema order, every payload and dictionary empty."""
        names, kinds = _written_layout(self.name)
        rows = self._reader._rows[self._lo:self._hi]
        return (
            self.column_names == names
            and rows["kind"].tobytes() == kinds
            and not (rows["nbytes"].any() or rows["n_values"].any())
        )

    def load(self, schema: TableSchema) -> ColumnTable:
        """Decode every stored column of ``schema`` into memory, validated.

        Each column must have the schema's kind (its length is the table's,
        checked on open); a dict column's codes must index its dictionary,
        and every dictionary value must be a valid member (enum name, cell
        id), so a corrupt file fails here rather than when rows are built
        later.  A zero-row table as the writer writes one is checked
        against that layout, without decoding a column, and is one shared
        empty table.
        """
        if self.count == 0 and self._is_bare():
            return empty_table(self.name)
        arrays: dict[str, np.ndarray] = {}
        values: dict[str, tuple[str, ...]] = {}
        buf = self._reader._buffer()
        copy = self._reader._mapped
        rows = self._rows_by_name()
        for spec in schema.stored:
            name = spec.name
            row = rows.get(name) or self._row(name)
            kind = row[_KIND]
            if KINDS[kind] != spec.kind:
                raise StoreError(
                    f"column {name!r} of table {self.name!r} is "
                    f"{KINDS[kind]}, schema says {spec.kind}"
                )
            arr = _decode_row(buf, name, row)
            if kind == _DICT:
                _check_codes(name, arr, row)
                values[name] = self._values(row)
                spec.members(values[name])
            elif kind == _BOOL:
                arr = arr != 0
            # Copy a view out of a map: the table outlives the reader.
            arrays[name] = np.array(arr) if copy and not arr.flags.owndata else arr
        return ColumnTable(self.name, self.count, arrays, values)


class DatasetReader:
    """Reader over one columnar dataset file.

    Maps the file (or takes its bytes already read, :meth:`from_bytes`),
    validates magic, version and the column directory; column bytes are
    only touched when a query decodes them.  ``format_version`` is the
    file's store format.  Usable as a context manager; arrays returned by
    :meth:`TableReader.array` for plain columns of a mapped file are views
    into the map and become invalid after :meth:`close`.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self._start(path, None)

    @classmethod
    def from_bytes(cls, path: str | pathlib.Path, data: bytes) -> "DatasetReader":
        """A reader over ``data``, the bytes read from ``path`` (which only
        names the file in errors); the bytes are checked as a mapped file's
        are, and plain columns decode as views of them."""
        reader = cls.__new__(cls)
        reader._start(path, data)
        return reader

    def _start(self, path: str | pathlib.Path, data: bytes | None) -> None:
        self.path = pathlib.Path(path)
        self._buf: bytes | mmap.mmap | None = data
        self._mapped = data is None
        self._tables: dict[str, TableReader] = {}
        try:
            if data is None:
                with open(self.path, "rb") as fh:
                    try:
                        self._buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                    except ValueError as exc:  # a zero-length file cannot be mapped
                        raise StoreError(
                            f"not a store file (empty): {self.path}"
                        ) from exc
            self._open()
        except Exception:
            self.close()
            raise

    # -- low-level ----------------------------------------------------------

    def _fail(self, what: str) -> StoreError:
        return StoreError(f"{what}: {self.path}")

    def _open(self) -> None:
        buf = self._buf
        assert buf is not None
        size = len(buf)
        if size < len(STORE_MAGIC) + _LEGACY_TAIL.size:
            raise self._fail(
                "not a store file (empty)" if size == 0
                else f"not a store file (only {size} bytes)"
            )
        if buf[: len(STORE_MAGIC)] != STORE_MAGIC:
            raise self._fail("bad magic; not a columnar store file")
        magic = buf[size - 4:]
        if magic == _LEGACY_TAIL_MAGIC:
            meta, counts, rows, strings = self._parse_footer(buf, size)
        elif magic[:3] == _TAIL_PREFIX and magic[3:].isdigit():
            self.format_version = int(magic[3:])
            if self.format_version != STORE_FORMAT_VERSION:
                raise self._fail(
                    f"unsupported store format {self.format_version} (this "
                    f"build reads {[*_LEGACY_FORMATS, STORE_FORMAT_VERSION]})"
                )
            meta, counts, rows, strings = self._parse_directory(buf, size)
        else:
            raise self._fail("bad tail magic; truncated or corrupt store file")
        names = [name for name, _ in counts]
        try:
            sizes = np.array([n for _, n in counts], dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            raise self._fail("malformed directory (a bad table row count)") from None
        problem = _directory_problem(rows, len(strings), sizes, self._data_end)
        if problem is not None:
            message, row = problem
            if row is not None:
                column = strings[int(rows["name"][row])]
                message = f"{_where(column, names[rows['table'][row]])} {message}"
            raise self._fail(f"malformed directory ({message})")
        self._rows = rows
        self._strings = strings
        self._names = [strings[i] for i in rows["name"].tolist()]
        tables = rows["table"].tolist()
        if len(set(zip(tables, self._names))) != len(tables):
            keys = list(zip(tables, self._names))
            table, column = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise self._fail(
                f"malformed directory ({_where(column, names[table])} "
                "appears twice)"
            )
        bounds = np.searchsorted(rows["table"], np.arange(len(counts) + 1)).tolist()
        self._table_rows = {
            name: (int(n), bounds[i], bounds[i + 1])
            for i, (name, n) in enumerate(counts)
        }
        if len(self._table_rows) != len(counts):
            raise self._fail("malformed directory (a table appears twice)")
        try:
            self.seed: int = int(meta.get("seed", 0))
            self.scale: float = float(meta.get("scale", 0.0))
            self.route_length_km: float = float(meta.get("route_length_km", 0.0))
        except (TypeError, ValueError) as exc:
            raise self._fail("bad dataset metadata in footer") from exc
        self.passive_handover_counts: dict[Operator, int] = _operator_counts(
            meta.get("passive_handover_counts", []), self.path
        )
        self.connected_cells: dict[Operator, int] = _operator_counts(
            meta.get("connected_cells", []), self.path
        )

    def _parse_directory(self, buf, size: int) -> tuple:
        """Meta, table row counts, directory and strings of a format 3 file."""
        if size < len(STORE_MAGIC) + _TAIL.size:
            raise self._fail(f"not a store file (only {size} bytes)")
        data_end, dir_bytes, string_bytes, meta_bytes, _ = _TAIL.unpack_from(
            buf, size - _TAIL.size
        )
        self._data_end = data_end
        if data_end + dir_bytes + string_bytes + meta_bytes + _TAIL.size != size:
            raise self._fail(
                "directory spans disagree with the file size; truncated or "
                "corrupt store file"
            )
        if data_end < len(STORE_MAGIC) or dir_bytes % _DIRECTORY.itemsize:
            raise self._fail(
                f"malformed directory ({dir_bytes} bytes at {data_end} are "
                f"not whole {_DIRECTORY.itemsize}-byte rows)"
            )
        rows = np.frombuffer(
            buf, _DIRECTORY, dir_bytes // _DIRECTORY.itemsize, data_end
        ).copy()
        at = data_end + dir_bytes
        try:
            strings = _unpack_strings(buf[at:at + string_bytes])
        except StoreError as exc:
            raise self._fail(f"malformed directory ({exc})") from None
        at += string_bytes
        try:
            meta = json.loads(buf[at:at + meta_bytes])
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise self._fail("unreadable meta in store file") from exc
        counts = meta.get("tables") if isinstance(meta, dict) else None
        if not isinstance(counts, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and isinstance(pair[0], str) and is_size(pair[1])
            for pair in counts
        ):
            raise self._fail("malformed meta (no table list)")
        return meta, counts, rows, strings

    def _parse_footer(self, buf, size: int) -> tuple:
        """Meta, table row counts, directory and strings of a version 1/2
        file, from its JSON footer."""
        footer_offset, footer_len, _ = _LEGACY_TAIL.unpack_from(
            buf, size - _LEGACY_TAIL.size
        )
        self._data_end = footer_offset
        if footer_offset + footer_len + _LEGACY_TAIL.size != size:
            raise self._fail(
                "footer span disagrees with file size; truncated or corrupt "
                "store file"
            )
        try:
            footer = json.loads(buf[footer_offset:footer_offset + footer_len])
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise self._fail("unreadable footer in store file") from exc
        if not isinstance(footer, dict):
            raise self._fail("footer is not a JSON object")
        self.format_version = footer.get("format")
        if self.format_version not in _LEGACY_FORMATS:
            raise self._fail(
                f"unsupported store format {self.format_version!r} (this "
                f"build reads {[*_LEGACY_FORMATS, STORE_FORMAT_VERSION]})"
            )
        problem = _footer_problem(footer)
        if problem is None:
            try:
                counts, rows, strings = _legacy_directory(footer)
            except StoreError as exc:
                problem = str(exc)
        if problem is not None:
            raise self._fail(f"malformed footer ({problem})")
        return footer.get("meta", {}), counts, rows, strings

    def _buffer(self) -> bytes | mmap.mmap:
        if self._buf is None:
            raise self._fail("store file is closed")
        return self._buf

    # -- table access --------------------------------------------------------

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._table_rows)

    def table(self, name: str) -> TableReader:
        reader = self._tables.get(name)
        if reader is None:
            span = self._table_rows.get(name)
            if span is None:
                raise StoreError(
                    f"store file has no table {name!r}; "
                    f"known: {sorted(self._table_rows)}"
                )
            reader = TableReader(self, name, *span)
            self._tables[name] = reader
        return reader

    def tables(self) -> Iterator[TableReader]:
        for name in self.table_names:
            yield self.table(name)

    def nbytes(self) -> int:
        """Total file size in bytes."""
        return len(self._buf) if self._buf is not None else 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        buf, self._buf = self._buf, None
        if isinstance(buf, mmap.mmap):
            try:
                buf.close()
            except BufferError:
                # A column view is still alive (say, in the traceback of a
                # decode error raised inside ``with``): the map unmaps when
                # the last view goes, and this reader stops serving reads.
                pass

    def __enter__(self) -> "DatasetReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Bound, in bytes, of everything :func:`held_result` keeps: each held
#: file's bytes plus the arrays its result keeps that are not views of
#: them, and :data:`_MARK_NBYTES` per file read only once.
HELD_MAX_BYTES = 128 << 20

#: What a file read only once counts against :data:`HELD_MAX_BYTES`: about
#: the size of its key and its slot in the LRU.
_MARK_NBYTES = 256


def _resident_nbytes(arr: np.ndarray, data: bytes) -> int:
    """``arr``'s bytes unless it is a view of ``data``."""
    base = arr.base
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    return 0 if base is data else arr.nbytes


class _HeldFiles:
    """Least-recently-used results per ``(compute, absolute path)``.

    The first read of a key only marks it; a result is held from the
    second read on, so a process that reads each file once (a one-shot
    sweep) keeps marks and no bytes.  Each entry is ``(data, result,
    nbytes)``, ``data`` ``None`` for a mark; the total stays within
    :data:`HELD_MAX_BYTES`.  A lock guards the books; bytes are compared
    and results computed outside it.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.nbytes = 0
        self._lock = threading.Lock()

    def find(self, key: tuple) -> tuple | None:
        """The entry for ``key``, now the most recently used; ``None`` the
        first time a key is read, which marks it."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._put(key, (None, None, _MARK_NBYTES))
            else:
                self._entries.move_to_end(key)
            return entry

    def put(
        self, key: tuple, data: bytes, result: Any, arrays: Iterable[np.ndarray]
    ) -> None:
        """Hold ``result`` of ``data``, which keeps ``arrays``, for ``key``;
        what cannot fit in the bound is not held."""
        nbytes = len(data) + sum(_resident_nbytes(arr, data) for arr in arrays)
        with self._lock:
            if nbytes > HELD_MAX_BYTES:
                self._put(key, (None, None, _MARK_NBYTES))
            else:
                self._put(key, (data, result, nbytes))

    def _put(self, key: tuple, entry: tuple) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= old[2]
        self._entries[key] = entry
        self.nbytes += entry[2]
        while self.nbytes > HELD_MAX_BYTES:
            self.nbytes -= self._entries.popitem(last=False)[1][2]


_HELD = _HeldFiles()


def held_result(
    path: str | pathlib.Path,
    compute: Callable[[pathlib.Path, bytes], tuple[Any, Iterable[np.ndarray]]],
) -> Any:
    """What ``compute`` makes of the bytes now at ``path``, held across calls.

    The file is read whole on every call.  When its bytes equal (``==``)
    the bytes the held ``compute`` result for that absolute path was
    computed from, the held result is returned; otherwise
    ``compute(path, data)`` returns the result and the arrays it keeps (an
    iterable, only walked to size a result that is held).  The result is
    held only if the path was read before (see :class:`_HeldFiles`) and
    ``compute`` returned.  Correctness
    rests on the byte comparison alone: a result must be a pure function of
    the bytes and never mutated by a caller.  Process-wide, least recently
    used first out, bounded by :data:`HELD_MAX_BYTES`.
    """
    path = pathlib.Path(path)
    key = (compute, os.path.abspath(path))
    data = path.read_bytes()
    entry = _HELD.find(key)
    if entry is not None and entry[0] == data:
        return entry[1]
    result, arrays = compute(path, data)
    if entry is not None:
        _HELD.put(key, data, result, arrays)
    return result


def _decode(path: pathlib.Path, data: bytes) -> tuple[tuple, Iterator]:
    """The dataset meta and the eight checked tables of a store file's
    bytes, and the tables' arrays."""
    with DatasetReader.from_bytes(path, data) as reader:
        meta = (
            reader.seed, reader.scale, reader.route_length_km,
            reader.passive_handover_counts, reader.connected_cells,
        )
        tables = tuple(
            reader.table(name).load(schema)
            for name, schema in TABLE_SCHEMAS.items()
        )
    arrays = (arr for table in tables for arr in table.arrays.values())
    return (meta, tables), arrays


def read_dataset(path: str | pathlib.Path) -> DriveDataset:
    """Read a store file into a dataset.

    The exact inverse of :func:`write_dataset`: the file is read into one
    buffer and every table is held as a
    :class:`~repro.store.columnar.ColumnTable` (decoded and validated
    here, see :meth:`TableReader.load`, and held through
    :meth:`~repro.campaign.dataset.DriveDataset.set_table`), and its
    records — built on first read of a record attribute — compare equal to
    the ones that were written (floats round-trip bit-for-bit, fields keep
    their Python types).  The dataset saves to the same bytes in either format.

    From its second read of a path on, the process holds the decode
    (:func:`held_result`): a file whose bytes equal the ones last decoded
    for its path is not decoded again, and the new dataset holds the same
    read-only tables (a table can be shared, see
    :class:`~repro.store.columnar.ColumnTable`) and fresh copies of the
    meta.  Bytes that differ in any way are decoded and checked in full;
    a file that fails to decode fails on every read.
    """
    (seed, scale, route_length_km, handovers, cells), tables = held_result(
        path, _decode
    )
    dataset = DriveDataset(
        seed=seed,
        scale=scale,
        route_length_km=route_length_km,
        passive_handover_counts=dict(handovers),
        connected_cells=dict(cells),
    )
    for table in tables:
        dataset.set_table(table)
    return dataset
