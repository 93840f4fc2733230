"""The store file format: atomic byte-stable writer, mmap-backed reader.

One ``.rcol`` file holds one campaign dataset, columnar::

    [8-byte magic "RPRCOL01"]
    [column chunks, back to back, in footer order]
    [footer: UTF-8 JSON]
    [16-byte tail: <u8 footer offset> <u4 footer length> "RCOL"]

The footer describes everything — dataset metadata (seed, scale, route
length, passive handover counts, connected cells), every table's row count,
and per column: kind, codec, byte span, dictionary values, and min/max/null
stats.  A reader parses the footer from the tail without scanning the file,
then decodes only the columns a query touches, straight out of an ``mmap``
(plain numeric columns are zero-copy views).

Like :mod:`repro.campaign.persistence`, writes are **atomic** (unique temp
sibling + ``os.replace``) and **byte-stable** (no timestamps, sorted JSON
keys, deterministic encodings), so equal datasets produce equal files and
shard checkpointing can rely on byte comparison.  The per-operator meta
counts are stored as ``[name, count]`` pair lists, not objects, so their
order survives the sorted keys: a read-back dataset saves to the same bytes
as the one that was written.

:func:`read_dataset` builds no records: it decodes every column once into
an in-memory array and returns a dataset whose tables are held as
:class:`~repro.store.columnar.ColumnTable` objects.  Every check still runs
at read time — column kinds and lengths, dictionary code ranges, and each
distinct dictionary value as an enum member or cell id — so a corrupt file
fails here, never later when rows are built.  Records appear only when a
caller reads a record list (:class:`~repro.campaign.dataset.DriveDataset`
builds them then, a whole column at a time).  That makes it the fast way
to replay a dataset, which is why the engine's shard cache stores
``.rcol`` entries.  :func:`write_dataset` encodes each table from
``dataset.table(name)``: the held columns, or columns shredded from the
records.

``schema_version`` (the ``format`` footer field) is checked on open, the
same contract as ``EngineReport``/``SweepReport``; every structural change
bumps :data:`STORE_FORMAT_VERSION`.  Version 1 files (meta counts as
objects, whose key order the sorted footer lost) stay readable.
"""

from __future__ import annotations

import json
import mmap
import os
import pathlib
import struct
from typing import Any, Iterator

import numpy as np

from repro.campaign.dataset import DriveDataset
from repro.errors import StoreError
from repro.radio.operators import Operator
from repro.store.columnar import (
    TABLE_SCHEMAS,
    ColumnStats,
    ColumnTable,
    TableSchema,
    decode_column,
    decode_dict_codes,
)

__all__ = [
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC",
    "STORE_SUFFIX",
    "DatasetReader",
    "TableReader",
    "is_store_file",
    "read_dataset",
    "write_dataset",
]

#: Bump on any structural change to the file layout or footer schema.
#: 2: meta counts are ``[name, count]`` pair lists (order-preserving).
STORE_FORMAT_VERSION = 2

#: Older versions this build still reads.
_LEGACY_FORMATS = (1,)

STORE_MAGIC = b"RPRCOL01"
_TAIL = struct.Struct("<QI4s")
_TAIL_MAGIC = b"RCOL"

#: Conventional file suffix for columnar dataset files.
STORE_SUFFIX = ".rcol"


def write_dataset(dataset: DriveDataset, path: str | pathlib.Path) -> dict:
    """Write a dataset as one columnar store file, atomically.

    Returns the footer as written (the object whose canonical JSON the file
    holds), so a caller that needs the column stats, such as the catalog's
    ingest, does not have to reopen the file.
    """
    path = pathlib.Path(path)
    tables: dict[str, Any] = {}
    chunks: list[bytes] = []
    offset = len(STORE_MAGIC)
    for table_name in TABLE_SCHEMAS:
        table = dataset.table(table_name)
        columns = []
        for col in table.encode():
            columns.append(col.footer_entry(offset))
            chunks.append(col.payload)
            offset += len(col.payload)
        tables[table_name] = {"count": table.count, "columns": columns}
    footer = {
        "format": STORE_FORMAT_VERSION,
        "meta": {
            "seed": dataset.seed,
            "scale": dataset.scale,
            "route_length_km": dataset.route_length_km,
            "passive_handover_counts": [
                [op.name, n] for op, n in dataset.passive_handover_counts.items()
            ],
            "connected_cells": [
                [op.name, n] for op, n in dataset.connected_cells.items()
            ],
        },
        "tables": tables,
    }
    footer_bytes = json.dumps(
        footer, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    tail = _TAIL.pack(offset, len(footer_bytes), _TAIL_MAGIC)

    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(STORE_MAGIC)
            for chunk in chunks:
                fh.write(chunk)
            fh.write(footer_bytes)
            fh.write(tail)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return footer


def is_store_file(path: str | pathlib.Path) -> bool:
    """True when ``path`` starts with the columnar store magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(STORE_MAGIC)) == STORE_MAGIC
    except OSError:
        return False


def _operator_counts(obj: Any, path: pathlib.Path) -> dict[Operator, int]:
    """Per-operator counts from footer meta, in their stored order.

    Version 2 stores ``[name, count]`` pairs; version 1 stored an object
    (read back in its sorted key order).
    """
    pairs = obj.items() if isinstance(obj, dict) else obj
    try:
        return {Operator[name]: int(n) for name, n in pairs}
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"bad operator counts in footer of {path}") from exc


def _is_size(value: Any) -> bool:
    """A non-negative JSON integer (``true``/``false`` are not sizes)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


#: Footer fields of a column entry that must be sizes.
_SIZE_KEYS = ("count", "offset", "nbytes", "width")


def _where(column: str, table: str) -> str:
    return f"column {column!r} of table {table!r}"


def _footer_problem(footer: dict) -> str | None:
    """What is structurally wrong with a parsed footer, or ``None``.

    Checks the shape :func:`write_dataset` gives every footer — a ``meta``
    object and a ``tables`` object whose tables hold a row count and a list
    of column entries with sizes, offsets and string names — so a reader
    never trips over a wrong JSON type later.  Every shard replay runs it,
    so a size that is an exact non-negative ``int`` (every size a writer
    writes) passes inline; anything else gets the full :func:`_is_size`.
    """
    if not isinstance(footer.get("meta", {}), dict):
        return "meta is not an object"
    tables = footer.get("tables")
    if not isinstance(tables, dict):
        return "tables is not an object"
    for name, table in tables.items():
        if not isinstance(table, dict):
            return f"table {name!r} is not an object"
        if not _is_size(table.get("count")):
            return f"table {name!r} has no row count"
        columns = table.get("columns")
        if not isinstance(columns, list):
            return f"table {name!r} has no column list"
        seen: set[str] = set()
        for col in columns:
            if not isinstance(col, dict) or not isinstance(col.get("name"), str):
                return f"table {name!r} has a column entry without a name"
            get = col.get
            column = col["name"]
            if column in seen:
                return f"{_where(column, name)} appears twice"
            seen.add(column)
            if not isinstance(get("kind"), str) or not isinstance(
                get("codec", "plain"), str
            ):
                return f"{_where(column, name)} has no kind or codec"
            for key in _SIZE_KEYS:
                v = get(key)
                if not (v.__class__ is int and v >= 0) and not _is_size(v):
                    return f"{_where(column, name)} has a bad {key}"
            if "stats" in col and not isinstance(col["stats"], dict):
                return f"{_where(column, name)} has bad stats"
            if "values" in col and not isinstance(col["values"], list):
                return f"{_where(column, name)} has bad dictionary values"
    return None


class TableReader:
    """Column-level access to one table of an open store file."""

    def __init__(self, reader: "DatasetReader", name: str, entry: dict) -> None:
        self._reader = reader
        self.name = name
        self.count = int(entry["count"])
        self._columns: dict[str, dict] = {
            col["name"]: col for col in entry["columns"]
        }
        #: Dict columns whose codes were checked against their dictionary.
        #: The mapped bytes cannot change while the file is open: store
        #: files are replaced whole, never rewritten in place.
        self._checked_codes: set[str] = set()

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column_entry(self, name: str) -> dict:
        try:
            return self._columns[name]
        except KeyError:
            raise StoreError(
                f"table {self.name!r} has no column {name!r}; "
                f"known: {sorted(self._columns)}"
            ) from None

    def stats(self, name: str) -> ColumnStats:
        return ColumnStats.from_obj(self.column_entry(name).get("stats", {}))

    def dict_values(self, name: str) -> tuple[str, ...]:
        """Distinct values of a dict column, from the footer alone."""
        entry = self.column_entry(name)
        if entry["kind"] != "dict":
            raise StoreError(f"column {name!r} is {entry['kind']}, not dict")
        return tuple(entry.get("values", ()))

    def _payload(self, entry: dict) -> memoryview:
        return self._reader._slice(
            int(entry["offset"]), int(entry["nbytes"]), entry["name"]
        )

    def array(self, name: str) -> np.ndarray:
        """Decode a column to numbers: f8/i8 values, bool bytes, dict codes
        (checked, on first decode, to index the column's dictionary)."""
        return self._decode(self.column_entry(name))

    def _decode(self, entry: dict) -> np.ndarray:
        payload = self._payload(entry)
        name = entry["name"]
        if entry["kind"] != "dict" or name in self._checked_codes:
            return decode_column(entry, payload)
        codes = decode_dict_codes(entry, payload)
        self._checked_codes.add(name)
        return codes

    def load(self, schema: TableSchema) -> ColumnTable:
        """Decode every stored column of ``schema`` into memory, validated.

        Each column must have the schema's kind and the table's row count;
        a dict column's codes must index its dictionary, and every
        dictionary value must be a valid member (enum name, cell id), so a
        corrupt file fails here rather than when rows are built later.
        """
        arrays: dict[str, np.ndarray] = {}
        values: dict[str, tuple[str, ...]] = {}
        for spec in schema.stored:
            entry = self.column_entry(spec.name)
            kind = entry["kind"]
            if kind != spec.kind:
                raise StoreError(
                    f"column {spec.name!r} of table {self.name!r} is "
                    f"{kind}, schema says {spec.kind}"
                )
            arr = self._decode(entry)
            if kind == "dict":
                values[spec.name] = tuple(entry.get("values", ()))
                spec.members(values[spec.name])
            elif kind == "bool":
                arr = arr != 0
            if arr.size != self.count:
                raise StoreError(
                    f"column {spec.name!r} holds {arr.size} values, table "
                    f"{self.name!r} has {self.count} rows (corrupt file)"
                )
            # Copy a view out of the map: the table outlives the reader.
            arrays[spec.name] = arr if arr.flags.owndata else np.array(arr)
        return ColumnTable(self.name, self.count, arrays, values)


class DatasetReader:
    """mmap-backed reader over one columnar dataset file.

    Opens the file, validates magic/version, and parses the footer; column
    bytes are only touched when a query decodes them.  Usable as a context
    manager; arrays returned by :meth:`TableReader.array` for plain columns
    are views into the mmap and become invalid after :meth:`close`.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._fh = open(self.path, "rb")
        try:
            try:
                self._mm: mmap.mmap | None = mmap.mmap(
                    self._fh.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError as exc:  # zero-length file cannot be mapped
                raise StoreError(f"not a store file (empty): {self.path}") from exc
            self._footer = self._parse_footer()
            meta = self._footer.get("meta", {})
            try:
                self.seed: int = int(meta.get("seed", 0))
                self.scale: float = float(meta.get("scale", 0.0))
                self.route_length_km: float = float(
                    meta.get("route_length_km", 0.0)
                )
            except (TypeError, ValueError) as exc:
                raise StoreError(
                    f"bad dataset metadata in footer of {self.path}"
                ) from exc
            self.passive_handover_counts: dict[Operator, int] = (
                _operator_counts(meta.get("passive_handover_counts", []), self.path)
            )
            self.connected_cells: dict[Operator, int] = _operator_counts(
                meta.get("connected_cells", []), self.path
            )
        except Exception:
            self.close()
            raise
        self._tables: dict[str, TableReader] = {}

    # -- low-level ----------------------------------------------------------

    def _parse_footer(self) -> dict:
        mm = self._mm
        assert mm is not None
        size = mm.size()
        if size < len(STORE_MAGIC) + _TAIL.size:
            raise StoreError(
                f"not a store file (only {size} bytes): {self.path}"
            )
        if mm[: len(STORE_MAGIC)] != STORE_MAGIC:
            raise StoreError(f"bad magic; not a columnar store file: {self.path}")
        footer_offset, footer_len, tail_magic = _TAIL.unpack(
            mm[size - _TAIL.size :]
        )
        if tail_magic != _TAIL_MAGIC:
            raise StoreError(
                f"bad tail magic; truncated or corrupt store file: {self.path}"
            )
        self._data_end = footer_offset
        if footer_offset + footer_len + _TAIL.size != size:
            raise StoreError(
                f"footer span disagrees with file size; truncated or corrupt "
                f"store file: {self.path}"
            )
        try:
            footer = json.loads(mm[footer_offset : footer_offset + footer_len])
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreError(
                f"unreadable footer in store file: {self.path}"
            ) from exc
        if not isinstance(footer, dict):
            raise StoreError(f"footer is not a JSON object: {self.path}")
        version = footer.get("format")
        if version != STORE_FORMAT_VERSION and version not in _LEGACY_FORMATS:
            raise StoreError(
                f"unsupported store format {version!r} (this build reads "
                f"{[*_LEGACY_FORMATS, STORE_FORMAT_VERSION]}): {self.path}"
            )
        problem = _footer_problem(footer)
        if problem is not None:
            raise StoreError(f"malformed footer ({problem}): {self.path}")
        return footer

    def _slice(self, offset: int, nbytes: int, column: str) -> memoryview:
        if self._mm is None:
            raise StoreError(f"store file is closed: {self.path}")
        if offset < len(STORE_MAGIC) or offset + nbytes > self._data_end:
            raise StoreError(
                f"column {column!r} spans [{offset}, {offset + nbytes}) "
                f"outside the data section of {self.path} (corrupt footer)"
            )
        return memoryview(self._mm)[offset : offset + nbytes]

    # -- table access --------------------------------------------------------

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._footer.get("tables", {}))

    def table(self, name: str) -> TableReader:
        reader = self._tables.get(name)
        if reader is None:
            entry = self._footer.get("tables", {}).get(name)
            if entry is None:
                raise StoreError(
                    f"store file has no table {name!r}; "
                    f"known: {sorted(self._footer.get('tables', {}))}"
                )
            reader = TableReader(self, name, entry)
            self._tables[name] = reader
        return reader

    def tables(self) -> Iterator[TableReader]:
        for name in self.table_names:
            yield self.table(name)

    def nbytes(self) -> int:
        """Total file size in bytes."""
        return self._mm.size() if self._mm is not None else 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if getattr(self, "_mm", None) is not None:
            try:
                self._mm.close()
            except BufferError:
                # A column view is still alive (say, in the traceback of a
                # decode error raised inside ``with``): the map unmaps when
                # the last view goes, and this reader stops serving reads.
                pass
            self._mm = None
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "DatasetReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_dataset(path: str | pathlib.Path) -> DriveDataset:
    """Read a store file into a column-held dataset.

    The exact inverse of :func:`write_dataset`: every table is held as a
    :class:`~repro.store.columnar.ColumnTable` (decoded and validated
    here, see :meth:`TableReader.load`), and its records — built on first
    access to the record list — compare equal to the ones that were
    written (floats round-trip bit-for-bit, fields keep their Python
    types).  The dataset saves to the same bytes in either format.
    """
    with DatasetReader(path) as reader:
        dataset = DriveDataset(
            seed=reader.seed,
            scale=reader.scale,
            route_length_km=reader.route_length_km,
            passive_handover_counts=dict(reader.passive_handover_counts),
            connected_cells=dict(reader.connected_cells),
        )
        for table_name, schema in TABLE_SCHEMAS.items():
            dataset.set_table(reader.table(table_name).load(schema))
        return dataset
