"""Dataset persistence: save/load a :class:`DriveDataset` to disk.

The paper's dataset is published as files [8]; an adopted open-source
release needs the same.  We serialise to gzipped JSON-lines — one record per
line, one section header per record family — which is diffable, streamable,
and keeps enum round-trips explicit.

The record dataclasses are the schema.  This codec declares no fields: it
takes each table's columns from :data:`repro.store.columnar.TABLE_SCHEMAS`
(derived from the dataclass fields) and adds only a short JSON key per
column (:data:`_KEYS`), so a new field needs a dataclass edit plus one key.
The codec reads and writes columns, never records: a section is written
row by row from the held table's arrays, and read by gathering its values
column by column into
:meth:`~repro.store.columnar.ColumnTable.from_columns`.  Any malformed
file raises :class:`~repro.errors.LogFormatError`.

Saves are **atomic** (written to a sibling temp file, then ``os.replace``'d
into place) so an interrupted save can never leave a truncated gzip behind,
and **byte-reproducible** (the gzip mtime field is pinned to zero) so equal
datasets serialise to equal bytes — both properties the engine's shard
checkpoints and determinism tests rely on.

Two on-disk backends share this API: the row-oriented gzipped JSON-lines
format here, and the columnar ``.rcol`` store format (:mod:`repro.store`)
optimised for analytical queries.  :func:`save_dataset` picks by the
``format=`` argument (``"auto"`` keys on the ``.rcol`` suffix);
:func:`load_dataset` sniffs the file's magic bytes, so callers never need
to know which backend wrote a file.  Both round-trip every record value
exactly, and a dataset read back from either saves to the same bytes.

JSON-lines stays the default here (the archival interchange format), but it
is not what the engine's shard cache and checkpoints store: those entries
are ``data.rcol`` columnar files (:mod:`repro.engine.checkpoint`), because
the columnar reader replays a shard as column arrays without building a
record, at about twice the disk footprint.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import pathlib
import zlib
from typing import Any, TextIO

import numpy as np

from repro.campaign.dataset import DriveDataset
from repro.errors import LogFormatError, StoreError
from repro.radio.operators import Operator
from repro.store.columnar import TABLE_SCHEMAS, ColumnSpec, ColumnTable
from repro.store.format import is_store_file, read_dataset, write_dataset

__all__ = ["save_dataset", "load_dataset", "FORMAT_VERSION"]

FORMAT_VERSION = 1

#: Short JSON key of every stored (non-derived) column, table by table, in
#: column order — the one JSON-lines detail the dataclasses do not give.
_KEYS: dict[str, tuple[str, ...]] = {
    "tput": ("tid", "op", "dir", "t", "m", "v", "reg", "tz", "tech", "rsrp",
             "mcs", "bler", "ca", "tput", "srv", "ho", "st"),
    "rtt": ("tid", "op", "t", "m", "v", "reg", "tz", "tech", "rtt", "srv",
            "st"),
    "test": ("tid", "type", "op", "t0", "t1", "m0", "m1", "srv", "st"),
    "ho": ("tid", "dir", "op", "t", "m", "dur", "fc", "tc", "ft", "tt"),
    "passive": ("op", "m0", "m1", "tech", "tz", "reg"),
    "offload": ("app", "tid", "op", "srv", "comp", "mean", "med", "fps",
                "map", "ho", "hs", "st", "mb"),
    "video": ("tid", "op", "srv", "qoe", "br", "rb", "ho", "hs", "st", "mb"),
    "gaming": ("tid", "op", "srv", "br", "lat", "p95", "drop", "ho", "hs",
               "st", "mb"),
}

#: ``(JSON key, column)`` pairs of every table; a column without a key (or
#: a table without keys) fails here, at import.
_FIELDS: dict[str, tuple[tuple[str, ColumnSpec], ...]] = {
    table: tuple(zip(
        _KEYS[table], [c for c in schema.columns if not c.derived],
        strict=True,
    ))
    for table, schema in TABLE_SCHEMAS.items()
}


def _write_section(fh: TextIO, table: ColumnTable) -> None:
    """One JSON line per row, straight from the table's columns: numbers as
    stored, dict columns (enum members by name, cells) as their strings."""
    keys = []
    columns = []
    for key, spec in _FIELDS[table.name]:
        arr = table.arrays[spec.name]
        if spec.kind == "dict":
            strings = np.asarray(table.values[spec.name], dtype=object)
            columns.append(strings[arr].tolist())
        else:
            columns.append(arr.tolist())
        keys.append(key)
    kind = {"kind": table.name}
    for row in zip(*columns):
        fh.write(json.dumps({**kind, **dict(zip(keys, row))}) + "\n")


def save_dataset(
    dataset: DriveDataset,
    path: str | pathlib.Path,
    *,
    format: str = "auto",
) -> None:
    """Write a dataset to disk, atomically.

    ``format`` selects the backend: ``"jsonl"`` for gzipped JSON-lines,
    ``"columnar"`` for the :mod:`repro.store` columnar format, or ``"auto"``
    (the default), which writes columnar when ``path`` ends in ``.rcol``
    and JSON-lines otherwise.

    The file appears at ``path`` only once fully written and flushed:
    writes go to a unique ``.tmp`` sibling which is then ``os.replace``'d
    over the destination (atomic on POSIX).  A crash mid-save leaves any
    previous file at ``path`` untouched.
    """
    path = pathlib.Path(path)
    if format not in ("auto", "jsonl", "columnar"):
        raise ValueError(
            f"unknown dataset format {format!r}; use 'auto', 'jsonl', "
            "or 'columnar'"
        )
    if format == "columnar" or (
        format == "auto" and path.suffix == ".rcol"
    ):
        write_dataset(dataset, path)
        return
    header = {
        "format": FORMAT_VERSION,
        "seed": dataset.seed,
        "scale": dataset.scale,
        "route_length_km": dataset.route_length_km,
        "passive_handover_counts": {
            op.name: n for op, n in dataset.passive_handover_counts.items()
        },
        "connected_cells": {op.name: n for op, n in dataset.connected_cells.items()},
    }
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as raw:
            # mtime=0 and an empty FNAME pin the gzip header: identical
            # datasets produce identical bytes, enabling cheap equality
            # checks (the default embeds the temp file's name and mtime).
            with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as gz:
                with io.TextIOWrapper(gz, encoding="utf-8") as fh:
                    fh.write(json.dumps({"kind": "header", **header}) + "\n")
                    for table in TABLE_SCHEMAS:
                        _write_section(fh, dataset.table(table))
            raw.flush()
            os.fsync(raw.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_dataset(path: str | pathlib.Path) -> DriveDataset:
    """Read a dataset written by :func:`save_dataset`, either backend.

    The backend is detected from the file's magic bytes, not its name, so
    renamed files still load.

    Raises
    ------
    LogFormatError
        On any malformed JSON-lines file: not gzip or truncated, a bad JSON
        line, a missing/invalid header, an unknown record kind, version or
        enum member, a bad cell id, a missing field, a number out of its
        column's range, or a non-positive handover duration (the underlying
        error is chained as the cause).
    StoreError
        On a truncated or corrupt columnar file.
    """
    path = pathlib.Path(path)
    if is_store_file(path):
        return read_dataset(path)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        try:
            return _read_jsonl(fh)
        except (
            OSError, EOFError, zlib.error, ValueError, KeyError, TypeError,
            OverflowError, StoreError,
        ) as exc:
            raise LogFormatError(
                f"malformed dataset file {path}: {type(exc).__name__}: {exc}"
            ) from exc


def _operator_counts(obj: Any) -> dict[Operator, int]:
    if not isinstance(obj, dict):
        raise LogFormatError(f"per-operator counts must be an object: {obj!r}")
    return {Operator[name]: n for name, n in obj.items()}


def _read_jsonl(fh: TextIO) -> DriveDataset:
    """Gather each section's values column by column into its table, checked
    as the columnar reader checks a decoded one; no record is built."""
    header = json.loads(fh.readline())
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise LogFormatError("dataset file must start with a header record")
    if header.get("format") != FORMAT_VERSION:
        raise LogFormatError(
            f"unsupported dataset format {header.get('format')!r}"
        )
    dataset = DriveDataset(
        seed=header["seed"],
        scale=header["scale"],
        route_length_km=header["route_length_km"],
        passive_handover_counts=_operator_counts(
            header.get("passive_handover_counts", {})
        ),
        connected_cells=_operator_counts(header.get("connected_cells", {})),
    )
    sections: dict[str, list[dict]] = {table: [] for table in _FIELDS}
    for line in fh:
        obj = json.loads(line)
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind not in sections:
            raise LogFormatError(f"unknown record kind {kind!r}")
        sections[kind].append(obj)
    for table, objs in sections.items():
        if not objs:
            continue  # the dataset holds the shared empty table
        held = ColumnTable.from_columns(
            table, {spec.name: [o[key] for o in objs] for key, spec in _FIELDS[table]}
        )
        for column in held.values:
            held.members(column)  # unknown enum names, bad cell ids
        dataset.set_table(held)
    # The one rule a record constructor adds to the column types
    # (HandoverEvent's), checked on the column as building the rows would.
    durations = dataset.table("ho").arrays["duration_ms"]
    if (durations <= 0.0).any():
        raise ValueError(
            f"handover duration must be positive, got {durations.min()}"
        )
    return dataset
