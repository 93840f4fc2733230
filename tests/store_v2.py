"""A writer of version 2 store files, for the tests of the legacy read path.

Version 2 (and 1) ended a ``.rcol`` file in a JSON footer and a 16-byte
tail instead of the binary column directory::

    [8-byte magic "RPRCOL01"]
    [column chunks, back to back, in footer order]
    [footer: UTF-8 JSON, sorted keys, compact]
    [16-byte tail: <u8 footer offset> <u4 footer length> "RCOL"]

:func:`write_dataset_v2` writes exactly the bytes the version 2 writer
wrote, so the reader's legacy path and the corruption tests that edit a
JSON footer (``split_rcol``/``join_rcol`` in ``conftest``) run on real v2
files.  ``tests/data/golden.rcol`` is such a file, frozen.
"""

from __future__ import annotations

import json
import pathlib
import struct

from repro.store.columnar import TABLE_SCHEMAS
from repro.store.format import STORE_MAGIC

LEGACY_TAIL = struct.Struct("<QI4s")


def write_dataset_v2(dataset, path) -> dict:
    """Write ``dataset`` as a version 2 store file; returns its footer."""
    path = pathlib.Path(path)
    tables = {}
    chunks = []
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
        "format": 2,
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
    raw = json.dumps(footer, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(
        STORE_MAGIC + b"".join(chunks) + raw
        + LEGACY_TAIL.pack(offset, len(raw), b"RCOL")
    )
    return footer
