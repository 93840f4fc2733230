"""Partition catalog: a directory of store files with a pruning manifest.

A catalog maps one logical campaign dataset collection — typically the
per-seed outputs of a sweep, optionally split further per shard or label —
onto partition files::

    catalog_dir/
      catalog.json              # the manifest
      parts/seed-00000041.rcol
      parts/seed-00000042.rcol
      ...

The manifest carries, per partition, the seed, an optional label, and a
copy of every table's footer stats (row counts, min/max/nulls, dictionary
value sets).  The query engine prunes on the manifest alone, so a sweep
query over 100 seeds with ``operator == VERIZON`` and a route-km range
opens only the partition files whose stats admit a match — pruned
partitions cost zero bytes of I/O.

Ingest is atomic twice over: the partition file is written via the store
writer's temp-and-replace, then the manifest is rewritten the same way.
Re-ingesting an existing ``(seed, label)`` replaces that partition.  The
catalog is single-writer (the engine/sweep drivers ingest sequentially);
readers can open it concurrently at any time.

An ingest may name its ``source``: the computation that produced the
dataset (the engine passes its config fingerprint).  A sourced ingest
records ``source`` and the ``sha256`` of the bytes it wrote in the
partition's manifest entry, and a later ingest of the same ``(seed,
label)`` with the same ``source`` returns the held partition without
writing the file or the manifest, once the file's current bytes hash to
the recorded digest.  That is the shard cache's trust model: the source
names the computation, the digest proves the bytes.  A missing or altered
file, another source or an entry without provenance is written as
before, and a plain ingest records no provenance and hashes nothing.  A
process that checks a file more than once holds its digest beside the
bytes it was computed from, so checking it again while its bytes have not
changed is a byte comparison rather than a hash.

The manifest is the canonical compact JSON of its content
(``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, C-encoded).
Ingest takes the new partition's stats from the column entries the store
writer returns rather than reopening the file, and every partition
encodes its manifest entry once: a rewrite encodes the partition it
ingests and joins the encodings it already holds, so a catalog object
ingesting many partitions pays for one entry per ingest, not for the
whole manifest.  Manifests written with indentation (before the compact
form) open the same way and are rewritten compactly by the next ingest
that writes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
from dataclasses import dataclass, field

from repro.campaign.dataset import DriveDataset
from repro.errors import StoreError
from repro.store.format import DatasetReader, held_result, is_size, write_dataset

__all__ = ["CATALOG_FORMAT_VERSION", "Catalog", "PartitionInfo"]

#: Bump on any structural change to the manifest schema.
CATALOG_FORMAT_VERSION = 1

_MANIFEST_NAME = "catalog.json"
_PARTS_DIR = "parts"
_LABEL_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: Footer column-entry fields copied into the manifest (byte spans stay
#: in the file; the manifest only needs what pruning reads).
_LITE_COLUMN_FIELDS = ("name", "kind", "codec", "width", "count", "stats", "values")


@dataclass(frozen=True)
class PartitionInfo:
    """One partition: where it lives and what its stats promise."""

    #: Path relative to the catalog root.
    path: str
    seed: int
    label: str | None
    nbytes: int
    #: Per-table pruning stats: ``{table: {"count": n, "columns": {...}}}``.
    #: Never mutated: the entry's manifest encoding is kept.
    tables: dict[str, dict]
    #: What computed the partition (see :meth:`Catalog.ingest`) and the
    #: SHA-256 of the bytes written for it; ``None`` without provenance.
    source: str | None = None
    sha256: str | None = None
    _json: str | None = field(default=None, init=False, repr=False, compare=False)

    def table_stats(self, table: str) -> dict | None:
        """Manifest stats of one table; ``None`` when unknown."""
        return self.tables.get(table)

    def rows(self, table: str) -> int:
        entry = self.tables.get(table)
        return int(entry["count"]) if entry else 0

    def to_obj(self) -> dict:
        obj = {
            "path": self.path,
            "seed": self.seed,
            "label": self.label,
            "nbytes": self.nbytes,
            "tables": self.tables,
        }
        if self.source is not None:
            obj.update(source=self.source, sha256=self.sha256)
        return obj

    def to_json(self) -> str:
        """The entry's canonical compact JSON, encoded on first use only."""
        if self._json is None:
            object.__setattr__(self, "_json", _encode(self.to_obj()))
        return self._json

    @classmethod
    def from_obj(cls, obj: dict) -> "PartitionInfo":
        """Parse one manifest entry; :class:`ValueError` when its table
        stats do not have the shape :func:`_lite_tables` writes or its
        provenance keys are not strings."""
        path = str(obj["path"])
        tables = obj.get("tables", {})
        problem = _tables_problem(tables)
        for key in ("source", "sha256"):
            if not isinstance(obj.get(key, ""), str):
                problem = f"{key} is not a string"
        if problem is not None:
            raise ValueError(f"partition {path!r}: {problem}")
        return cls(
            path=path,
            seed=int(obj["seed"]),
            label=obj.get("label"),
            nbytes=int(obj.get("nbytes", 0)),
            tables=dict(tables),
            source=obj.get("source"),
            sha256=obj.get("sha256"),
        )


def _tables_problem(tables) -> str | None:
    """What is structurally wrong with a manifest's table stats, or ``None``.

    Pruning reads a row count per table and, per column, a kind, a count and
    the optional stats and dictionary values, so those must have their JSON
    types.
    """
    if not isinstance(tables, dict):
        return "tables is not an object"
    for name, table in tables.items():
        if not isinstance(table, dict) or not is_size(table.get("count")):
            return f"table {name!r} has no row count"
        columns = table.get("columns")
        if not isinstance(columns, dict):
            return f"table {name!r} has no column object"
        for column, entry in columns.items():
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("kind"), str)
                and is_size(entry.get("count"))
                and isinstance(entry.get("stats", {}), dict)
                and isinstance(entry.get("values", []), list)
            ):
                return f"column {column!r} of table {name!r} is malformed"
    return None


def _file_sha256(path: pathlib.Path) -> str | None:
    """SHA-256 of a file's bytes; ``None`` when it cannot be read.  From
    the second read of a path on, the digest is held beside the bytes it
    was computed from (:func:`~repro.store.format.held_result`), so
    re-reading equal bytes compares them instead of hashing them again."""
    try:
        return held_result(path, _sha256)
    except OSError:
        return None


def _sha256(path: pathlib.Path, data: bytes) -> tuple[str, tuple]:
    return hashlib.sha256(data).hexdigest(), ()


def _encode(obj) -> str:
    """Canonical compact JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _lite_tables(footer_tables: dict) -> dict[str, dict]:
    """Copy a store footer's table stats into manifest (pruning) form."""
    return {
        name: {
            "count": table["count"],
            "columns": {
                col["name"]: {k: col[k] for k in _LITE_COLUMN_FIELDS if k in col}
                for col in table["columns"]
            },
        }
        for name, table in sorted(footer_tables.items())
    }


class Catalog:
    """A directory of columnar partitions behind one pruning manifest."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)
        self._partitions: list[PartitionInfo] = []
        self._readers: dict[str, DatasetReader] = {}
        manifest = self.root / _MANIFEST_NAME
        if manifest.exists():
            try:
                obj = json.loads(manifest.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise StoreError(f"unreadable catalog manifest: {manifest}") from exc
            if not isinstance(obj, dict):
                raise StoreError(
                    f"unreadable catalog manifest (not a JSON object): {manifest}"
                )
            version = obj.get("format")
            if version != CATALOG_FORMAT_VERSION:
                raise StoreError(
                    f"unsupported catalog format {version!r} "
                    f"(this build reads {CATALOG_FORMAT_VERSION}): {manifest}"
                )
            try:
                self._partitions = [
                    PartitionInfo.from_obj(p) for p in obj.get("partitions", [])
                ]
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(
                    f"unreadable catalog manifest (bad partition entry "
                    f"{type(exc).__name__}: {exc}): {manifest}"
                ) from exc

    # -- introspection -------------------------------------------------------

    @property
    def partitions(self) -> tuple[PartitionInfo, ...]:
        """All partitions, in (seed, label) order."""
        return tuple(
            sorted(self._partitions, key=lambda p: (p.seed, p.label or ""))
        )

    @property
    def seeds(self) -> tuple[int, ...]:
        """Distinct seeds with at least one partition, ascending."""
        return tuple(sorted({p.seed for p in self._partitions}))

    def rows(self, table: str) -> int:
        """Total rows of one table across every partition (manifest only)."""
        return sum(p.rows(table) for p in self._partitions)

    def partition(self, seed: int, label: str | None = None) -> PartitionInfo | None:
        """The partition held for ``(seed, label)``; ``None`` when absent."""
        for p in self._partitions:
            if (p.seed, p.label) == (seed, label):
                return p
        return None

    # -- ingest --------------------------------------------------------------

    def ingest(
        self,
        dataset: DriveDataset,
        *,
        seed: int | None = None,
        label: str | None = None,
        source: str | None = None,
    ) -> PartitionInfo:
        """Write a dataset as one partition and register it.

        ``seed`` defaults to the dataset's own seed.  Re-ingesting an
        existing ``(seed, label)`` replaces that partition's file and
        manifest entry.  ``source`` names the computation that produced
        ``dataset``: when the held partition records the same source and
        its file still hashes to the recorded SHA-256, that partition is
        returned as is and nothing is written.
        """
        seed = dataset.seed if seed is None else int(seed)
        if label is not None and not _LABEL_RE.match(label):
            raise StoreError(
                f"invalid partition label {label!r}; use letters, digits, "
                "'_', '.', '-'"
            )
        held = self.partition(seed, label)
        if (
            source is not None
            and held is not None
            and held.source == source
            and held.sha256 is not None
            and _file_sha256(self.root / held.path) == held.sha256
        ):
            return held
        stem = f"seed-{seed:08d}" + (f"-{label}" if label else "")
        rel = f"{_PARTS_DIR}/{stem}.rcol"
        target = self.root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        hasher = hashlib.sha256() if source is not None else None
        footer = write_dataset(dataset, target, hasher=hasher)

        stale = self._readers.pop(rel, None)
        if stale is not None:
            stale.close()
        info = PartitionInfo(
            path=rel,
            seed=seed,
            label=label,
            nbytes=target.stat().st_size,
            tables=_lite_tables(footer["tables"]),
            source=source,
            sha256=hasher.hexdigest() if hasher is not None else None,
        )
        self._partitions = [
            p for p in self._partitions if (p.seed, p.label) != (seed, label)
        ]
        self._partitions.append(info)
        self._write_manifest()
        return info

    def ingest_file(self, dataset_path: str | os.PathLike, **kwargs) -> PartitionInfo:
        """Load a saved dataset (row or columnar format) and ingest it."""
        from repro.campaign.persistence import load_dataset

        return self.ingest(load_dataset(dataset_path), **kwargs)

    def _write_manifest(self) -> None:
        # ``_encode({"format": ..., "partitions": [...]})``, joined from the
        # partitions' kept encodings ("format" sorts before "partitions").
        text = "".join((
            '{"format":', _encode(CATALOG_FORMAT_VERSION), ',"partitions":[',
            ",".join(p.to_json() for p in self.partitions), "]}",
        ))
        manifest = self.root / _MANIFEST_NAME
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = manifest.with_name(f"{manifest.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, manifest)
        finally:
            tmp.unlink(missing_ok=True)

    # -- reading -------------------------------------------------------------

    def open(self, partition: PartitionInfo) -> DatasetReader:
        """Open (and cache) one partition's store file."""
        reader = self._readers.get(partition.path)
        if reader is None:
            reader = DatasetReader(self.root / partition.path)
            self._readers[partition.path] = reader
        return reader

    def readers(
        self, seeds: tuple[int, ...] | None = None
    ) -> list[DatasetReader]:
        """Open readers, optionally restricted to some seeds."""
        return [
            self.open(p)
            for p in self.partitions
            if seeds is None or p.seed in seeds
        ]

    def close(self) -> None:
        for reader in self._readers.values():
            reader.close()
        self._readers.clear()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
