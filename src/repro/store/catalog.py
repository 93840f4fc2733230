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
"""

from __future__ import annotations

import json
import os
import pathlib
import re
from dataclasses import dataclass

from repro.campaign.dataset import DriveDataset
from repro.errors import StoreError
from repro.store.format import DatasetReader, write_dataset

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
    tables: dict[str, dict]

    def table_stats(self, table: str) -> dict | None:
        """Manifest stats of one table; ``None`` when unknown."""
        return self.tables.get(table)

    def rows(self, table: str) -> int:
        entry = self.tables.get(table)
        return int(entry["count"]) if entry else 0

    def to_obj(self) -> dict:
        return {
            "path": self.path,
            "seed": self.seed,
            "label": self.label,
            "nbytes": self.nbytes,
            "tables": self.tables,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "PartitionInfo":
        return cls(
            path=str(obj["path"]),
            seed=int(obj["seed"]),
            label=obj.get("label"),
            nbytes=int(obj.get("nbytes", 0)),
            tables=dict(obj.get("tables", {})),
        )


def _lite_tables(reader: DatasetReader) -> dict[str, dict]:
    """Copy a store file's footer stats into manifest (pruning) form."""
    tables: dict[str, dict] = {}
    for name in reader.table_names:
        table = reader.table(name)
        columns = {}
        for column in table.column_names:
            entry = table.column_entry(column)
            columns[column] = {
                k: entry[k] for k in _LITE_COLUMN_FIELDS if k in entry
            }
        tables[name] = {"count": table.count, "columns": columns}
    return tables


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

    # -- ingest --------------------------------------------------------------

    def ingest(
        self,
        dataset: DriveDataset,
        *,
        seed: int | None = None,
        label: str | None = None,
    ) -> PartitionInfo:
        """Write a dataset as one partition and register it.

        ``seed`` defaults to the dataset's own seed.  Re-ingesting an
        existing ``(seed, label)`` replaces that partition's file and
        manifest entry.
        """
        seed = dataset.seed if seed is None else int(seed)
        if label is not None and not _LABEL_RE.match(label):
            raise StoreError(
                f"invalid partition label {label!r}; use letters, digits, "
                "'_', '.', '-'"
            )
        stem = f"seed-{seed:08d}" + (f"-{label}" if label else "")
        rel = f"{_PARTS_DIR}/{stem}.rcol"
        target = self.root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        write_dataset(dataset, target)

        stale = self._readers.pop(rel, None)
        if stale is not None:
            stale.close()
        with DatasetReader(target) as reader:
            info = PartitionInfo(
                path=rel,
                seed=seed,
                label=label,
                nbytes=reader.nbytes(),
                tables=_lite_tables(reader),
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
        obj = {
            "format": CATALOG_FORMAT_VERSION,
            "partitions": [p.to_obj() for p in self.partitions],
        }
        manifest = self.root / _MANIFEST_NAME
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = manifest.with_name(f"{manifest.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(
                json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
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
