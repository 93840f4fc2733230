"""The store query engine: projection, predicate pushdown, aggregation.

Answers the analysis layer's questions — "Verizon driving downlink
throughput values", "total passive metres per technology", "the RTT p95
below 60 mph" — straight from columnar bytes, without ever materialising a
row object:

* **projection** — only the columns a query touches are decoded;
* **predicate pushdown** — every predicate is first tested against the
  footer stats (min/max/nulls, dictionary value sets).  A partition whose
  stats contradict a predicate is skipped without reading a byte; a
  predicate its stats *guarantee* (e.g. ``static == False`` on a
  driving-only partition) matches without decoding its column;
* **aggregation kernels** — count, sum, mean, percentiles, and empirical
  CDFs (:class:`~repro.analysis.cdf.EmpiricalCDF`, the same type every
  figure uses), plus a grouped sum for coverage-share style queries.

Sources are polymorphic: any kernel runs over one open
:class:`~repro.store.format.DatasetReader`, over a whole
:class:`~repro.store.catalog.Catalog`, where the partition manifest prunes
by seed and by the same footer stats before any file is opened, or over an
in-memory :class:`~repro.campaign.dataset.DriveDataset`, read through
:meth:`~repro.campaign.dataset.DriveDataset.table`.  A reader and a dataset
are one partition each; ``seeds=`` selects partitions by seed on every
source, and :func:`partitions` yields the selected ones for questions a
single kernel call cannot answer (per-partition joins, metadata counters).
These kernels are where every paper statistic is computed
(:mod:`repro.sweep.stats`).

Predicates compare against Python-level values: enums (``Operator.VERIZON``),
strings, bools, numbers.  ``Between`` bounds are inclusive by default; the
paper's speed bins come pre-built from :func:`where_speed_bin`.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.analysis.cdf import EmpiricalCDF
from repro.campaign.dataset import DriveDataset
from repro.errors import StoreError
from repro.store.catalog import Catalog, PartitionInfo
from repro.store.columnar import TABLE_SCHEMAS, ColumnTable
from repro.store.format import DatasetReader, TableReader
from repro.units import SPEED_BIN_EDGES_MPH, SPEED_BIN_LABELS

__all__ = [
    "Between",
    "Eq",
    "In",
    "Predicate",
    "QueryStats",
    "cdf",
    "count",
    "fold",
    "group_rows",
    "group_total",
    "mean",
    "partitions",
    "percentile",
    "select",
    "select_columns",
    "select_rows",
    "total",
    "where_speed_bin",
]


@dataclass(frozen=True, slots=True)
class Eq:
    """``column == value`` (enum members compare by name on dict columns)."""

    column: str
    value: Any


@dataclass(frozen=True, slots=True)
class In:
    """``column ∈ values``."""

    column: str
    values: tuple[Any, ...]


@dataclass(frozen=True, slots=True)
class Between:
    """``lo ≤ column ≤ hi`` (either bound may be ``None`` = unbounded).

    Bounds are inclusive unless the matching ``*_inclusive`` flag is False.
    NaN never matches a range.
    """

    column: str
    lo: float | None = None
    hi: float | None = None
    lo_inclusive: bool = True
    hi_inclusive: bool = True


Predicate = Eq | In | Between


def where_speed_bin(label: str, column: str = "speed_mph") -> Between:
    """The paper's speed bins (§4.2) as range predicates.

    >>> where_speed_bin("20-60 mph")
    Between(column='speed_mph', lo=20.0, hi=60.0, lo_inclusive=True, hi_inclusive=False)
    """
    try:
        index = SPEED_BIN_LABELS.index(label)
    except ValueError:
        raise StoreError(
            f"unknown speed bin {label!r}; known: {list(SPEED_BIN_LABELS)}"
        ) from None
    lo = SPEED_BIN_EDGES_MPH[index]
    hi = SPEED_BIN_EDGES_MPH[index + 1]
    return Between(
        column=column,
        lo=lo,
        hi=None if hi == float("inf") else hi,
        lo_inclusive=True,
        hi_inclusive=False,
    )


@dataclass
class QueryStats:
    """Observability of one query: what pushdown saved.

    Pass an instance to any kernel to collect counters across partitions.
    """

    partitions_total: int = 0
    #: Partitions skipped entirely from manifest/footer stats.
    partitions_pruned: int = 0
    partitions_scanned: int = 0
    rows_total: int = 0
    rows_matched: int = 0
    #: Column chunks actually decoded (projection + non-pruned predicates).
    columns_decoded: int = 0
    #: Predicates answered from footer stats alone (no column read).
    predicates_short_circuited: int = 0
    #: Encoded bytes of every column chunk decoded — how much of the file
    #: the query actually read past the footer.
    bytes_decoded: int = 0
    #: Wall seconds spent evaluating predicates, accumulated per column
    #: (stats verdicts + mask evaluation), feeding ``--explain``.
    predicate_s: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "QueryStats") -> None:
        for name in (
            "partitions_total", "partitions_pruned", "partitions_scanned",
            "rows_total", "rows_matched", "columns_decoded",
            "predicates_short_circuited", "bytes_decoded",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for column, seconds in other.predicate_s.items():
            self.predicate_s[column] = self.predicate_s.get(column, 0.0) + seconds


# -- predicate normalisation & stats pruning ---------------------------------


def _norm_value(entry: dict, value: Any) -> Any:
    """Normalise a predicate value for the column's kind."""
    kind = entry["kind"]
    if kind == "dict":
        return value.name if isinstance(value, enum.Enum) else str(value)
    if kind == "bool":
        return 1 if value else 0
    if kind in ("f8", "i8"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise StoreError(
                f"predicate value {value!r} is not numeric for "
                f"{kind} column {entry.get('name')!r}"
            )
        return value
    raise StoreError(f"unknown column kind {kind!r}")


def _stats_verdict(entry: dict, pred: Predicate) -> str:
    """Test a predicate against footer stats alone.

    Returns ``"none"`` (no row can match — prune), ``"all"`` (every row
    matches — predicate answered without decoding), or ``"some"``.
    """
    kind = entry["kind"]
    stats = entry.get("stats", {})
    count_ = int(entry.get("count", 0))
    if count_ == 0:
        return "none"
    if kind == "dict":
        present = set(entry.get("values", ()))
        if isinstance(pred, Eq):
            wanted = {_norm_value(entry, pred.value)}
        elif isinstance(pred, In):
            wanted = {_norm_value(entry, v) for v in pred.values}
        else:
            raise StoreError(
                f"range predicate on dict column {pred.column!r}"
            )
        if not present & wanted:
            return "none"
        if present <= wanted:
            return "all"
        return "some"
    if "stats" not in entry:
        return "some"  # an in-memory column has no stats: read it
    lo_stat = stats.get("min")
    hi_stat = stats.get("max")
    nulls = int(stats.get("nulls", 0))
    if lo_stat is None or hi_stat is None:
        return "none"  # no finite value in the column
    if isinstance(pred, Eq):
        v = _norm_value(entry, pred.value)
        if v < lo_stat or v > hi_stat:
            return "none"
        if lo_stat == hi_stat == v and nulls == 0:
            return "all"
        return "some"
    if isinstance(pred, In):
        vs = [_norm_value(entry, v) for v in pred.values]
        if all(v < lo_stat or v > hi_stat for v in vs):
            return "none"
        if lo_stat == hi_stat and nulls == 0 and lo_stat in vs:
            return "all"
        return "some"
    if isinstance(pred, Between):
        lo = pred.lo if pred.lo is not None else float("-inf")
        hi = pred.hi if pred.hi is not None else float("inf")
        if hi < lo_stat or lo > hi_stat:
            return "none"
        if not pred.lo_inclusive and hi_stat <= lo:
            return "none"
        if not pred.hi_inclusive and lo_stat >= hi:
            return "none"
        lo_ok = lo_stat > lo or (pred.lo_inclusive and lo_stat == lo)
        hi_ok = hi_stat < hi or (pred.hi_inclusive and hi_stat == hi)
        if lo_ok and hi_ok and nulls == 0:
            return "all"
        return "some"
    raise StoreError(f"unknown predicate type {type(pred).__name__}")


#: One table of one partition: a store file's, or an in-memory dataset's.
Table = TableReader | ColumnTable


def _pred_mask(
    table: Table, pred: Predicate, qstats: QueryStats | None
) -> np.ndarray | bool:
    """Evaluate one predicate: boolean mask, or True/False wholesale.

    With ``qstats``, the evaluation is timed per column (accumulated in
    ``predicate_s``); without it, no clock is read.
    """
    if qstats is None:
        return _pred_mask_inner(table, pred, None)
    t0 = time.perf_counter()
    try:
        return _pred_mask_inner(table, pred, qstats)
    finally:
        qstats.predicate_s[pred.column] = (
            qstats.predicate_s.get(pred.column, 0.0)
            + (time.perf_counter() - t0)
        )


def _pred_mask_inner(
    table: Table, pred: Predicate, qstats: QueryStats | None
) -> np.ndarray | bool:
    entry = table.column_entry(pred.column)
    verdict = _stats_verdict(entry, pred)
    if verdict != "some":
        if qstats is not None:
            qstats.predicates_short_circuited += 1
        return verdict == "all"
    if qstats is not None:
        qstats.columns_decoded += 1
        qstats.bytes_decoded += int(entry.get("nbytes", 0))
    arr = table.array(pred.column)
    if entry["kind"] == "dict":
        values = pred.values if isinstance(pred, In) else (pred.value,)
        wanted = {_norm_value(entry, v) for v in values}
        codes = [i for i, v in enumerate(entry.get("values", ())) if v in wanted]
        if not codes:
            return False
        return arr == codes[0] if len(codes) == 1 else np.isin(arr, codes)
    if isinstance(pred, Eq):
        return arr == _norm_value(entry, pred.value)
    if isinstance(pred, In):
        vs = [_norm_value(entry, v) for v in pred.values]
        return np.isin(arr, vs)
    mask: np.ndarray | bool = True
    if pred.lo is not None:
        m = arr >= pred.lo if pred.lo_inclusive else arr > pred.lo
        mask = m
    if pred.hi is not None:
        m = arr <= pred.hi if pred.hi_inclusive else arr < pred.hi
        mask = m if mask is True else (mask & m)
    return mask


def _match_mask(
    table: Table,
    where: Sequence[Predicate],
    qstats: QueryStats | None,
) -> np.ndarray | bool:
    """Conjunction of all predicates over one table."""
    mask: np.ndarray | bool = True
    for pred in where:
        m = _pred_mask(table, pred, qstats)
        if m is False:
            return False
        if m is True:
            continue
        mask = m if mask is True else (mask & m)
    return mask


# -- sources ------------------------------------------------------------------

Source = DatasetReader | Catalog | DriveDataset

#: One partition of a source: a catalog's manifest entry, or the source
#: itself when it is one partition (a reader or a dataset).
_Handle = PartitionInfo | DatasetReader | DriveDataset


def _handles(source: Source) -> tuple[_Handle, ...]:
    if isinstance(source, Catalog):
        return source.partitions
    if isinstance(source, (DatasetReader, DriveDataset)):
        return (source,)
    raise StoreError(
        f"unsupported query source {type(source).__name__}; "
        "expected DatasetReader, Catalog or DriveDataset"
    )


def _open(source: Source, handle: _Handle) -> DatasetReader | DriveDataset:
    return source.open(handle) if isinstance(handle, PartitionInfo) else handle


def partitions(
    source: Source, *, seeds: Sequence[int] | None = None
) -> Iterator[DatasetReader | DriveDataset]:
    """The source's partitions whose seed ``seeds`` selects (default: all),
    each a one-partition source: an open reader, or the dataset itself."""
    for handle in _handles(source):
        if seeds is None or handle.seed in seeds:
            yield _open(source, handle)


def _iter_tables(
    source: Source,
    table: str,
    where: Sequence[Predicate],
    seeds: Sequence[int] | None,
    qstats: QueryStats | None,
) -> Iterator[Table]:
    """Yield the tables that survive partition-level pruning."""
    seed_set = set(seeds) if seeds is not None else None
    for handle in _handles(source):
        if qstats is not None:
            qstats.partitions_total += 1
        if seed_set is not None and handle.seed not in seed_set:
            if qstats is not None:
                qstats.partitions_pruned += 1
            continue
        lite = (
            handle.table_stats(table) if isinstance(handle, PartitionInfo) else None
        )
        if lite is not None:
            # Manifest-level pruning: decide from copied footer stats
            # before the partition file is even opened.
            pruned = False
            for pred in where:
                entry = lite["columns"].get(pred.column)
                if entry is None:
                    continue  # unknown here; the open reader will raise
                if _stats_verdict(entry, pred) == "none":
                    pruned = True
                    break
            if pruned:
                if qstats is not None:
                    qstats.partitions_pruned += 1
                continue
        if qstats is not None:
            qstats.partitions_scanned += 1
        yield _open(source, handle).table(table)


_EMPTY_DTYPES = {"f8": np.float64, "i8": np.int64, "bool": np.uint8, "dict": object}


def _projected(
    table: Table,
    column: str,
    mask: np.ndarray | bool,
    qstats: QueryStats | None,
    members: bool = False,
) -> np.ndarray:
    """The matching values of ``column``; a dict column's members only when
    ``members`` is set, so no aggregate ever sums or sorts codes."""
    entry = table.column_entry(column)
    if entry["kind"] == "dict" and not members:
        raise StoreError(
            f"cannot aggregate dict column {column!r}; "
            "use group_total or a predicate instead"
        )
    if mask is False or table.count == 0:
        return np.empty(0, dtype=_EMPTY_DTYPES[entry["kind"]])
    if qstats is not None:
        qstats.columns_decoded += 1
        qstats.bytes_decoded += int(entry.get("nbytes", 0))
    arr = table.array(column)
    if entry["kind"] == "dict":
        # One member per distinct value, mapped through an object table.
        lookup = np.empty(len(entry.get("values", ())), dtype=object)
        lookup[:] = TABLE_SCHEMAS[table.name].column(column).members(
            entry.get("values", [])
        )
        return lookup[arr if mask is True else arr[mask]]
    if mask is True:
        return arr.copy()  # detach from the mmap
    return arr[mask]


# -- aggregation kernels -------------------------------------------------------


def count(
    source: Source,
    table: str,
    where: Sequence[Predicate] = (),
    *,
    seeds: Sequence[int] | None = None,
    qstats: QueryStats | None = None,
) -> int:
    """Rows matching the predicates (no column projection needed)."""
    n = 0
    for tr in _iter_tables(source, table, where, seeds, qstats):
        mask = _match_mask(tr, where, qstats)
        matched = (
            tr.count if mask is True else 0 if mask is False else int(mask.sum())
        )
        if qstats is not None:
            qstats.rows_total += tr.count
            qstats.rows_matched += matched
        n += matched
    return n


def _selections(
    source: Source,
    table: str,
    columns: Sequence[str],
    where: Sequence[Predicate],
    seeds: Sequence[int] | None,
    qstats: QueryStats | None,
    members: bool = False,
) -> Iterator[list[np.ndarray]]:
    """Each surviving partition's matching values of each of ``columns``
    (partitions with a match only), in partition order; the predicates are
    evaluated once per partition."""
    for tr in _iter_tables(source, table, where, seeds, qstats):
        mask = _match_mask(tr, where, qstats)
        values = [_projected(tr, column, mask, qstats, members) for column in columns]
        if qstats is not None:
            qstats.rows_total += tr.count
            qstats.rows_matched += int(values[0].size)
        if values[0].size:
            yield values


def _joined(parts: Iterable[np.ndarray]) -> np.ndarray:
    parts = list(parts)
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)


def select(
    source: Source,
    table: str,
    column: str,
    where: Sequence[Predicate] = (),
    *,
    seeds: Sequence[int] | None = None,
    qstats: QueryStats | None = None,
) -> np.ndarray:
    """Matching values of one column in row order, concatenated across
    partitions; a dict column's as an object array of its Python values
    (enum members, cell ids, strings), the one dict-column projection."""
    parts = _selections(source, table, (column,), where, seeds, qstats, True)
    return _joined(v for v, in parts)


def select_columns(
    source: Source,
    table: str,
    columns: Sequence[str],
    where: Sequence[Predicate] = (),
) -> list[np.ndarray]:
    """Matching values of several columns, each as :func:`select` gives it,
    with one predicate evaluation per partition however many columns."""
    parts = list(zip(*_selections(source, table, columns, where, None, None, True)))
    return [_joined(p) for p in parts] if parts else [_joined(()) for _ in columns]


def select_rows(
    source: Source,
    table: str,
    columns: Sequence[str],
    where: Sequence[Predicate] = (),
) -> list[tuple]:
    """The matching rows as tuples of the named columns' Python values
    (:func:`select_columns`', listed), in row order across partitions."""
    return list(zip(*(
        values.tolist() for values in select_columns(source, table, columns, where)
    )))


def group_rows(keys: np.ndarray) -> dict[Any, np.ndarray]:
    """Row positions of each distinct key of one partition: keys in the
    order of their first row, each group's positions ascending.

    The one "group rows by test id" step of the per-test figures; the
    caller keeps it inside one partition, because ids repeat across seeds.
    """
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    rows = np.argsort(inverse, kind="stable")
    groups = np.split(rows, np.cumsum(np.bincount(inverse))[:-1])
    return {uniq[k].item(): groups[k] for k in np.argsort(first, kind="stable")}


def fold(values: np.ndarray) -> float:
    """``0.0 + v0 + v1 + …`` left to right, as a running ``+=`` adds
    (``np.cumsum`` adds sequentially, unlike the pairwise ``np.sum``)."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def total(
    source: Source,
    table: str,
    column: str,
    where: Sequence[Predicate] = (),
    *,
    seeds: Sequence[int] | None = None,
    qstats: QueryStats | None = None,
) -> float:
    """Sum of matching values, accumulated partition by partition."""
    acc = 0.0
    for values, in _selections(source, table, (column,), where, seeds, qstats):
        acc += float(values.sum())
    return acc


def mean(
    source: Source,
    table: str,
    column: str,
    where: Sequence[Predicate] = (),
    *,
    seeds: Sequence[int] | None = None,
    qstats: QueryStats | None = None,
) -> float:
    """Mean of matching values (sum/count, never materialised as rows)."""
    acc = 0.0
    n = 0
    for values, in _selections(source, table, (column,), where, seeds, qstats):
        acc += float(values.sum())
        n += int(values.size)
    if n == 0:
        raise StoreError(
            f"mean over empty selection ({table}.{column})"
        )
    return acc / n


def percentile(
    source: Source,
    table: str,
    column: str,
    q: float | Sequence[float],
    where: Sequence[Predicate] = (),
    *,
    seeds: Sequence[int] | None = None,
    qstats: QueryStats | None = None,
) -> float | np.ndarray:
    """Quantile(s) of the matching values (linear interpolation)."""
    values = _joined(v for v, in _selections(source, table, (column,), where, seeds, qstats))
    if values.size == 0:
        raise StoreError(
            f"percentile over empty selection ({table}.{column})"
        )
    result = np.quantile(values.astype(np.float64, copy=False), q)
    if np.ndim(result) == 0:
        return float(result)
    return result


def cdf(
    source: Source,
    table: str,
    column: str,
    where: Sequence[Predicate] = (),
    *,
    seeds: Sequence[int] | None = None,
    qstats: QueryStats | None = None,
) -> EmpiricalCDF:
    """Empirical CDF of the matching values — plugs into every figure."""
    return EmpiricalCDF.from_values(
        _joined(v for v, in _selections(source, table, (column,), where, seeds, qstats))
    )


def group_total(
    source: Source,
    table: str,
    key: str,
    column: str,
    where: Sequence[Predicate] = (),
    *,
    seeds: Sequence[int] | None = None,
    qstats: QueryStats | None = None,
) -> dict[str, float]:
    """Per-group sum of ``column`` grouped by the dict column ``key``.

    One pass over the codes with :func:`numpy.bincount`; groups that never
    match are absent from the result.
    """
    out: dict[str, float] = {}
    for tr in _iter_tables(source, table, where, seeds, qstats):
        entry = tr.column_entry(key)
        if entry["kind"] != "dict":
            raise StoreError(f"group key {key!r} is not a dict column")
        if tr.column_entry(column)["kind"] == "dict":
            raise StoreError(
                f"cannot sum dict column {column!r}; group by it instead"
            )
        mask = _match_mask(tr, where, qstats)
        if mask is False or tr.count == 0:
            if qstats is not None:
                qstats.rows_total += tr.count
            continue
        if qstats is not None:
            qstats.columns_decoded += 2
            qstats.bytes_decoded += int(entry.get("nbytes", 0)) + int(
                tr.column_entry(column).get("nbytes", 0)
            )
        codes = tr.array(key)
        values = tr.array(column).astype(np.float64, copy=False)
        if mask is not True:
            codes = codes[mask]
            values = values[mask]
        names = list(entry.get("values", ()))
        sums = np.bincount(codes, weights=values, minlength=len(names))
        if qstats is not None:
            qstats.rows_total += tr.count
            qstats.rows_matched += int(codes.size)
        for name, s in zip(names, sums.tolist()):
            out[name] = out.get(name, 0.0) + s
    return out
