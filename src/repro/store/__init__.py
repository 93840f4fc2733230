"""repro.store — columnar campaign dataset store + predicate-pushdown queries.

Every figure in the paper is an aggregate over a filtered slice of the
drive database; at sweep scale that slice is re-filtered per seed, per
statistic, from Python object lists.  This subsystem moves the hot path
onto a **columnar store**, the way measurement platforms serve cellular
records at scale (cf. cniCloud's queryable measurement warehouse):

1. **encodings** (:mod:`repro.store.columnar`) — records shred into typed
   columns: packed f8/i8 numerics, dictionary-encoded enums, run-length
   compression for slowly-changing columns, with min/max/null stats per
   column;
2. **format** (:mod:`repro.store.format`) — one atomic, byte-stable
   ``.rcol`` file per dataset, described by a binary column directory,
   schema versioned; exact value round-trip with the row path;
3. **query engine** (:mod:`repro.store.query`) — projection, predicate
   pushdown against column stats, and aggregation kernels (count, sum,
   mean, percentiles, CDFs, grouped sums) feeding the analysis layer
   without ever materialising row objects;
4. **catalog** (:mod:`repro.store.catalog`) — per-seed partitions behind a
   manifest whose copied stats prune whole files before any byte is read.

Quickstart::

    from repro.store import Catalog, Eq, cdf, query

    with Catalog("out/store") as cat:
        dl = query.cdf(
            cat, "tput", "tput_mbps",
            where=(Eq("operator", Operator.VERIZON),
                   Eq("direction", "downlink"), Eq("static", False)),
        )
        print(dl.median)

Or from the command line::

    python -m repro.store ingest out/store out/seed41.jsonl.gz
    python -m repro.store query out/store --table tput --column tput_mbps \\
        --where operator=VERIZON --where static=false --agg p50
"""

from __future__ import annotations

from repro.store import query
from repro.store.catalog import Catalog, PartitionInfo
from repro.store.columnar import TABLE_SCHEMAS
from repro.store.format import (
    STORE_FORMAT_VERSION,
    STORE_SUFFIX,
    DatasetReader,
    is_store_file,
    read_dataset,
    write_dataset,
)
from repro.store.query import (
    Between,
    Eq,
    In,
    QueryStats,
    cdf,
    count,
    group_total,
    mean,
    percentile,
    select,
    total,
    where_speed_bin,
)

__all__ = [
    "Between",
    "Catalog",
    "DatasetReader",
    "Eq",
    "In",
    "PartitionInfo",
    "QueryStats",
    "STORE_FORMAT_VERSION",
    "STORE_SUFFIX",
    "TABLE_SCHEMAS",
    "cdf",
    "count",
    "group_total",
    "is_store_file",
    "mean",
    "percentile",
    "query",
    "read_dataset",
    "select",
    "total",
    "where_speed_bin",
    "write_dataset",
]
