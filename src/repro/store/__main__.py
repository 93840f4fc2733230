"""``python -m repro.store`` — ingest, inspect, and query dataset stores.

Examples::

    # Ingest saved datasets (row JSON-lines or columnar) into a catalog
    python -m repro.store ingest out/store out/seed41.jsonl.gz out/seed42.jsonl.gz

    # What does the catalog (or one .rcol file) hold?
    python -m repro.store inspect out/store

    # Median Verizon driving downlink throughput, pushdown-pruned
    python -m repro.store query out/store --table tput --column tput_mbps \\
        --where operator=VERIZON --where direction=downlink \\
        --where static=false --agg p50 --explain
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

from repro.errors import ReproError, StoreError
from repro.store.catalog import Catalog
from repro.store.columnar import TABLE_SCHEMAS
from repro.store.format import DatasetReader, is_store_file
from repro.store import query as store_query
from repro.store.query import Between, Eq, QueryStats

_WHERE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(<=|>=|<|>|=)\s*([^=<>].*)$")

_PERCENTILE_RE = re.compile(r"^p(\d{1,2}(?:\.\d+)?)$")


def _coerce(table: str, column: str, text: str):
    """Parse a predicate literal according to the column's kind."""
    schema = TABLE_SCHEMAS.get(table)
    if schema is None:
        raise StoreError(
            f"unknown table {table!r}; known: {sorted(TABLE_SCHEMAS)}"
        )
    kind = schema.column(column).kind
    if kind == "dict":
        return text
    if kind == "bool":
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise StoreError(f"boolean column {column!r} expects true/false, got {text!r}")
    try:
        return int(text) if kind == "i8" else float(text)
    except ValueError:
        raise StoreError(
            f"numeric column {column!r} expects a number, got {text!r}"
        ) from None


def _parse_where(table: str, clauses: list[str]):
    predicates = []
    for clause in clauses:
        match = _WHERE_RE.match(clause)
        if not match:
            raise StoreError(
                f"cannot parse --where {clause!r}; "
                "use column=value, column>=x, column<x, ..."
            )
        column, op, literal = match.groups()
        value = _coerce(table, column, literal.strip())
        if op == "=":
            predicates.append(Eq(column, value))
        elif op == ">=":
            predicates.append(Between(column, lo=value))
        elif op == ">":
            predicates.append(Between(column, lo=value, lo_inclusive=False))
        elif op == "<=":
            predicates.append(Between(column, hi=value))
        else:
            predicates.append(Between(column, hi=value, hi_inclusive=False))
    return tuple(predicates)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be a comma-separated list of integers, got {text!r}"
        ) from None


def _open_source(path: str):
    """A catalog directory or a single .rcol file, as the query source."""
    p = pathlib.Path(path)
    if p.is_dir():
        return Catalog(p)
    if p.is_file() and is_store_file(p):
        return DatasetReader(p)
    raise StoreError(f"{path} is neither a catalog directory nor a store file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Columnar campaign dataset store: ingest, inspect, query.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser(
        "ingest", help="ingest saved datasets into a catalog"
    )
    p_ingest.add_argument("catalog", help="catalog directory (created if missing)")
    p_ingest.add_argument(
        "datasets", nargs="+",
        help="dataset files to ingest (.jsonl.gz row format or .rcol columnar)",
    )
    p_ingest.add_argument(
        "--label", default=None,
        help="partition label appended to each seed's partition name",
    )

    p_inspect = sub.add_parser(
        "inspect", help="describe a catalog or one store file"
    )
    p_inspect.add_argument("source", help="catalog directory or .rcol file")

    p_query = sub.add_parser(
        "query", help="run one aggregation with predicate pushdown"
    )
    p_query.add_argument("source", help="catalog directory or .rcol file")
    p_query.add_argument(
        "--table", required=True, help=f"record family: {', '.join(TABLE_SCHEMAS)}"
    )
    p_query.add_argument(
        "--column", default=None,
        help="numeric column to aggregate (not needed for --agg count)",
    )
    p_query.add_argument(
        "--where", action="append", default=[], metavar="EXPR",
        help="predicate, e.g. operator=VERIZON or speed_mph>=60 (repeatable)",
    )
    p_query.add_argument(
        "--agg", default="count",
        help="count | sum | mean | p<NN> (percentile) | cdf (default: count)",
    )
    p_query.add_argument(
        "--seeds", type=_parse_seeds, default=None,
        help="restrict a catalog query to these seeds (comma-separated)",
    )
    p_query.add_argument(
        "--explain", action="store_true",
        help="print pushdown counters (partitions pruned, columns decoded, "
        "bytes decoded, per-predicate timings)",
    )
    p_query.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append a store.query span to a JSONL trace file "
        "(summarize with python -m repro.obs FILE)",
    )
    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    with Catalog(args.catalog) as catalog:
        for path in args.datasets:
            info = catalog.ingest_file(path, label=args.label)
            rows = sum(info.rows(t) for t in TABLE_SCHEMAS)
            print(
                f"ingested {path} -> {info.path} "
                f"(seed {info.seed}, {rows} rows, {info.nbytes} bytes)"
            )
    return 0


def _inspect_reader(reader: DatasetReader, indent: str = "") -> None:
    print(
        f"{indent}format {reader.format_version}  seed {reader.seed}  "
        f"scale {reader.scale}  route {reader.route_length_km:.1f} km  "
        f"{reader.nbytes()} bytes"
    )
    for table in reader.tables():
        print(f"{indent}  table {table.name:8s} rows {table.count}")
        for column in table.column_names:
            entry = table.column_entry(column)
            stats = entry.get("stats", {})
            desc = f"{entry['kind']}/{entry['codec']}"
            span = ""
            if stats.get("min") is not None:
                span = f"  [{stats['min']:g}, {stats['max']:g}]"
            if entry.get("values") is not None:
                span = f"  {{{len(entry['values'])} distinct}}"
            print(
                f"{indent}    {column:20s} {desc:10s} "
                f"{entry['nbytes']:>10d} B{span}"
            )


def _cmd_inspect(args: argparse.Namespace) -> int:
    source = _open_source(args.source)
    if isinstance(source, DatasetReader):
        with source:
            _inspect_reader(source)
        return 0
    with source as catalog:
        print(
            f"catalog {args.source}: {len(catalog.partitions)} partitions, "
            f"seeds {list(catalog.seeds)}"
        )
        for part in catalog.partitions:
            label = f" label={part.label}" if part.label else ""
            rows = sum(part.rows(t) for t in TABLE_SCHEMAS)
            print(
                f"  {part.path}  seed={part.seed}{label}  "
                f"{rows} rows  {part.nbytes} bytes  "
                f"format {catalog.open(part).format_version}"
            )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.obs.trace import get_tracer

    where = _parse_where(args.table, args.where)
    qstats = QueryStats()
    agg = args.agg.lower()
    needs_column = agg != "count"
    if needs_column and args.column is None:
        raise StoreError(f"--agg {args.agg} needs --column")
    tracer = get_tracer(args.trace)
    source = _open_source(args.source)
    with source, tracer.span(
        "store.query",
        table=args.table,
        column=args.column,
        agg=agg,
        predicates=len(where),
    ) as span:
        kwargs = dict(seeds=args.seeds, qstats=qstats)
        if agg == "count":
            result = store_query.count(source, args.table, where, **kwargs)
            print(result)
        elif agg == "sum":
            result = store_query.total(
                source, args.table, args.column, where, **kwargs
            )
            print(f"{result:.6g}")
        elif agg == "mean":
            result = store_query.mean(
                source, args.table, args.column, where, **kwargs
            )
            print(f"{result:.6g}")
        elif agg == "cdf":
            curve = store_query.cdf(
                source, args.table, args.column, where, **kwargs
            )
            xs, ys = curve.series(points=11)
            print(f"n={curve.n} mean={curve.mean:.6g} median={curve.median:.6g}")
            for x, y in zip(xs, ys):
                print(f"  F({x:.6g}) = {y:.3f}")
        else:
            match = _PERCENTILE_RE.match(agg)
            if not match:
                raise StoreError(
                    f"unknown aggregation {args.agg!r}; "
                    "use count, sum, mean, p<NN>, or cdf"
                )
            q = float(match.group(1)) / 100.0
            result = store_query.percentile(
                source, args.table, args.column, q, where, **kwargs
            )
            print(f"{result:.6g}")
        span.set(
            partitions_scanned=qstats.partitions_scanned,
            partitions_pruned=qstats.partitions_pruned,
            bytes_decoded=qstats.bytes_decoded,
            rows_matched=qstats.rows_matched,
        )
    if args.explain:
        print(
            f"pushdown: {qstats.partitions_scanned} scanned / "
            f"{qstats.partitions_pruned} pruned of "
            f"{qstats.partitions_total} partitions; "
            f"{qstats.columns_decoded} columns decoded "
            f"({qstats.bytes_decoded} bytes); "
            f"{qstats.predicates_short_circuited} predicates answered by stats; "
            f"{qstats.rows_matched}/{qstats.rows_total} rows matched",
            file=sys.stderr,
        )
        for column, seconds in sorted(qstats.predicate_s.items()):
            print(f"  predicate {column}: {seconds * 1000.0:.3f} ms",
                  file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        return _cmd_query(args)
    except ReproError as exc:
        print(f"store command failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into e.g. ``head``; exiting quietly is correct.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
