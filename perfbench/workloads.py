"""The benchmark workloads: a warm sweep and store queries.

Every workload drives the public API of :mod:`repro` the way a user does and
follows one protocol, which ``run.py`` times:

* ``make_inputs(seed)`` — untimed: derives every input from the benchmark
  seed (the program only ever sees the generated inputs);
* ``Workload(inputs, trace_path)`` — untimed;
* ``setup(workdir)`` — timed as ``setup_s``, ``SETUP_REPEATS`` times in a
  run, each in a fresh directory: (re)builds the state the operations need
  and finishes lazy set-up (first imports, opened readers) so it is not
  charged to ``op``;
* ``op(i)`` — timed: one user-visible operation, one latency sample;
  returns ``(key, out)`` where ``key`` names the operation's input (inputs
  repeat across a run, so the harness can keep each input's fastest run);
* ``check(key, out)`` — untimed: validates one output, returns
  ``(ok, counts)`` where ``counts`` holds the op's per-layer work counts;
* ``verify()`` — untimed, after the measured loop: the costlier end-to-end
  correctness checks (byte comparisons, row-path references).

The workloads take their geometry from the repository's own timing suite,
:mod:`repro.bench`, and CI's smoke jobs rather than choosing one; both use
the full Los Angeles → Boston route:

* ``sweep_warm``: repro.bench's ``sweep.warm_cache`` — two seeds at scale
  0.004, no app or static tests, 600 km planner windows (10 windows plus
  the trip-wide passive shard per seed), 200 bootstrap resamples;
* ``store_queries``: repro.bench's ``store.query`` dataset —
  :func:`repro.generate_dataset` at scale 0.01 without app or static
  tests, planned by the engine's adaptive default — so its partitions hold
  more test rows than the sweep's campaigns.

What differs from repro.bench is that every input comes from the benchmark
seed and every output is checked.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
import pathlib

import numpy as np

from repro.campaign.persistence import save_dataset
from repro.campaign.runner import generate_dataset
from repro.engine import PlannerParams
from repro.geo.regions import RegionType
from repro.geo.route import build_cross_country_route
from repro.obs.trace import get_tracer
from repro.radio.operators import Operator
from repro.store import Between, Catalog, Eq, QueryStats, query, where_speed_bin
from repro.store.columnar import TABLE_ATTRS, TABLE_SCHEMAS
from repro.sweep import SweepConfig, run_sweep
from repro.sweep.stats import (
    evaluate_statistics,
    evaluate_statistics_from_store,
    store_supported_statistics,
)
from repro.units import SPEED_BIN_LABELS

SCALE = 0.004
PLANNER = PlannerParams(window_km=600.0)
STORE_SCALE = 0.01

#: Per-op work counts every workload reports (zero where a layer is unused).
COUNTS = (
    "cache_hits",
    "cache_misses",
    "query_partitions_scanned",
    "query_partitions_pruned",
    "query_bytes_decoded",
    "query_rows_matched",
)


def draw_seeds(rng: np.random.Generator, n: int) -> list[int]:
    """``n`` distinct campaign seeds."""
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < n:
        seed = int(rng.integers(1, 2**31 - 1))
        if seed not in seen:
            seen.add(seed)
            out.append(seed)
    return out


def digest(dataset, workdir: pathlib.Path) -> str:
    """SHA-256 of the dataset's byte-reproducible saved form."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "digest.jsonl.gz"
    save_dataset(dataset, path)
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        path.unlink()


def _summaries(result) -> tuple:
    report = result.report
    return (
        [s.to_obj() for s in report.statistics],
        list(report.skipped_statistics),
    )


class SweepWarm:
    """Each op repeats one two-seed replication sweep whose shards are all
    in the shard cache: replay, merge, re-ingest into the store catalog, and
    the bootstrapped paper statistics."""

    N_SEEDS = 2
    #: Set-up is the cold sweep that fills the cache, about ten seconds.
    SETUP_REPEATS = 2

    @classmethod
    def make_inputs(cls, seed: int) -> tuple[int, ...]:
        return tuple(draw_seeds(np.random.default_rng(seed), cls.N_SEEDS))

    def __init__(self, seeds, trace_path: str | None):
        self.seeds = seeds
        self.trace_path = trace_path
        self.first = None

    def setup(self, workdir: pathlib.Path) -> None:
        self.workdir = workdir
        self.route = build_cross_country_route()
        self.config = SweepConfig(
            seeds=self.seeds,
            scale=SCALE,
            include_apps=False,
            include_static=False,
            executor="serial",
            planner=PLANNER,
            cache_dir=str(self.workdir / "shard-cache"),
            store_dir=str(self.workdir / "store"),
            bootstrap_samples=200,
        )
        self.cold = run_sweep(self.config, self.route)
        self.n_shards = sum(len(r.shards) for r in self.cold.engine_reports.values())
        self.expected = _summaries(self.cold)

    def op(self, i: int):
        config = dataclasses.replace(self.config, trace_path=self.trace_path)
        return self.seeds, run_sweep(config, self.route)

    def check(self, seeds, result):
        stats = result.cache.stats
        ok = (
            stats.hits == self.n_shards
            and stats.misses == 0
            and stats.stores == 0
            and _summaries(result) == self.expected
        )
        if self.first is None:
            self.first = result.datasets
        return ok, {"cache_hits": stats.hits, "cache_misses": stats.misses}

    def verify(self) -> bool:
        # The first op's replayed datasets must be byte-identical to the
        # ones the last set-up computed.
        return all(
            digest(self.first[seed], self.workdir)
            == digest(self.cold.datasets[seed], self.workdir)
            for seed in self.seeds
        )

    def close(self) -> None:
        pass


# -- store queries ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class QuerySpec:
    """One dashboard query against the catalog."""

    kind: str  # percentile | mean | count | group_total | statistics
    seeds: tuple[int, ...]
    table: str = ""
    column: str = ""
    where: tuple = ()
    key: str = ""


QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)
KINDS = ("percentile", "mean", "count", "group_total", "statistics")
DIRECTIONS = ("downlink", "uplink")


def _random_spec(
    rng: np.random.Generator, seeds: list[int], kind: str, size: int
) -> QuerySpec:
    """A ``kind`` query over ``size`` of the catalog's seeds, with random
    operator, direction, speed bin, region or threshold."""
    operators = list(Operator)
    op = operators[rng.integers(len(operators))]
    if kind == "statistics":
        # Single-seed refresh: the row-path registry is the reference.
        return QuerySpec(kind, (seeds[rng.integers(len(seeds))],))
    subset = tuple(sorted(int(s) for s in rng.choice(seeds, size, replace=False)))
    if kind == "percentile":
        where = (
            Eq("operator", op),
            Eq("direction", DIRECTIONS[rng.integers(2)]),
            Eq("static", False),
        )
        if rng.random() < 0.5:
            label = SPEED_BIN_LABELS[rng.integers(len(SPEED_BIN_LABELS))]
            where += (where_speed_bin(label),)
        return QuerySpec(kind, subset, "tput", "tput_mbps", where)
    if kind == "mean":
        regions = list(RegionType)
        where = (
            Eq("operator", op),
            Eq("static", False),
            Eq("region", regions[rng.integers(len(regions))]),
        )
        return QuerySpec(kind, subset, "rtt", "rtt_ms", where)
    if kind == "count":
        threshold = float((1, 5, 10, 25, 50, 100)[rng.integers(6)])
        where = (
            Eq("direction", DIRECTIONS[rng.integers(2)]),
            Between("tput_mbps", hi=threshold, hi_inclusive=False),
        )
        return QuerySpec(kind, subset, "tput", where=where)
    return QuerySpec(
        kind, subset, "passive", "length_m", (Eq("operator", op),), key="tech"
    )


def _run_spec(catalog: Catalog, spec: QuerySpec, qstats: QueryStats):
    if spec.kind == "statistics":
        return evaluate_statistics_from_store(catalog, seeds=spec.seeds)
    if spec.kind == "percentile":
        values = query.percentile(
            catalog, spec.table, spec.column, QUANTILES, spec.where,
            seeds=spec.seeds, qstats=qstats,
        )
        return tuple(float(v) for v in values)
    if spec.kind == "mean":
        return query.mean(
            catalog, spec.table, spec.column, spec.where,
            seeds=spec.seeds, qstats=qstats,
        )
    if spec.kind == "count":
        return query.count(
            catalog, spec.table, spec.where, seeds=spec.seeds, qstats=qstats
        )
    return query.group_total(
        catalog, spec.table, spec.key, spec.column, spec.where,
        seeds=spec.seeds, qstats=qstats,
    )


def _row_matches(getters, pred, record) -> bool:
    value = getters[pred.column](record)
    if isinstance(pred, Eq):
        return value == pred.value
    if value != value:  # NaN never matches a range
        return False
    if pred.lo is not None and not (
        value >= pred.lo if pred.lo_inclusive else value > pred.lo
    ):
        return False
    if pred.hi is not None and not (
        value <= pred.hi if pred.hi_inclusive else value < pred.hi
    ):
        return False
    return True


def _row_reference(datasets: dict, spec: QuerySpec):
    """The answer computed from the in-memory row records, without the store;
    ``None`` for an empty selection."""
    if spec.kind == "statistics":
        (seed,) = spec.seeds
        return evaluate_statistics(datasets[seed], store_supported_statistics())
    getters = TABLE_SCHEMAS[spec.table].getters
    per_seed = []
    for seed in spec.seeds:
        rows = [
            r for r in getattr(datasets[seed], TABLE_ATTRS[spec.table])
            if all(_row_matches(getters, p, r) for p in spec.where)
        ]
        per_seed.append(rows)
    n = sum(len(rows) for rows in per_seed)
    if n == 0:
        return None
    if spec.kind == "count":
        return n
    value_of = getters[spec.column]
    if spec.kind == "percentile":
        values = np.array(
            [value_of(r) for rows in per_seed for r in rows], dtype=np.float64
        )
        return tuple(float(v) for v in np.quantile(values, QUANTILES))
    if spec.kind == "mean":
        total = sum(
            float(np.array([value_of(r) for r in rows], dtype=np.float64).sum())
            for rows in per_seed if rows
        )
        return total / n
    key_of = getters[spec.key]
    sums: dict[str, float] = {}
    for rows in per_seed:
        for r in rows:
            key = key_of(r)
            name = key.name if isinstance(key, enum.Enum) else str(key)
            sums[name] = sums.get(name, 0.0) + value_of(r)
    return sums


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def same_answer(got, want) -> bool:
    """Answers agree: exact counts, floats to 1e-9, absent groups as 0."""
    if isinstance(want, dict):
        return all(
            _close(float(got.get(k, 0.0)), float(want.get(k, 0.0)))
            for k in set(got) | set(want)
        )
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_close, got, want))
    if isinstance(want, int):
        return got == want
    return _close(float(got), float(want))


class StoreQueries:
    """Each op answers one dashboard query — a five-number throughput
    summary, a mean RTT, a threshold count, coverage per technology, or a
    refresh of every store-evaluated paper statistic — over a catalog of
    four campaign partitions.  The ad hoc queries are restricted to a random
    subset of seeds so partition pruning varies from query to query; a
    statistics refresh covers one seed, whose row-path registry gives the
    reference answer."""

    N_PARTITIONS = 4
    #: 24 queries of each kind; the ad hoc kinds spread evenly over
    #: seed-subset sizes, so every seed yields the same mix of query shapes.
    #: The headline is a median over queries, and more queries keep it from
    #: moving with the seed's random predicates.
    N_SPECS = 24 * len(KINDS)
    #: Set-up ingests the four partitions and opens their readers.
    SETUP_REPEATS = 5

    @classmethod
    def make_inputs(cls, seed: int):
        rng = np.random.default_rng(seed)
        seeds = draw_seeds(rng, cls.N_PARTITIONS)
        datasets = {
            s: generate_dataset(
                seed=s, scale=STORE_SCALE, include_apps=False, include_static=False
            )
            for s in seeds
        }
        specs, references = [], []
        for n in range(cls.N_SPECS):
            kind = KINDS[n % len(KINDS)]
            size = 1 + (n // len(KINDS)) % len(seeds)
            reference = None
            while reference is None:  # every query selects at least one row
                spec = _random_spec(rng, seeds, kind, size)
                reference = _row_reference(datasets, spec)
            specs.append(spec)
            references.append(reference)
        return datasets, specs, references, int(rng.integers(2**31))

    def __init__(self, inputs, trace_path: str | None):
        self.datasets, self.specs, self.references, order_seed = inputs
        self.rng = np.random.default_rng(order_seed)
        self.tracer = get_tracer(trace_path)
        self.answers: dict[int, object] = {}
        self.order: list[int] = []
        self.catalog = None

    def setup(self, workdir: pathlib.Path) -> None:
        self.close()
        self.catalog = Catalog(workdir / "store")
        for seed in sorted(self.datasets):
            self.catalog.ingest(self.datasets[seed])
        for spec in self.specs:  # open every partition reader once
            _run_spec(self.catalog, spec, QueryStats())

    def op(self, i: int):
        if not self.order:  # each pass issues every query once
            self.order = [int(k) for k in self.rng.permutation(len(self.specs))]
        k = self.order.pop()
        qstats = QueryStats()
        with self.tracer.span("store.query"):
            answer = _run_spec(self.catalog, self.specs[k], qstats)
        return k, (answer, qstats)

    def check(self, k: int, out):
        answer, qstats = out
        first = self.answers.setdefault(k, answer)
        counts = {
            "query_partitions_scanned": qstats.partitions_scanned,
            "query_partitions_pruned": qstats.partitions_pruned,
            "query_bytes_decoded": qstats.bytes_decoded,
            "query_rows_matched": qstats.rows_matched,
        }
        return same_answer(answer, first), counts

    def verify(self) -> bool:
        return all(
            same_answer(answer, self.references[k])
            for k, answer in self.answers.items()
        )

    def close(self) -> None:
        if self.catalog is not None:
            self.catalog.close()


WORKLOADS = {
    "sweep_warm": SweepWarm,
    "store_queries": StoreQueries,
}
