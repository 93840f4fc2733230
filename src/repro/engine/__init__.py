"""repro.engine — sharded, fault-tolerant campaign execution.

A :class:`~repro.campaign.runner.DriveCampaign` drives one route window one
tick at a time, active probes and passive handover-loggers alike; by
default its window is the whole 5711 km route.  This package runs the
campaign as a set of independent **route shards**, one per window:

1. the :mod:`planner <repro.engine.planner>` splits the route into canonical
   distance windows — a pure function of the campaign config, never of the
   executor topology;
2. :mod:`workers <repro.engine.worker>` execute each window with a
   deterministic per-shard RNG substream (``RngFactory(seed).shard(i)``), in
   parallel processes or serially in-process;
3. the :mod:`merger <repro.engine.merge>` stitches shard outputs back into
   one :class:`~repro.campaign.dataset.DriveDataset` in canonical order.

The same root seed therefore yields a **bit-identical dataset for any shard
batching or worker count** — including the serial path used by
:func:`repro.generate_dataset`.  Robustness rides on top: per-shard
checkpoints (entries of a :class:`~repro.engine.checkpoint.ShardCache`) let
an interrupted run resume from completed shards, failed workers are retried
with bounded budgets (hard worker deaths rebuild the process pool), and
every run emits an :class:`~repro.engine.metrics.EngineReport`.

:func:`run_campaigns` is the one orchestration pipeline — plan, replay,
execute, merge, report — written over a *sequence* of campaign configs:
:func:`run_engine` is its one-config case, and multi-run callers such as
:mod:`repro.sweep` hand it one config per seed, so every seed's batches
interleave through one :func:`execute_jobs` call (and one process pool).
Its one store, the :class:`~repro.engine.checkpoint.ShardCache` passed as
``shard_store``, is replayed before computing a shard; workers write each
fresh entry, and the pipeline only records it as the result lands.

Quickstart::

    from repro.engine import generate_dataset_parallel
    dataset = generate_dataset_parallel(seed=42, scale=0.2, workers=4)
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Sequence

from repro.campaign.dataset import DriveDataset
from repro.campaign.runner import CampaignConfig, CampaignWindow
from repro.campaign.validation import validate_dataset
from repro.engine.checkpoint import ShardCache, config_fingerprint
from repro.engine.merge import merge_shard_results
from repro.engine.metrics import EngineReport, ShardMetrics
from repro.engine.planner import PlannerParams, ShardPlan, plan_campaign
from repro.engine.worker import (
    FaultSpec,
    ShardResult,
    ShardTask,
    execute_batch,
    with_attempt,
)
from repro.errors import EngineError
from repro.geo.route import Route, build_cross_country_route
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.trace import get_tracer

if TYPE_CHECKING:
    from repro.store.catalog import Catalog

__all__ = [
    "EngineConfig",
    "EngineReport",
    "FaultSpec",
    "PlannerParams",
    "ShardPlan",
    "CampaignRun",
    "ShardCache",
    "build_task_batches",
    "execute_jobs",
    "fold_shard_metrics",
    "generate_dataset_parallel",
    "plan_campaign",
    "process_pool_usable",
    "run_campaigns",
    "run_engine",
]


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of one engine run."""

    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    #: Worker processes; ``None`` uses the machine's CPU count.
    workers: int | None = None
    #: Number of execution batches the windows are grouped into; ``None``
    #: submits every window as its own batch.  Pure scheduling knob — the
    #: merged dataset is identical for every value.
    shards: int | None = None
    #: ``"process"`` (ProcessPoolExecutor) or ``"serial"`` (in-process).
    executor: str = "process"
    planner: PlannerParams = field(default_factory=PlannerParams)
    #: Checkpoint directory of :func:`run_engine` — a :class:`ShardCache`
    #: that workers write each shard into as it finishes and that reruns
    #: replay; ``None`` disables.  :func:`run_campaigns` ignores it.
    checkpoint_dir: str | None = None
    #: Retries per shard batch before the run is abandoned.
    max_retries: int = 2
    #: Where to write the JSON :class:`EngineReport`; ``None`` skips it.
    report_path: str | None = None
    #: Run :func:`validate_dataset` on the merged result and raise on issues.
    validate: bool = False
    #: Columnar store catalog directory (:class:`repro.store.Catalog`); the
    #: merged dataset is ingested as a per-seed partition.  ``None`` skips.
    store_dir: str | None = None
    #: JSONL trace file (see :mod:`repro.obs`): phase spans, per-shard
    #: worker spans, and a merged metrics snapshot are appended there, and
    #: ``EngineReport.metrics`` is populated.  ``None`` (the default)
    #: disables tracing entirely — every instrumentation point degrades to
    #: the no-op tracer.  Deliberately excluded from the checkpoint/cache
    #: fingerprint: tracing may never change what gets computed.
    trace_path: str | None = None
    #: Testing hook: per-window injected faults (see :class:`FaultSpec`).
    inject_faults: Mapping[int, FaultSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.executor not in ("process", "serial"):
            raise EngineError(f"unknown executor {self.executor!r}")
        if self.workers is not None and self.workers < 1:
            raise EngineError("workers must be >= 1")
        if self.max_retries < 0:
            raise EngineError("max_retries must be >= 0")


# -- task construction -------------------------------------------------------


def build_task_batches(
    config: EngineConfig,
    plan: ShardPlan,
    pending_windows: list[CampaignWindow],
    fingerprint: str,
    route: Route | None,
    trace_parent: str | None = None,
    cache_dir: str | None = None,
) -> list[tuple[ShardTask, ...]]:
    """Group the pending windows into submission batches.

    ``trace_parent`` is the orchestrator's execute-span id; it rides on
    every task so worker-emitted shard spans attach under it.  Each task's
    worker writes its shard into the shard cache at ``cache_dir``.
    """
    pending = replace(plan, windows=tuple(pending_windows))
    return [
        tuple(
            ShardTask(
                config=config.campaign,
                window=window,
                cache_dir=cache_dir,
                fingerprint=fingerprint,
                fault=config.inject_faults.get(window.index),
                parent_pid=os.getpid(),
                route=route,
                trace_path=config.trace_path,
                trace_parent=trace_parent,
            )
            for window in group
        )
        for group in pending.batches(config.shards)
    ]


# -- executors ---------------------------------------------------------------

#: Memoized result of the process-pool availability probe.  One probe pool
#: per *process*, not per engine run — a 50-seed sweep must not spawn 50
#: throwaway pools just to learn, 50 times, what the platform supports.
_POOL_PROBE_OK: bool | None = None


def process_pool_usable() -> bool:
    """Whether this platform can actually run ProcessPoolExecutor tasks.

    Runs one trivial task through a single-worker pool so the probe
    exercises real worker spawning — with lazily-spawning start methods,
    merely constructing the pool can succeed on platforms where running
    tasks would fail.  The verdict is memoized at module level.
    """
    global _POOL_PROBE_OK
    if _POOL_PROBE_OK is None:
        try:
            with ProcessPoolExecutor(max_workers=1) as probe:
                probe.submit(int).result()
            _POOL_PROBE_OK = True
        except (OSError, ValueError, NotImplementedError, BrokenProcessPool):
            _POOL_PROBE_OK = False  # sandboxed platforms without process pools
    return _POOL_PROBE_OK


@dataclass
class ExecutionStats:
    """What :func:`execute_jobs` observed while draining its job list."""

    #: Executor actually used ("serial" after the platform fallback).
    executor: str
    workers: int
    pool_rebuilds: int = 0


#: Callback invoked once per completed batch: ``(tag, outcomes, retries)``.
ResultCallback = Callable[[Hashable, list[ShardResult], int], None]


def _execute_serial(
    jobs: Sequence[tuple[Hashable, tuple[ShardTask, ...]]],
    max_retries: int,
    on_result: ResultCallback,
) -> None:
    for tag, batch in jobs:
        attempt = 0
        while True:
            try:
                outcomes = execute_batch(with_attempt(batch, attempt))
            except Exception as exc:
                attempt += 1
                if attempt > max_retries:
                    raise EngineError(
                        f"shard batch {[t.index for t in batch]} failed after "
                        f"{attempt} attempts: {exc}",
                        shard_index=batch[0].index,
                    ) from exc
                continue
            on_result(tag, outcomes, attempt)
            break


def _execute_process(
    jobs: Sequence[tuple[Hashable, tuple[ShardTask, ...]]],
    max_retries: int,
    on_result: ResultCallback,
    workers: int,
) -> int:
    """Drain ``jobs`` through a private process pool of ``workers`` processes.

    A hard worker death breaks the whole pool; it is then discarded and a
    fresh one started.  Returns the number of such rebuilds.
    """
    outstanding: dict[Hashable, tuple[ShardTask, ...]] = dict(jobs)
    if len(outstanding) != len(jobs):
        raise EngineError("job tags must be unique")
    attempts: dict[Hashable, int] = {tag: 0 for tag in outstanding}
    rebuilds = 0

    def record(tag: Hashable, outcomes: list[ShardResult]) -> None:
        on_result(tag, outcomes, attempts[tag])
        del outstanding[tag]

    def charge(tag: Hashable, exc: BaseException) -> None:
        attempts[tag] += 1
        if attempts[tag] > max_retries:
            batch = outstanding[tag]
            raise EngineError(
                f"shard batch {[t.index for t in batch]} failed after "
                f"{attempts[tag]} attempts: {exc}",
                shard_index=batch[0].index,
            ) from exc

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while outstanding:
            futures = {
                pool.submit(execute_batch, with_attempt(batch, attempts[tag])): tag
                for tag, batch in outstanding.items()
            }
            pool_broken = False
            charged: set[Hashable] = set()
            not_done = set(futures)
            while not_done and not pool_broken:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    tag = futures[future]
                    try:
                        record(tag, future.result())
                    except BrokenProcessPool as exc:
                        # The pool is unusable: salvage nothing more from
                        # this round, charge the still-unfinished batches
                        # one attempt each, and rebuild the pool.
                        pool_broken = True
                        broken_exc = exc
                    except Exception as exc:
                        # Soft shard failure — the worker survived, so the
                        # pool is still usable: spend one retry and leave the
                        # batch outstanding for the next submission round.
                        charge(tag, exc)
                        charged.add(tag)
            if pool_broken:
                # Futures that finished before the crash may still hold
                # usable results — keep them, retry only the rest.
                for future, tag in futures.items():
                    if tag not in outstanding or tag in charged or not future.done():
                        continue
                    try:
                        record(tag, future.result())
                    except BaseException as exc:
                        # Charge the batch with its real failure, not the
                        # generic pool error, so the root cause surfaces if
                        # the retry budget runs out.
                        charge(tag, exc)
                        charged.add(tag)
                for tag in list(outstanding):
                    if tag not in charged:
                        charge(tag, broken_exc)
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=workers)
                rebuilds += 1
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return rebuilds


def execute_jobs(
    jobs: Sequence[tuple[Hashable, tuple[ShardTask, ...]]],
    on_result: ResultCallback,
    *,
    executor: str = "process",
    workers: int | None = None,
    max_retries: int = 2,
) -> ExecutionStats:
    """Run tagged shard batches to completion with retries and pool recovery.

    The seed-agnostic execution core of :func:`run_campaigns`: each job is
    an opaque ``tag`` plus a batch of :class:`ShardTask`;
    ``on_result(tag, outcomes, retries)`` fires as each batch completes.
    The process executor runs every job through one pool that lives for
    this call only.  Raises :class:`EngineError` once any batch exhausts
    ``max_retries``.
    """
    n_workers = workers or os.cpu_count() or 1
    if executor == "process" and jobs and not process_pool_usable():
        executor = "serial"
    stats = ExecutionStats(
        executor=executor, workers=n_workers if executor == "process" else 1
    )
    if executor == "serial" or not jobs:
        _execute_serial(jobs, max_retries, on_result)
        return stats
    if n_workers < 1:
        raise EngineError("workers must be >= 1")
    stats.pool_rebuilds = _execute_process(jobs, max_retries, on_result, n_workers)
    return stats


# -- the orchestration pipeline ----------------------------------------------


@dataclass
class CampaignRun:
    """One campaign's state through :func:`run_campaigns`, then its outcome."""

    config: EngineConfig
    plan: ShardPlan
    fingerprint: str
    #: Every shard result by index — replayed and computed alike.
    results: dict[int, ShardResult] = field(default_factory=dict)
    #: Retries spent on each computed shard (replayed shards cost none).
    retries: dict[int, int] = field(default_factory=dict)
    batches: list[tuple[ShardTask, ...]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    dataset: DriveDataset | None = None
    report: EngineReport | None = None


def run_campaigns(
    configs: Sequence[EngineConfig],
    route: Route | None = None,
    *,
    shard_store: ShardCache | None = None,
    phase: str = "engine",
) -> tuple[list[CampaignRun], ExecutionStats]:
    """Plan, replay, execute, merge and report a sequence of campaigns.

    The one orchestration pipeline: :func:`run_engine` is its one-config
    case, and :func:`repro.sweep.run_sweep` runs one config per seed.

    1. ``<phase>.plan`` (per config): plan the windows, fingerprint them,
       and replay every shard ``shard_store`` can serve;
    2. ``<phase>.execute``: interleave every config's pending batches
       round-robin through one :func:`execute_jobs` call — no campaign's
       tail straggles behind another's entire run.  Workers write each
       fresh shard into ``shard_store``; the pipeline records it there
       (recency, counters, size bound) as the result lands;
    3. ``<phase>.merge`` / ``.validate`` / ``.ingest`` (per config): merge
       the shards, optionally validate, optionally ingest into
       ``config.store_dir`` (sourced by the fingerprint, so a partition an
       earlier run of the same computation wrote is kept unless its bytes
       changed; the span's ``written`` says which), and build the config's
       :class:`EngineReport`.

    Execution topology (executor, workers, retry budget) and the trace file
    come from the first config.  Run-level report fields — ``total_wall_s``,
    ``pool_rebuilds``, ``metrics`` — are left to the caller.
    """
    first = configs[0]
    tracer = get_tracer(first.trace_path)
    campaign_route = route or build_cross_country_route()
    runs: list[CampaignRun] = []
    for config in configs:
        seed = config.campaign.seed
        with tracer.span(f"{phase}.plan", seed=seed) as plan_span:
            plan = plan_campaign(config.campaign, campaign_route, config.planner)
            run = CampaignRun(
                config, plan,
                config_fingerprint(config.campaign, plan, campaign_route),
            )
            indices = [w.index for w in plan.windows]
            if shard_store is not None:
                run.results = shard_store.load_many(run.fingerprint, seed, indices)
                run.cache_hits = len(run.results)
                run.cache_misses = len(indices) - run.cache_hits
            plan_span.set(shards=len(indices), cache_hits=run.cache_hits)
        runs.append(run)

    def on_result(tag: Hashable, outcomes: list[ShardResult], attempt: int) -> None:
        run = runs[tag[0]]
        for outcome in outcomes:
            run.results[outcome.index] = outcome
            run.retries[outcome.index] = attempt
            if shard_store is not None:
                shard_store.record(
                    run.fingerprint, run.config.campaign.seed, outcome.index
                )

    cache_dir = str(shard_store.directory) if shard_store is not None else None
    with tracer.span(f"{phase}.execute") as exec_span:
        for run in runs:
            run.batches = build_task_batches(
                run.config,
                run.plan,
                [w for w in run.plan.windows if w.index not in run.results],
                run.fingerprint,
                route,
                trace_parent=exec_span.span_id,
                cache_dir=cache_dir,
            )
        depth = max(len(run.batches) for run in runs)
        jobs = [
            ((k, position), run.batches[position])
            for position in range(depth)
            for k, run in enumerate(runs)
            if position < len(run.batches)
        ]
        exec_span.set(jobs=len(jobs))
        stats = execute_jobs(
            jobs,
            on_result,
            executor=first.executor,
            workers=first.workers,
            max_retries=first.max_retries,
        )

    # One catalog object per store directory for every config: its manifest
    # is parsed once, and each ingest encodes only its own manifest entry.
    catalogs: dict[str, Catalog] = {}
    try:
        for run in runs:
            config, plan, seed = run.config, run.plan, run.config.campaign.seed
            merge_started = time.perf_counter()
            with tracer.span(f"{phase}.merge", seed=seed) as merge_span:
                run.dataset = merge_shard_results(
                    config.campaign, plan, run.results, campaign_route.total_length_km
                )
                merge_s = time.perf_counter() - merge_started
                # Freeze the span to the report's merge_s: the trace and the
                # report must quote the *same* float.
                merge_span.dur_s = merge_s
            if config.validate:
                with tracer.span(f"{phase}.validate", seed=seed):
                    outcome = validate_dataset(run.dataset)
                    if not outcome.ok:
                        raise EngineError(
                            f"seed {seed} merged dataset failed validation: "
                            + "; ".join(str(issue) for issue in outcome.issues[:5])
                        )
            if config.store_dir is not None:
                with tracer.span(f"{phase}.ingest", seed=seed) as ingest_span:
                    catalog = catalogs.get(config.store_dir)
                    if catalog is None:
                        from repro.store.catalog import Catalog

                        catalog = catalogs[config.store_dir] = Catalog(
                            config.store_dir
                        )
                    held = catalog.partition(seed)
                    info = catalog.ingest(run.dataset, source=run.fingerprint)
                    ingest_span.set(written=info is not held)

            run.report = EngineReport(
                executor=stats.executor,
                workers=stats.workers,
                n_windows=plan.n_windows,
                n_batches=len(run.batches),
                merge_s=merge_s,
                validated=config.validate,
                cache_hits=run.cache_hits,
                cache_misses=run.cache_misses,
                shards=[
                    ShardMetrics(
                        index=index,
                        start_km=plan.windows[index].start_m / 1000.0,
                        end_km=plan.windows[index].end_m / 1000.0,
                        wall_s=result.wall_s,
                        records=result.records,
                        retries=run.retries.get(index, 0),
                        from_cache=result.from_cache,
                    )
                    for index, result in sorted(run.results.items())
                ],
            )
    finally:
        for catalog in catalogs.values():
            catalog.close()
    return runs, stats


def fold_shard_metrics(registry: MetricsRegistry, runs: Sequence[CampaignRun]) -> dict:
    """Merge a run-level registry with every shard's worker snapshot.

    Snapshots fold in run order, then shard index, so the merged section is
    identical for every executor topology.  Replayed shards fold too: their
    sidecars carry the snapshot recorded when the shard was computed, and a
    run's results hold each shard exactly once, so a resumed or cache-warm
    run reports the same shard-level totals as a cold one.
    """
    return merge_snapshots(
        [registry.snapshot()]
        + [
            result.metrics
            for run in runs
            for _, result in sorted(run.results.items())
            if result.metrics is not None
        ]
    )


def run_engine(
    config: EngineConfig,
    route: Route | None = None,
) -> tuple[DriveDataset, EngineReport]:
    """Execute a campaign under the sharded engine.

    Returns the merged dataset and the execution report.  Raises
    :class:`EngineError` when a shard exhausts its retry budget or (with
    ``config.validate``) the merged dataset violates an invariant.
    ``config.checkpoint_dir`` is the run's :class:`ShardCache`: matching
    shards are replayed instead of recomputed, and workers write fresh
    ones into it.
    """
    tracer = get_tracer(config.trace_path)
    started = time.perf_counter()
    with tracer.span(
        "engine.run",
        seed=config.campaign.seed,
        scale=config.campaign.scale,
        executor=config.executor,
    ) as root:
        store = ShardCache(config.checkpoint_dir) if config.checkpoint_dir else None
        (run,), stats = run_campaigns([config], route, shard_store=store)
        report = run.report
        report.pool_rebuilds = stats.pool_rebuilds
        if tracer.enabled:
            registry = MetricsRegistry()
            registry.count("engine.runs", 1)
            registry.count("engine.cache.hits", report.cache_hits)
            registry.count("engine.cache.misses", report.cache_misses)
            registry.count("engine.pool_rebuilds", stats.pool_rebuilds)
            registry.count("engine.retries", report.total_retries)
            report.metrics = fold_shard_metrics(registry, [run])
            tracer.emit_metrics(report.metrics, scope="engine")

        # total_wall_s and the root span must quote the SAME float, so the
        # per-phase breakdown printed by ``python -m repro.obs`` sums to
        # the report total exactly.
        report.total_wall_s = time.perf_counter() - started
        root.dur_s = report.total_wall_s

    if config.report_path is not None:
        report.save(config.report_path)
    return run.dataset, report


def generate_dataset_parallel(
    seed: int = 42,
    scale: float = 1.0,
    include_apps: bool = True,
    include_static: bool = True,
    *,
    workers: int | None = None,
    shards: int | None = None,
    executor: str = "process",
    checkpoint_dir: str | None = None,
    max_retries: int = 2,
    report_path: str | None = None,
    validate: bool = False,
    store_dir: str | None = None,
    window_km: float | None = None,
    trace_path: str | None = None,
) -> DriveDataset:
    """Generate a campaign dataset on all available cores.

    Drop-in parallel counterpart of :func:`repro.generate_dataset`: the same
    ``seed`` and ``scale`` produce a bit-identical dataset at any ``workers``
    or ``shards`` setting, because shard decomposition and per-shard RNG
    substreams depend only on the campaign configuration.

    Parameters beyond the :func:`repro.generate_dataset` quartet:

    workers / shards / executor:
        Execution topology (see :class:`EngineConfig`) — result-neutral.
    checkpoint_dir:
        Enables per-shard checkpoints; rerunning with the same directory and
        configuration resumes from completed shards.
    max_retries / report_path / validate:
        Fault-tolerance budget, JSON report output, and post-merge
        validation.
    store_dir:
        Ingest the merged dataset into a columnar store catalog
        (:mod:`repro.store`) at this directory.
    window_km:
        Override the planner's adaptive shard window length.
    trace_path:
        Append a structured JSONL trace (:mod:`repro.obs`) to this file.
    """
    config = EngineConfig(
        campaign=CampaignConfig(
            seed=seed, scale=scale,
            include_apps=include_apps, include_static=include_static,
        ),
        workers=workers,
        shards=shards,
        executor=executor,
        planner=PlannerParams(window_km=window_km),
        checkpoint_dir=checkpoint_dir,
        max_retries=max_retries,
        report_path=report_path,
        validate=validate,
        store_dir=store_dir,
        trace_path=trace_path,
    )
    dataset, _report = run_engine(config)
    return dataset
