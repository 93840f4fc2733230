"""repro.sweep — multi-seed replication sweeps with cached shards and CIs.

The paper's findings are single-drive point estimates; this subsystem
replicates the whole campaign across many seeds and reports a confidence
interval for every paper statistic, the way large measurement platforms
aggregate repeated vantage-point runs.  It is built directly on the
:mod:`repro.engine` execution core:

1. :func:`run_sweep` builds one engine config per seed and runs them all
   through the engine's single orchestration pipeline,
   :func:`repro.engine.run_campaigns`, which interleaves *all* seeds' shard
   batches through one shared executor — seed boundaries never serialise
   the pipeline, and no per-seed pool is ever spun up;
2. the **content-addressed shard cache** (:mod:`repro.sweep.cache`, the
   engine's :class:`~repro.engine.checkpoint.ShardCache`) sits under the
   executor: shards are keyed on ``(config_fingerprint, shard_index,
   shard_seed)``, so repeated sweeps — the same seeds again, a superset of
   seeds, a resumed run, a run's checkpoint directory — replay overlapping
   shards instead of recomputing them, with LRU size bounding and hit/miss
   counters;
3. the **statistics layer** (:mod:`repro.sweep.stats`) evaluates a registry
   of paper statistics on each seed's merged dataset and aggregates them
   into mean/median/std plus percentile-bootstrap confidence intervals;
4. the **report** (:mod:`repro.sweep.report`) serialises the whole sweep —
   per-seed wall time and cache hit ratio, cache-wide counters, and every
   interval — to versioned JSON, mirroring the engine's ``EngineReport``.

Determinism carries over unchanged: each seed's dataset is bit-identical to
a standalone ``run_engine`` of that seed, whether its shards were computed,
interleaved with other seeds, or replayed from cache.

Quickstart::

    from repro.sweep import SweepConfig, run_sweep

    result = run_sweep(SweepConfig(
        seeds=tuple(range(42, 52)), scale=0.05, cache_dir="out/shard-cache",
    ))
    ci = result.report.statistic("coverage_5g_share_T")
    print(f"T-Mobile 5G coverage: {ci.mean:.1%} "
          f"[{ci.ci_low:.1%}, {ci.ci_high:.1%}] over {ci.n_seeds} seeds")

Or from the command line::

    python -m repro.sweep --seeds 42,43,44 --scale 0.05 --cache-dir cache/
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.campaign.dataset import DriveDataset
from repro.campaign.runner import CampaignConfig
from repro.engine import (
    EngineConfig,
    EngineReport,
    PlannerParams,
    fold_shard_metrics,
    run_campaigns,
)
from repro.errors import SweepError
from repro.geo.route import Route
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.sweep.cache import CacheStats, ShardCache
from repro.sweep.report import SeedRunMetrics, SweepReport
from repro.sweep.stats import (
    evaluate_statistics,
    get_statistic,
    registered_statistics,
    summarize_statistic,
)

__all__ = [
    "CacheStats",
    "SeedRunMetrics",
    "ShardCache",
    "SweepConfig",
    "SweepReport",
    "SweepResult",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one multi-seed replication sweep."""

    #: Seeds to replicate the campaign under; order defines report order.
    seeds: tuple[int, ...]
    #: Campaign knobs, applied identically to every seed.
    scale: float = 1.0
    include_apps: bool = True
    include_static: bool = True
    #: Execution topology — one shared pool for the whole sweep.
    workers: int | None = None
    shards: int | None = None
    executor: str = "process"
    planner: PlannerParams = field(default_factory=PlannerParams)
    #: Shared shard-cache directory; ``None`` disables caching.
    cache_dir: str | None = None
    #: LRU size bound of the cache in bytes; ``None`` means unbounded.
    cache_max_bytes: int | None = None
    max_retries: int = 2
    #: Where to write the JSON :class:`SweepReport`; ``None`` skips it.
    report_path: str | None = None
    #: Statistic names to aggregate; ``None`` means every registered one.
    statistics: tuple[str, ...] | None = None
    confidence: float = 0.95
    bootstrap_samples: int = 1000
    #: Validate every per-seed merged dataset and raise on issues.
    validate: bool = False
    #: Columnar store catalog directory (:class:`repro.store.Catalog`);
    #: every seed's merged dataset is ingested as one partition.  ``None``
    #: skips ingestion.
    store_dir: str | None = None
    #: JSONL trace file (see :mod:`repro.obs`): the sweep's phase spans,
    #: per-seed plan/merge spans, worker shard spans, and cache counters
    #: all append there, and ``SweepReport.metrics`` is populated.
    #: ``None`` (the default) disables tracing entirely.
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise SweepError("a sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise SweepError(f"duplicate seeds in {self.seeds}")
        if self.executor not in ("process", "serial"):
            raise SweepError(f"unknown executor {self.executor!r}")
        if not 0.0 < self.confidence < 1.0:
            raise SweepError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.bootstrap_samples < 1:
            raise SweepError("bootstrap_samples must be >= 1")
        if self.statistics is not None:
            for name in self.statistics:
                get_statistic(name)  # fail fast on unknown names

    def campaign_config(self, seed: int) -> CampaignConfig:
        return CampaignConfig(
            seed=seed,
            scale=self.scale,
            include_apps=self.include_apps,
            include_static=self.include_static,
        )


@dataclass
class SweepResult:
    """Everything a sweep produced, keyed by seed where applicable."""

    #: Per-seed merged datasets, bit-identical to standalone engine runs.
    datasets: dict[int, DriveDataset]
    #: Per-seed engine-style reports (shard metrics, cache hits, walls).
    engine_reports: dict[int, EngineReport]
    #: The sweep-level report (statistics + cache counters).
    report: SweepReport
    #: The live cache used, if any (its ``stats`` cover this sweep only).
    cache: ShardCache | None = None


def run_sweep(config: SweepConfig, route: Route | None = None) -> SweepResult:
    """Replicate one campaign across seeds and aggregate the statistics.

    Hands one :class:`EngineConfig` per seed to the engine's
    :func:`~repro.engine.run_campaigns` pipeline — which plans each seed,
    replays every shard the cache can serve, interleaves all remaining
    batches round-robin across seeds through one shared executor, and
    merges each seed's shards into its dataset — then bootstraps confidence
    intervals for the registered paper statistics.  Raises
    :class:`EngineError` if any shard exhausts its retry budget, and
    :class:`SweepError` for configuration problems.
    """
    tracer = get_tracer(config.trace_path)
    registry = MetricsRegistry() if tracer.enabled else None
    started = time.perf_counter()
    with tracer.span(
        "sweep.run",
        seeds=len(config.seeds),
        scale=config.scale,
        executor=config.executor,
    ) as root:
        cache = (
            ShardCache(config.cache_dir, config.cache_max_bytes, metrics=registry)
            if config.cache_dir is not None
            else None
        )
        engine_cfgs = [
            EngineConfig(
                campaign=config.campaign_config(seed),
                workers=config.workers,
                shards=config.shards,
                executor=config.executor,
                planner=config.planner,
                max_retries=config.max_retries,
                validate=config.validate,
                store_dir=config.store_dir,
                trace_path=config.trace_path,
            )
            for seed in config.seeds
        ]
        runs, stats = run_campaigns(
            engine_cfgs, route, shard_store=cache, phase="sweep"
        )

        seed_runs: list[SeedRunMetrics] = []
        for seed, run in zip(config.seeds, runs):
            report = run.report
            # A seed has no wall clock of its own inside the shared
            # pipeline; its report quotes the compute it consumed.
            report.total_wall_s = report.shard_wall_s
            seed_runs.append(
                SeedRunMetrics(
                    seed=seed,
                    fingerprint=run.fingerprint,
                    compute_wall_s=report.shard_wall_s,
                    records=report.total_records,
                    n_shards=report.n_windows + 1,
                    cache_hits=report.cache_hits,
                    cache_misses=report.cache_misses,
                    retries=report.total_retries,
                )
            )
        datasets = {seed: run.dataset for seed, run in zip(config.seeds, runs)}

        # -- aggregate the paper statistics across seeds ------------------
        with tracer.span("sweep.stats"):
            names = (
                tuple(config.statistics)
                if config.statistics is not None
                else registered_statistics()
            )
            values: dict[str, dict[int, float]] = {name: {} for name in names}
            for seed in config.seeds:
                per_seed = evaluate_statistics(datasets[seed], names)
                for name, value in per_seed.items():
                    values[name][seed] = value

            summaries = []
            skipped = []
            for name in names:
                summary = summarize_statistic(
                    name, values[name], config.confidence,
                    config.bootstrap_samples,
                )
                if summary is None:
                    skipped.append(name)
                else:
                    summaries.append(summary)

        merged_metrics = None
        if registry is not None:
            registry.count("sweep.seeds", len(config.seeds))
            registry.count("sweep.pool_rebuilds", stats.pool_rebuilds)
            registry.count("sweep.retries", sum(r.retries for r in seed_runs))
            merged_metrics = fold_shard_metrics(registry, runs)
            tracer.emit_metrics(merged_metrics, scope="sweep")

        # total_wall_s and the root span must quote the SAME float, so the
        # per-phase breakdown printed by ``python -m repro.obs`` sums to
        # the report total exactly.
        total_wall_s = time.perf_counter() - started
        root.dur_s = total_wall_s

        sweep_report = SweepReport(
            seeds=tuple(config.seeds),
            scale=config.scale,
            executor=stats.executor,
            workers=stats.workers,
            n_windows=max(run.plan.n_windows for run in runs),
            confidence=config.confidence,
            bootstrap_samples=config.bootstrap_samples,
            seed_runs=seed_runs,
            statistics=summaries,
            skipped_statistics=skipped,
            cache=cache.stats if cache is not None else None,
            total_wall_s=total_wall_s,
            pool_rebuilds=stats.pool_rebuilds,
            metrics=merged_metrics,
        )
    if config.report_path is not None:
        sweep_report.save(config.report_path)

    return SweepResult(
        datasets=datasets,
        engine_reports={seed: run.report for seed, run in zip(config.seeds, runs)},
        report=sweep_report,
        cache=cache,
    )
