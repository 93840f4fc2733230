"""Shard execution: the unit of work a campaign engine worker performs.

:func:`execute_batch` is the top-level (picklable) entry point submitted to
``ProcessPoolExecutor`` — or called inline by the serial fallback executor.
A batch is an ordered tuple of :class:`ShardTask`; the worker runs each task
to a :class:`ShardResult` and, when the task names a shard cache, writes the
result's entry into that :class:`~repro.engine.checkpoint.ShardCache` the
moment it completes, so even a mid-batch worker death loses at most the
shard in flight.  The worker is the entry's only writer; the orchestrating
process only records it (recency, counters, the size bound).

Every shard is one route window: a :class:`DriveCampaign` restricted to
the window, with RNG substreams derived from ``RngFactory(seed).shard(index)``
— a pure function of (root seed, window index).  The window's active probes
and its passive handover-loggers drive through the whole-route deployment of
``(route, seed, operator)`` (:meth:`DeploymentModel.world`, built once per
worker process and shared by its shards), so a shard carries both views of
its stretch of the one network.

For fault-tolerance testing, a task may carry a :class:`FaultSpec` that
makes early attempts fail — either by raising (exercising the retry path)
or by killing the worker process outright (exercising pool recovery).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

from repro.campaign.dataset import RECORD_FAMILIES, DriveDataset
from repro.campaign.runner import CampaignConfig, CampaignWindow, DriveCampaign
from repro.errors import EngineError
from repro.geo.route import Route
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.rng import RngFactory

__all__ = ["FaultSpec", "ShardTask", "ShardResult", "execute_batch"]


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Injected failure for one shard (testing hook).

    The first ``times`` attempts fail; later attempts succeed.  ``kind`` is
    ``"raise"`` (worker raises :class:`EngineError`) or ``"exit"`` (worker
    process dies with ``os._exit``, simulating a hard crash — only
    meaningful under the process executor; in-process execution degrades it
    to a raise so the host survives).
    """

    times: int = 1
    kind: str = "raise"

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "exit"):
            raise EngineError(f"unknown fault kind {self.kind!r}")
        if self.times < 1:
            raise EngineError("fault times must be >= 1")


@dataclass(frozen=True, slots=True)
class ShardTask:
    """Everything a worker needs to execute one shard, picklable."""

    config: CampaignConfig
    window: CampaignWindow
    attempt: int = 0
    #: Shard cache directory this worker writes the shard's entry into;
    #: ``None`` writes nothing.
    cache_dir: str | None = None
    fingerprint: str = ""
    fault: FaultSpec | None = None
    #: Pid of the orchestrating process; lets an "exit" fault detect whether
    #: it is running in a separate worker process it may safely kill.
    parent_pid: int = 0
    #: Custom route, if the caller supplied one; workers otherwise rebuild
    #: the canonical cross-country route themselves.
    route: Route | None = None
    #: Trace file this shard's spans append to (``None`` = tracing off).
    #: Workers open the file independently (O_APPEND), so the path is the
    #: only thing that needs to cross the process boundary.
    trace_path: str | None = None
    #: Span id of the orchestrator's execute span, so shard spans emitted
    #: in a worker process attach under it in the reconstructed tree.
    trace_parent: str | None = None

    @property
    def index(self) -> int:
        return self.window.index


@dataclass(slots=True)
class ShardResult:
    """One shard's contribution to the merged dataset."""

    index: int
    dataset: DriveDataset
    wall_s: float = 0.0
    #: Replayed from the run's shard cache (see ``repro.engine.checkpoint``)
    #: instead of computed.
    from_cache: bool = False
    #: Metrics snapshot (``repro.obs.metrics`` shape) recorded while the
    #: shard computed; ``None`` unless the run was traced.  Rides back on
    #: the result so per-worker registries fold into the run report.
    metrics: dict | None = None

    @property
    def records(self) -> int:
        return sum(self.dataset.count(f.table) for f in RECORD_FAMILIES)


def _maybe_fail(task: ShardTask) -> None:
    if task.fault is None or task.attempt >= task.fault.times:
        return
    if task.fault.kind == "exit" and os.getpid() != task.parent_pid:
        os._exit(17)
    raise EngineError(
        f"injected fault on shard {task.index} (attempt {task.attempt})",
        shard_index=task.index,
    )


def execute_shard(task: ShardTask) -> ShardResult:
    """Run one shard to completion and return its result.

    When the task carries a ``trace_path``, the whole execution (including
    an injected-fault raise, which closes the span with ``status="error"``)
    is recorded as one ``engine.shard`` span parented under the
    orchestrator's execute span, and a per-shard metrics snapshot travels
    back on ``result.metrics``.  Untraced tasks hit the null tracer: no
    allocation, no clock reads, no I/O.
    """
    tracer = get_tracer(task.trace_path)
    with tracer.span(
        "engine.shard",
        parent=task.trace_parent,
        index=task.index,
        attempt=task.attempt,
        seed=task.config.seed,
    ) as span:
        _maybe_fail(task)
        started = time.perf_counter()
        campaign = DriveCampaign(
            task.config,
            route=task.route,
            window=task.window,
            rng_factory=RngFactory(seed=task.config.seed).shard(task.index),
        )
        result = ShardResult(index=task.index, dataset=campaign.run())
        result.wall_s = time.perf_counter() - started
        span.set(records=result.records)
        if tracer.enabled:
            registry = MetricsRegistry()
            registry.count("engine.shards_computed")
            registry.count("engine.records_generated", result.records)
            registry.observe("engine.shard_s", result.wall_s)
            result.metrics = registry.snapshot()
        if task.cache_dir:
            # Imported lazily so the worker module stays import-light.
            from repro.engine.checkpoint import ShardCache

            with tracer.span("engine.checkpoint.store", index=task.index):
                ShardCache(task.cache_dir).write(
                    task.fingerprint, task.config.seed, result
                )
    return result


def execute_batch(tasks: tuple[ShardTask, ...]) -> list[ShardResult]:
    """Run a batch of shards sequentially in this process.

    Each shard's cache entry is written as soon as it finishes, so a crash
    mid-batch preserves every already-completed shard.
    """
    return [execute_shard(task) for task in tasks]


def with_attempt(tasks: tuple[ShardTask, ...], attempt: int) -> tuple[ShardTask, ...]:
    """Rebuild a batch with the given attempt number (for retries)."""
    return tuple(replace(task, attempt=attempt) for task in tasks)
