"""Shard execution: the unit of work a campaign engine worker performs.

:func:`execute_batch` is the top-level (picklable) entry point submitted to
``ProcessPoolExecutor`` — or called inline by the serial fallback executor.
A batch is an ordered tuple of :class:`ShardTask`; the worker runs each task
to a :class:`ShardResult` and, when a checkpoint directory is configured,
stores every result into that :class:`~repro.engine.checkpoint.ShardCache`
the moment it completes, so even a mid-batch worker death loses at most the
shard in flight.

Two task flavours exist:

* **window shards** run a :class:`DriveCampaign` restricted to one route
  window, with RNG substreams derived from ``RngFactory(seed).shard(index)``
  — a pure function of (root seed, window index);
* the **passive shard** (``window is None``) replays the trip-wide passive
  handover-logger walk and counts the macro-grid cells, exactly as the
  single-process campaign does, using the root factory's streams.

For fault-tolerance testing, a task may carry a :class:`FaultSpec` that
makes early attempts fail — either by raising (exercising the retry path)
or by killing the worker process outright (exercising pool recovery).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

from repro.campaign.dataset import RECORD_FAMILIES, DriveDataset
from repro.campaign.runner import CampaignConfig, CampaignWindow, DriveCampaign
from repro.errors import EngineError
from repro.geo.route import Route, build_cross_country_route
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.radio.deployment import DeploymentModel
from repro.radio.operators import Operator
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
    #: ``None`` marks the passive handover-logger shard.
    window: CampaignWindow | None
    attempt: int = 0
    checkpoint_dir: str | None = None
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
        from repro.engine.planner import PASSIVE_SHARD_INDEX

        return PASSIVE_SHARD_INDEX if self.window is None else self.window.index


@dataclass(slots=True)
class ShardResult:
    """One shard's contribution to the merged dataset."""

    index: int
    dataset: DriveDataset
    #: Distinct active-layer cells connected per operator (window shards).
    active_cells: dict[Operator, int] = field(default_factory=dict)
    #: Distinct macro-grid cells per operator (passive shard only).
    macro_cells: dict[Operator, int] = field(default_factory=dict)
    wall_s: float = 0.0
    from_checkpoint: bool = False
    #: Served from a content-addressed shard cache (see
    #: ``repro.engine.checkpoint``) other than the run's checkpoint directory.
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


def _task_route(task: ShardTask) -> Route:
    return task.route if task.route is not None else build_cross_country_route()


def _run_window_shard(task: ShardTask) -> ShardResult:
    assert task.window is not None
    campaign = DriveCampaign(
        task.config,
        route=_task_route(task),
        window=task.window,
        rng_factory=RngFactory(seed=task.config.seed).shard(task.window.index),
    )
    dataset = campaign.run()
    return ShardResult(
        index=task.window.index,
        dataset=dataset,
        active_cells=campaign.connected_active_cell_counts(),
    )


def _run_passive_shard(task: ShardTask) -> ShardResult:
    # Imported here for the same reason DriveCampaign does it: repro.xcal
    # imports repro.campaign at package level.
    from repro.xcal.handover_logger import run_handover_logger
    from repro.engine.planner import PASSIVE_SHARD_INDEX

    config = task.config
    route = _task_route(task)
    rngs = RngFactory(seed=config.seed)
    dataset = DriveDataset(
        seed=config.seed,
        scale=config.scale,
        route_length_km=route.total_length_km,
    )
    macro_cells: dict[Operator, int] = {}
    for op in Operator:
        deployment = DeploymentModel.build(
            op, route, rngs.stream(f"deploy-{op.code}")
        )
        trace = run_handover_logger(
            op, deployment, rngs.stream(f"passive-{op.code}")
        )
        dataset.passive_coverage.extend(trace.segments)
        dataset.passive_handover_counts[op] = trace.macro_handovers
        macro_cells[op] = len(
            {c.cell_id for z in deployment.macro_zones for c in z.cells.values()}
        )
    return ShardResult(
        index=PASSIVE_SHARD_INDEX,
        dataset=dataset,
        macro_cells=macro_cells,
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
        if task.window is None:
            result = _run_passive_shard(task)
        else:
            result = _run_window_shard(task)
        result.wall_s = time.perf_counter() - started
        span.set(records=result.records)
        if tracer.enabled:
            registry = MetricsRegistry()
            registry.count("engine.shards_computed")
            registry.count("engine.records_generated", result.records)
            registry.observe("engine.shard_s", result.wall_s)
            result.metrics = registry.snapshot()
        if task.checkpoint_dir:
            # Imported lazily so the worker module stays import-light.
            from repro.engine.checkpoint import ShardCache

            with tracer.span("engine.checkpoint.store", index=task.index):
                ShardCache(task.checkpoint_dir).store(
                    task.fingerprint, task.config.seed, result
                )
    return result


def execute_batch(tasks: tuple[ShardTask, ...]) -> list[ShardResult]:
    """Run a batch of shards sequentially in this process.

    Each shard is checkpointed as soon as it finishes, so a crash mid-batch
    preserves every already-completed shard.
    """
    return [execute_shard(task) for task in tasks]


def with_attempt(tasks: tuple[ShardTask, ...], attempt: int) -> tuple[ShardTask, ...]:
    """Rebuild a batch with the given attempt number (for retries)."""
    return tuple(replace(task, attempt=attempt) for task in tasks)
