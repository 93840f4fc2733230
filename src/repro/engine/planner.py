"""Shard planning: split one drive campaign into canonical route windows.

The planner is the determinism anchor of the engine.  It decomposes the
LA→Boston route into contiguous distance windows **as a pure function of the
campaign configuration** — never of the worker count, batch count, or any
runtime state.  A window is the engine's only unit of simulation: each runs
as an independent shard with its own RNG substream
(``RngFactory(seed).shard(index)``), driving both the active probes and the
passive handover-loggers over its span, so the merged dataset is
bit-identical however the windows are scheduled.  The radio deployment is
not part of a window: every window drives through the one world of
``(route, seed, operator)``.

Window sizing adapts to the campaign's duty cycle: one measurement cycle plus
its fast-forward skip covers ``nominal_cycle_km / scale`` of road, and a
window should hold a few such strides — enough that the scale→record-count
relationship of the whole-route campaign is preserved, while still
producing tens of shards for parallel execution at production scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.campaign.runner import (
    CampaignConfig,
    CampaignWindow,
    NOMINAL_CRUISE_MPS,
)
from repro.errors import EngineError
from repro.geo.route import Route

__all__ = [
    "PlannerParams",
    "ShardPlan",
    "nominal_cycle_duration_s",
    "plan_campaign",
    "TEST_ID_STRIDE",
]

#: Test-id namespace stride: window ``i`` allocates ids in
#: ``(i+1)*STRIDE + 1 ..``, keeping ids disjoint and deterministic without a
#: renumbering pass at merge time.
TEST_ID_STRIDE = 1_000_000


@dataclass(frozen=True, slots=True)
class PlannerParams:
    """Knobs of the window decomposition.

    ``window_km`` overrides the adaptive sizing entirely; otherwise a window
    spans ``cycles_per_window`` nominal cycle strides (cycle distance divided
    by the duty-cycle scale), clamped below by ``min_window_km`` so shards
    stay coarse enough to amortise their per-shard set-up.
    """

    window_km: float | None = None
    cycles_per_window: float = 4.0
    min_window_km: float = 150.0

    def __post_init__(self) -> None:
        if self.window_km is not None and self.window_km <= 0.0:
            raise EngineError(f"window_km must be positive, got {self.window_km}")
        if self.cycles_per_window <= 0.0:
            raise EngineError("cycles_per_window must be positive")
        if self.min_window_km <= 0.0:
            raise EngineError("min_window_km must be positive")


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """The canonical decomposition of one campaign into route windows."""

    windows: tuple[CampaignWindow, ...]
    nominal_cycle_s: float
    window_km: float

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    def batches(self, n_shards: int | None) -> list[tuple[CampaignWindow, ...]]:
        """Group windows into ``n_shards`` contiguous execution batches.

        Batching is purely an execution concern: it decides how many windows
        ride in one worker submission, never what any window computes, so
        every ``n_shards`` yields the same merged dataset.  ``None`` means
        one batch per window (maximum scheduling freedom).
        """
        if not self.windows:
            return []
        if n_shards is None:
            return [(w,) for w in self.windows]
        if n_shards <= 0:
            raise EngineError(f"n_shards must be positive, got {n_shards}")
        n = min(n_shards, len(self.windows))
        base, extra = divmod(len(self.windows), n)
        batches: list[tuple[CampaignWindow, ...]] = []
        at = 0
        for i in range(n):
            size = base + (1 if i < extra else 0)
            batches.append(self.windows[at:at + size])
            at += size
        return batches

    def describe(self) -> str:
        return (
            f"{self.n_windows} windows of ~{self.window_km:.0f} km "
            f"(nominal cycle {self.nominal_cycle_s:.0f} s)"
        )


def nominal_cycle_duration_s(config: CampaignConfig) -> float:
    """Wall-clock length of one round-robin cycle under ``config``.

    Sums the durations of the runs :meth:`DriveCampaign._run_cycle`
    executes (``config.plan.runs()``, each as long as
    ``config.duration_s``), then adds one inter-test gap per run.
    """
    total = 0.0
    runs = 0
    for test_type, _ in config.plan.runs():
        total += config.duration_s(test_type)
        runs += 1
    return total + runs * config.inter_test_gap_s


def plan_campaign(
    config: CampaignConfig,
    route: Route,
    params: PlannerParams | None = None,
) -> ShardPlan:
    """Split ``route`` into the canonical shard windows for ``config``.

    The decomposition depends only on ``(config, route, params)`` — equal
    inputs always produce the identical window list.
    """
    params = params or PlannerParams()
    cycle_s = nominal_cycle_duration_s(config)
    stride_km = cycle_s * NOMINAL_CRUISE_MPS / 1000.0 / config.scale

    if params.window_km is not None:
        window_km = params.window_km
    else:
        window_km = max(params.cycles_per_window * stride_km, params.min_window_km)

    total_m = route.total_length_m
    n = max(1, math.ceil(route.total_length_km / window_km))
    length_m = total_m / n

    windows = []
    for i in range(n):
        start = i * length_m
        end = total_m if i == n - 1 else (i + 1) * length_m
        windows.append(
            CampaignWindow(
                index=i,
                start_m=start,
                end_m=end,
                test_id_base=(i + 1) * TEST_ID_STRIDE,
            )
        )
    return ShardPlan(
        windows=tuple(windows),
        nominal_cycle_s=cycle_s,
        window_km=total_m / n / 1000.0,
    )
