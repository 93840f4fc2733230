"""Sweep scaling — wall time and cache leverage as the seed count grows.

Runs ``repro.sweep`` cold at 1, 2, and 4 seeds over a shared cache
directory, then once more warm at 4 seeds, and records wall time, per-sweep
cache hit ratio, and records produced into
``benchmarks/_reports/sweep_scaling.txt``.  Because every sweep widens the
same cache, each cold run replays the seeds the previous one computed — the
table shows the hit ratio climbing toward 1.0, which is the whole point of
content-addressing shards.  The warm rerun must be served entirely from
cache.
"""

from __future__ import annotations

import time

from repro.engine import PlannerParams
from repro.reporting.tables import render_table
from repro.sweep import SweepConfig, run_sweep
from repro.sweep.stats import registered_statistics

SCALE = 0.05
SEEDS = (41, 42, 43, 44)
WINDOW_KM = 600.0


def _sweep(n_seeds: int, cache_dir, report_label: str):
    config = SweepConfig(
        seeds=SEEDS[:n_seeds],
        scale=SCALE,
        include_apps=False,
        include_static=False,
        planner=PlannerParams(window_km=WINDOW_KM),
        cache_dir=str(cache_dir),
        bootstrap_samples=500,
    )
    started = time.perf_counter()
    result = run_sweep(config)
    wall = time.perf_counter() - started
    return [
        report_label,
        n_seeds,
        f"{wall:.2f}",
        f"{result.report.cache_hit_ratio():.2f}",
        result.report.total_records,
    ], result, wall


def test_sweep_scaling(tmp_path, report, bench):
    cache_dir = tmp_path / "shard-cache"
    rows = []
    cold_result = cold_wall = None
    for n_seeds in (1, 2, 4):
        row, cold_result, cold_wall = _sweep(n_seeds, cache_dir, "cold")
        rows.append(row)
    warm_row, warm, warm_wall = _sweep(len(SEEDS), cache_dir, "warm")
    rows.append(warm_row)

    bench.record(
        "sweep.cold_4seeds", [cold_wall],
        counters={"sweep.records": cold_result.report.total_records},
    )
    bench.record(
        "sweep.warm_4seeds", [warm_wall],
        counters={
            "cache.hit_ratio": warm.report.cache_hit_ratio(),
            "cache.misses": warm.cache.stats.misses,
        },
    )

    report(
        "sweep_scaling",
        render_table(
            ["run", "seeds", "wall (s)", "cache hit ratio", "records"],
            rows,
            title=(
                f"Sweep scaling (scale={SCALE}, "
                f"{warm.report.n_windows} windows/seed, "
                f"{len(registered_statistics())} statistics, "
                f"{len(warm.report.statistics)} with CIs)"
            ),
        ),
    )

    assert warm.report.cache_hit_ratio() == 1.0, "warm sweep recomputed shards"
    assert warm.cache.stats.misses == 0
    assert len(warm.report.statistics) >= 5
    # Wall times gate against the committed baseline when comparable.
    bench.gate("sweep.cold_4seeds")
    bench.gate("sweep.warm_4seeds")
