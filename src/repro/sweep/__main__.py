"""``python -m repro.sweep`` — run a replication sweep from the shell.

Examples::

    # 3-seed smoke sweep with a shared shard cache and a JSON report
    python -m repro.sweep --seeds 41,42,43 --scale 0.004 \\
        --no-apps --no-static --window-km 600 \\
        --cache-dir out/shard-cache --report out/sweep.json

    # list the registered paper statistics
    python -m repro.sweep --list-stats
"""

from __future__ import annotations

import argparse
import sys

from repro.engine import PlannerParams
from repro.errors import ReproError
from repro.sweep import SweepConfig, run_sweep
from repro.sweep.stats import get_statistic, registered_statistics


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be a comma-separated list of integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Multi-seed replication sweep with confidence intervals "
        "on every paper statistic.",
    )
    parser.add_argument(
        "--seeds", type=_parse_seeds, default=(41, 42, 43),
        help="comma-separated campaign seeds (default: 41,42,43)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.05,
        help="active-testing duty cycle along the route (default: 0.05)",
    )
    parser.add_argument(
        "--no-apps", action="store_true", help="skip the §7 app workloads"
    )
    parser.add_argument(
        "--no-static", action="store_true", help="skip the static city baselines"
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the shared pool (default: CPU count)",
    )
    parser.add_argument(
        "--executor", choices=("process", "serial"), default="process"
    )
    parser.add_argument(
        "--window-km", type=float, default=None,
        help="override the planner's adaptive shard window length",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="shared content-addressed shard cache directory",
    )
    parser.add_argument(
        "--cache-max-bytes", type=int, default=None,
        help="LRU size bound of the cache (default: unbounded)",
    )
    parser.add_argument(
        "--report", default=None, help="write the JSON SweepReport here"
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="ingest every seed's dataset into a columnar store catalog "
        "at DIR (queryable with python -m repro.store)",
    )
    parser.add_argument(
        "--stats", type=lambda t: tuple(t.split(",")), default=None,
        help="comma-separated statistic names (default: all registered)",
    )
    parser.add_argument("--confidence", type=float, default=0.95)
    parser.add_argument("--bootstrap-samples", type=int, default=1000)
    parser.add_argument(
        "--validate", action="store_true",
        help="validate every per-seed dataset after merging",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append a structured JSONL trace to FILE "
        "(summarize with python -m repro.obs FILE)",
    )
    parser.add_argument(
        "--list-stats", action="store_true",
        help="print the registered statistics and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_stats:
        for name in registered_statistics():
            stat = get_statistic(name)
            unit = f" [{stat.unit}]" if stat.unit else ""
            print(f"{name:36s}{unit:12s} {stat.description}")
        return 0

    try:
        config = SweepConfig(
            seeds=args.seeds,
            scale=args.scale,
            include_apps=not args.no_apps,
            include_static=not args.no_static,
            workers=args.workers,
            executor=args.executor,
            planner=PlannerParams(window_km=args.window_km),
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
            report_path=args.report,
            statistics=args.stats,
            confidence=args.confidence,
            bootstrap_samples=args.bootstrap_samples,
            validate=args.validate,
            store_dir=args.store,
            trace_path=args.trace,
        )
        result = run_sweep(config)
    except ReproError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1

    report = result.report
    print(
        f"swept {report.n_seeds} seeds at scale {report.scale} "
        f"({report.executor}, {report.workers} workers) "
        f"in {report.total_wall_s:.1f} s"
    )
    if report.cache is not None:
        c = report.cache
        print(
            f"cache: {c.hits} hits / {c.misses} misses "
            f"(ratio {c.hit_ratio():.2f}), {c.stores} stores, "
            f"{c.evictions} evictions"
        )
    pct = int(round(report.confidence * 100))
    print(f"\n{'statistic':36s} {'mean':>12s}   {pct}% CI")
    for s in report.statistics:
        print(
            f"{s.name:36s} {s.mean:12.4f}   "
            f"[{s.ci_low:.4f}, {s.ci_high:.4f}]  (n={s.n_seeds})"
        )
    if report.skipped_statistics:
        print(f"\nskipped (no finite values): {', '.join(report.skipped_statistics)}")
    if args.store:
        print(f"\nstore catalog {args.store} holds every seed's partition")
    if args.report:
        print(f"\nreport written to {args.report}")
    if args.trace:
        print(f"\ntrace appended to {args.trace} "
              f"(summarize: python -m repro.obs {args.trace})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
