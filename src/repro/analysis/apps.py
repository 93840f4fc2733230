"""§7 — application QoE analysis (Figs. 13-16 for Verizon, 18-22 for all).

Each figure in §7 combines three views per app:

* CDFs of the run-level metric(s) during driving, split by configuration
  (e.g. with/without frame compression), with the *best static run* marked;
* the metric against the fraction of the run spent on high-speed 5G,
  split by server kind (edge vs cloud) where applicable;
* the metric against the number of handovers in the run (the paper's
  no-correlation finding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.analysis.cdf import EmpiricalCDF
from repro.campaign.tests import TestType
from repro.errors import AnalysisError
from repro.net.servers import ServerKind
from repro.radio.operators import Operator
from repro.store.query import Eq, Source, select_columns

__all__ = [
    "OffloadAppReport",
    "offload_app_report",
    "VideoAppReport",
    "video_app_report",
    "GamingAppReport",
    "gaming_app_report",
    "metric_handover_correlation",
]


def _finite(values: list[float]) -> list[float]:
    return [v for v in values if np.isfinite(v)]


@dataclass(frozen=True)
class OffloadAppReport:
    """Figs. 13/14 (and 18-20) for one operator and app."""

    operator: Operator
    app: TestType
    #: Driving E2E latency CDFs, keyed by compression on/off.
    e2e_cdf: dict[bool, EmpiricalCDF]
    #: Driving offloaded-FPS CDFs, keyed by compression.
    fps_cdf: dict[bool, EmpiricalCDF]
    #: Best static run's mean E2E per compression setting (dashed line).
    best_static_e2e_ms: dict[bool, float]
    best_static_fps: dict[bool, float]
    best_static_map: dict[bool, float]
    #: (frac high-speed 5G, metric, server kind) scatter; metric is mAP for
    #: AR and E2E latency for CAV.
    metric_vs_hs5g: list[tuple[float, float, ServerKind]]
    #: (handover count, metric) scatter.
    metric_vs_handovers: list[tuple[int, float]]
    #: Pearson r between handovers and the metric (the paper: none).
    handover_correlation: float


def _runs(source: Source, table: str, where: tuple, *columns: str) -> list[list]:
    """Each named column of the matching app runs, in row order."""
    return [values.tolist() for values in select_columns(source, table, columns, where)]


def metric_handover_correlation(pairs: list[tuple[float, float]]) -> float:
    """Pearson r for (handovers, metric) pairs; 0 when degenerate."""
    if len(pairs) < 3:
        return 0.0
    x = np.asarray([p[0] for p in pairs], dtype=float)
    y = np.asarray([p[1] for p in pairs], dtype=float)
    mask = np.isfinite(x) & np.isfinite(y)
    x, y = x[mask], y[mask]
    if len(x) < 3 or np.std(x) == 0.0 or np.std(y) == 0.0:
        return 0.0
    return float(stats.pearsonr(x, y).statistic)


def offload_app_report(
    source: Source, operator: Operator, app: TestType
) -> OffloadAppReport:
    """Build the Fig. 13 (AR) or Fig. 14 (CAV) report for one operator."""
    if app not in (TestType.AR, TestType.CAV):
        raise AnalysisError(f"not an offload app: {app}")
    of_app = (Eq("operator", operator), Eq("app", app))
    driving = (*of_app, Eq("static", False))
    static = (*of_app, Eq("static", True))
    # The scatters' metric: mAP for AR, E2E latency for CAV.
    metric = "map_score" if app is TestType.AR else "mean_e2e_ms"
    fracs, metrics, kinds, hos = _runs(
        source, "offload", driving, "frac_hs5g", metric, "server_kind", "ho_count"
    )
    if not fracs:
        raise AnalysisError(f"no driving {app} runs for {operator}")

    e2e_cdf: dict[bool, EmpiricalCDF] = {}
    fps_cdf: dict[bool, EmpiricalCDF] = {}
    best_e2e: dict[bool, float] = {}
    best_fps: dict[bool, float] = {}
    best_map: dict[bool, float] = {}
    for compression in (False, True):
        with_compression = Eq("compression", compression)
        e2e, fps = _runs(
            source, "offload", (*driving, with_compression),
            "mean_e2e_ms", "offload_fps",
        )
        e2e_values = _finite(e2e)
        if e2e_values:
            e2e_cdf[compression] = EmpiricalCDF.from_values(e2e_values)
        if fps:
            fps_cdf[compression] = EmpiricalCDF.from_values(fps)
        s_e2e, s_fps, s_map = _runs(
            source, "offload", (*static, with_compression),
            "mean_e2e_ms", "offload_fps", "map_score",
        )
        if _finite(s_e2e):
            best = min(range(len(s_e2e)), key=s_e2e.__getitem__)
            best_e2e[compression] = s_e2e[best]
            best_fps[compression] = s_fps[best]
            best_map[compression] = s_map[best]

    finite = [np.isfinite(m) for m in metrics]
    vs_hs5g = [
        (f, m, k) for f, m, k, ok in zip(fracs, metrics, kinds, finite) if ok
    ]
    vs_ho = [(h, m) for h, m, ok in zip(hos, metrics, finite) if ok]
    return OffloadAppReport(
        operator=operator,
        app=app,
        e2e_cdf=e2e_cdf,
        fps_cdf=fps_cdf,
        best_static_e2e_ms=best_e2e,
        best_static_fps=best_fps,
        best_static_map=best_map,
        metric_vs_hs5g=vs_hs5g,
        metric_vs_handovers=vs_ho,
        handover_correlation=metric_handover_correlation(
            [(float(h), m) for h, m in vs_ho]
        ),
    )


@dataclass(frozen=True)
class VideoAppReport:
    """Fig. 15 (and Fig. 21) for one operator."""

    operator: Operator
    qoe_cdf: EmpiricalCDF
    bitrate_cdf: EmpiricalCDF
    rebuffer_cdf: EmpiricalCDF
    best_static_qoe: float | None
    negative_qoe_fraction: float
    qoe_vs_hs5g: list[tuple[float, float, ServerKind]]
    qoe_vs_handovers: list[tuple[int, float]]
    handover_correlation: float


def video_app_report(source: Source, operator: Operator) -> VideoAppReport:
    """Build the Fig. 15 report for one operator."""
    of_op = Eq("operator", operator)
    qoe, bitrates, rebuffers, fracs, kinds, hos = _runs(
        source, "video", (of_op, Eq("static", False)),
        "qoe", "avg_bitrate_mbps", "rebuffer_ratio", "frac_hs5g",
        "server_kind", "ho_count",
    )
    if not qoe:
        raise AnalysisError(f"no driving video runs for {operator}")
    (static_qoe,) = _runs(source, "video", (of_op, Eq("static", True)), "qoe")
    vs_ho = list(zip(hos, qoe))
    return VideoAppReport(
        operator=operator,
        qoe_cdf=EmpiricalCDF.from_values(qoe),
        bitrate_cdf=EmpiricalCDF.from_values(bitrates),
        rebuffer_cdf=EmpiricalCDF.from_values(rebuffers),
        best_static_qoe=max(static_qoe, default=None),
        negative_qoe_fraction=float(np.mean(np.asarray(qoe) < 0.0)),
        qoe_vs_hs5g=list(zip(fracs, qoe, kinds)),
        qoe_vs_handovers=vs_ho,
        handover_correlation=metric_handover_correlation(
            [(float(h), q) for h, q in vs_ho]
        ),
    )


@dataclass(frozen=True)
class GamingAppReport:
    """Fig. 16 (and Fig. 22) for one operator."""

    operator: Operator
    bitrate_cdf: EmpiricalCDF
    latency_cdf: EmpiricalCDF
    drop_rate_cdf: EmpiricalCDF
    best_static_bitrate: float | None
    best_static_latency_ms: float | None
    best_static_drop_rate: float | None
    high_latency_run_fraction: float
    bitrate_vs_hs5g: list[tuple[float, float]]
    drops_vs_hs5g: list[tuple[float, float]]
    bitrate_vs_handovers: list[tuple[int, float]]
    handover_correlation: float


def gaming_app_report(source: Source, operator: Operator) -> GamingAppReport:
    """Build the Fig. 16 report for one operator."""
    of_op = Eq("operator", operator)
    columns = ("avg_bitrate_mbps", "median_latency_ms", "frame_drop_rate")
    bitrates, latencies, drop_rates, fracs, hos = _runs(
        source, "gaming", (of_op, Eq("static", False)),
        *columns, "frac_hs5g", "ho_count",
    )
    if not bitrates:
        raise AnalysisError(f"no driving gaming runs for {operator}")
    s_bitrates, s_latencies, s_drop_rates = _runs(
        source, "gaming", (of_op, Eq("static", True)), *columns
    )
    best = max(range(len(s_bitrates)), key=s_bitrates.__getitem__, default=None)
    vs_ho = list(zip(hos, bitrates))
    drops_pct = [100.0 * d for d in drop_rates]
    return GamingAppReport(
        operator=operator,
        bitrate_cdf=EmpiricalCDF.from_values(bitrates),
        latency_cdf=EmpiricalCDF.from_values(latencies),
        drop_rate_cdf=EmpiricalCDF.from_values(drops_pct),
        best_static_bitrate=None if best is None else s_bitrates[best],
        best_static_latency_ms=None if best is None else s_latencies[best],
        best_static_drop_rate=(
            None if best is None else 100.0 * s_drop_rates[best]
        ),
        high_latency_run_fraction=float(np.mean(np.asarray(latencies) > 200.0)),
        bitrate_vs_hs5g=list(zip(fracs, bitrates)),
        drops_vs_hs5g=list(zip(fracs, drops_pct)),
        bitrate_vs_handovers=vs_ho,
        handover_correlation=metric_handover_correlation(
            [(float(h), b) for h, b in vs_ho]
        ),
    )
