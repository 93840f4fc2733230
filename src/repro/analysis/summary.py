"""One-call structured summary of every headline result.

:func:`summarize_paper` walks all analysis modules once and returns a single
:class:`PaperSummary` — the programmatic equivalent of the paper's "key
findings" list (§1).  Downstream users get every headline number as a typed
field instead of re-driving ten analysis modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import coverage
from repro.analysis.apps import gaming_app_report, offload_app_report, video_app_report
from repro.analysis.correlation import CorrelationRow, correlation_table
from repro.analysis.handovers import handover_durations, handover_impact, handovers_per_mile
from repro.analysis.longterm import per_test_rtt_stats, per_test_throughput_stats
from repro.analysis.performance import static_vs_driving
from repro.campaign.tests import TestType
from repro.errors import AnalysisError
from repro.radio.operators import Operator
from repro.store.query import Source

__all__ = ["OperatorHeadlines", "AppHeadlines", "PaperSummary", "summarize_paper"]


@dataclass(frozen=True)
class OperatorHeadlines:
    """The per-operator numbers quoted throughout the paper."""

    operator: Operator
    coverage_5g: float
    coverage_high_speed_5g: float
    static_dl_median_mbps: float
    static_ul_median_mbps: float
    driving_dl_median_mbps: float
    driving_ul_median_mbps: float
    driving_dl_below_5mbps: float
    driving_rtt_median_ms: float
    per_test_dl_median_mbps: float
    per_test_rtt_median_ms: float
    handovers_per_mile_median: float
    handover_duration_median_ms: float
    handover_drop_fraction: float
    handover_improvement_fraction: float
    max_abs_kpi_correlation: float


@dataclass(frozen=True)
class AppHeadlines:
    """§7's per-app headline metrics (Verizon panel, like the paper)."""

    ar_driving_e2e_median_ms: float | None
    ar_best_static_e2e_ms: float | None
    cav_driving_e2e_median_ms: float | None
    cav_meets_100ms_budget: bool
    video_qoe_median: float | None
    video_negative_qoe_fraction: float | None
    gaming_bitrate_median_mbps: float | None
    gaming_drop_rate_median: float | None


@dataclass(frozen=True)
class PaperSummary:
    """Everything in one object."""

    operators: dict[Operator, OperatorHeadlines]
    apps: AppHeadlines

    @property
    def fragmented_coverage(self) -> bool:
        """The abstract's first finding: 5G coverage low for at least one
        major carrier and uneven across carriers."""
        shares = [h.coverage_5g for h in self.operators.values()]
        return min(shares) < 0.4 and (max(shares) - min(shares)) > 0.2

    @property
    def driving_collapse_factor(self) -> float:
        """How far driving DL medians sit below static ones (max over ops)."""
        return max(
            h.static_dl_median_mbps / h.driving_dl_median_mbps
            for h in self.operators.values()
            if h.driving_dl_median_mbps > 0
        )

    @property
    def no_kpi_dominates(self) -> bool:
        """Table 2's headline across all operators and directions."""
        return all(
            h.max_abs_kpi_correlation < 0.75 for h in self.operators.values()
        )


def _operator_headlines(
    source: Source, op: Operator, rows: list[CorrelationRow]
) -> OperatorHeadlines:
    """One operator's headlines; ``rows`` are its Table 2 rows."""
    shares = coverage.active_coverage_shares(source, op)
    perf = static_vs_driving(source, op)
    dl_tests = per_test_throughput_stats(source, op, "downlink")
    rtt_tests = per_test_rtt_stats(source, op)
    ho_rate = handovers_per_mile(source, op, "downlink")
    ho_dur = handover_durations(source, op)
    impact = handover_impact(source, op, "downlink")
    max_corr = max(abs(v) for r in rows for v in r.coefficients.values())
    return OperatorHeadlines(
        operator=op,
        coverage_5g=shares.share_5g,
        coverage_high_speed_5g=shares.share_high_speed_5g,
        static_dl_median_mbps=perf.static_dl.median,
        static_ul_median_mbps=perf.static_ul.median,
        driving_dl_median_mbps=perf.driving_dl.median,
        driving_ul_median_mbps=perf.driving_ul.median,
        driving_dl_below_5mbps=perf.driving_dl.prob_below(5.0),
        driving_rtt_median_ms=perf.driving_rtt.median,
        per_test_dl_median_mbps=dl_tests.median_mean,
        per_test_rtt_median_ms=rtt_tests.median_mean,
        handovers_per_mile_median=ho_rate.median,
        handover_duration_median_ms=ho_dur.median,
        handover_drop_fraction=impact.drop_fraction,
        handover_improvement_fraction=impact.improvement_fraction,
        max_abs_kpi_correlation=max_corr,
    )


def _app_headlines(source: Source) -> AppHeadlines:
    op = Operator.VERIZON

    def _safe(factory):
        try:
            return factory()
        except AnalysisError:
            return None

    ar = _safe(lambda: offload_app_report(source, op, TestType.AR))
    cav = _safe(lambda: offload_app_report(source, op, TestType.CAV))
    video = _safe(lambda: video_app_report(source, op))
    gaming = _safe(lambda: gaming_app_report(source, op))

    cav_min = None
    if cav is not None and cav.e2e_cdf:
        cav_min = min(cdf.minimum for cdf in cav.e2e_cdf.values())
    return AppHeadlines(
        ar_driving_e2e_median_ms=(
            ar.e2e_cdf[True].median if ar and True in ar.e2e_cdf else None
        ),
        ar_best_static_e2e_ms=(
            ar.best_static_e2e_ms.get(True) if ar else None
        ),
        cav_driving_e2e_median_ms=(
            cav.e2e_cdf[True].median if cav and True in cav.e2e_cdf else None
        ),
        cav_meets_100ms_budget=(cav_min is not None and cav_min <= 100.0),
        video_qoe_median=video.qoe_cdf.median if video else None,
        video_negative_qoe_fraction=(
            video.negative_qoe_fraction if video else None
        ),
        gaming_bitrate_median_mbps=(
            gaming.bitrate_cdf.median if gaming else None
        ),
        gaming_drop_rate_median=(
            gaming.drop_rate_cdf.median if gaming else None
        ),
    )


def summarize_paper(source: Source) -> PaperSummary:
    """Compute the full headline summary for a dataset."""
    table2 = correlation_table(source)
    return PaperSummary(
        operators={
            op: _operator_headlines(source, op, [r for r in table2 if r.operator is op])
            for op in Operator
        },
        apps=_app_headlines(source),
    )
