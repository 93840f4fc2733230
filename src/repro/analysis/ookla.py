"""§5.6, Table 3 — comparison against Ookla's Q3 2022 SpeedTest report.

The paper compares its per-test medians against the medians Ookla published
for Q3 2022 (mostly-static, close-server, multi-connection measurements).
The Ookla values are constants from the paper's Table 3; our side of the
table comes from the dataset's per-test means (the same aggregation as
Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.longterm import (
    per_test_rtt_stats,
    per_test_throughput_stats,
)
from repro.radio.operators import Operator
from repro.store.query import Source

__all__ = ["OoklaReference", "OOKLA_Q3_2022", "OoklaComparisonRow", "ookla_comparison"]


@dataclass(frozen=True, slots=True)
class OoklaReference:
    """Ookla's published medians for one operator (Q3 2022)."""

    downlink_mbps: float
    uplink_mbps: float
    rtt_ms: float


#: Table 3's "Speedtest" columns, verbatim from the paper.
OOKLA_Q3_2022: dict[Operator, OoklaReference] = {
    Operator.VERIZON: OoklaReference(58.64, 8.30, 59.0),
    Operator.TMOBILE: OoklaReference(116.14, 10.91, 60.0),
    Operator.ATT: OoklaReference(57.94, 7.55, 61.0),
}

#: The paper's own "Our Data" columns, for EXPERIMENTS.md comparison.
PAPER_DRIVE_MEDIANS: dict[Operator, OoklaReference] = {
    Operator.VERIZON: OoklaReference(29.62, 13.18, 63.71),
    Operator.TMOBILE: OoklaReference(37.09, 13.77, 81.68),
    Operator.ATT: OoklaReference(48.40, 9.80, 80.73),
}


@dataclass(frozen=True)
class OoklaComparisonRow:
    """One operator's row of Table 3."""

    operator: Operator
    our_downlink_mbps: float
    our_uplink_mbps: float
    our_rtt_ms: float
    ookla: OoklaReference

    @property
    def downlink_deficit(self) -> float:
        """Ratio of our (driving) to Ookla's (static) downlink median —
        the paper's evidence of driving degradation."""
        return self.our_downlink_mbps / self.ookla.downlink_mbps


def ookla_comparison(source: Source) -> list[OoklaComparisonRow]:
    """Table 3 — our per-test medians vs Ookla's Q3 2022 report."""
    rows = []
    for op in Operator:
        dl = per_test_throughput_stats(source, op, "downlink").median_mean
        ul = per_test_throughput_stats(source, op, "uplink").median_mean
        rtt = per_test_rtt_stats(source, op).median_mean
        rows.append(
            OoklaComparisonRow(
                operator=op,
                our_downlink_mbps=dl,
                our_uplink_mbps=ul,
                our_rtt_ms=rtt,
                ookla=OOKLA_Q3_2022[op],
            )
        )
    return rows
