"""Comparing two campaign datasets.

Ablation and sensitivity studies (different seeds, scales, deployment mixes,
policy profiles) need a principled way to say whether two datasets differ and
where.  This module compares the headline per-operator distributions with
two-sample Kolmogorov–Smirnov statistics and median ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.errors import AnalysisError
from repro.radio.operators import Operator
from repro.store.query import Eq, Source, select

__all__ = ["MetricComparison", "DatasetComparison", "compare_datasets"]


@dataclass(frozen=True, slots=True)
class MetricComparison:
    """One metric's two-sample comparison."""

    metric: str
    operator: Operator
    ks_statistic: float
    p_value: float
    median_a: float
    median_b: float
    n_a: int
    n_b: int

    @property
    def median_ratio(self) -> float:
        """median(B) / median(A); 1.0 means no median shift."""
        if self.median_a == 0.0:
            raise AnalysisError("median of A is zero; ratio undefined")
        return self.median_b / self.median_a

    def differs(self, alpha: float = 0.01) -> bool:
        """True when the KS test rejects distribution equality at ``alpha``."""
        return self.p_value < alpha


@dataclass(frozen=True)
class DatasetComparison:
    """All metric comparisons between two datasets."""

    comparisons: list[MetricComparison]

    def for_metric(self, metric: str) -> list[MetricComparison]:
        return [c for c in self.comparisons if c.metric == metric]

    def max_divergence(self) -> MetricComparison:
        """The single most-different metric (largest KS statistic)."""
        if not self.comparisons:
            raise AnalysisError("no comparisons computed")
        return max(self.comparisons, key=lambda c: c.ks_statistic)

    def any_difference(self, alpha: float = 0.01) -> bool:
        return any(c.differs(alpha) for c in self.comparisons)


def _compare(metric: str, op: Operator, a: np.ndarray, b: np.ndarray) -> MetricComparison | None:
    if len(a) < 20 or len(b) < 20:
        return None
    result = stats.ks_2samp(a, b)
    return MetricComparison(
        metric=metric,
        operator=op,
        ks_statistic=float(result.statistic),
        p_value=float(result.pvalue),
        median_a=float(np.median(a)),
        median_b=float(np.median(b)),
        n_a=len(a),
        n_b=len(b),
    )


def _metrics(source: Source, op: Operator) -> dict[str, np.ndarray]:
    """The compared distributions of one operator in one source."""
    of_op = Eq("operator", op)
    driving = (of_op, Eq("static", False))
    return {
        "tput_dl": select(source, "tput", "tput_mbps", (*driving, Eq("direction", "downlink"))),
        "tput_ul": select(source, "tput", "tput_mbps", (*driving, Eq("direction", "uplink"))),
        "rtt": select(source, "rtt", "rtt_ms", driving),
        "ho_duration": select(source, "ho", "duration_ms", (of_op,)),
    }


def compare_datasets(a: Source, b: Source) -> DatasetComparison:
    """Compare the headline distributions of two datasets.

    Covered metrics, per operator: driving DL/UL throughput, driving RTT,
    and handover durations.
    """
    comparisons: list[MetricComparison] = []
    for op in Operator:
        metrics_b = _metrics(b, op)
        for metric, va in _metrics(a, op).items():
            comparison = _compare(metric, op, va, metrics_b[metric])
            if comparison is not None:
                comparisons.append(comparison)
    if not comparisons:
        raise AnalysisError("datasets too small to compare")
    return DatasetComparison(comparisons=comparisons)
