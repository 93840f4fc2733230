"""§5.6 — performance over longer time scales (Figs. 9-10).

Fig. 9 aggregates per test: the mean of each 30 s throughput test / 20 s RTT
test, and the standard deviation expressed as a percentage of the mean
(fluctuation *within* a test).  Fig. 10 plots each test's mean against the
fraction of the test spent on high-speed 5G (mmWave or midband).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.analysis.cdf import EmpiricalCDF
from repro.campaign.tests import TestType
from repro.errors import AnalysisError
from repro.radio.operators import Operator
from repro.radio.technology import HIGH_THROUGHPUT_TECHS
from repro.store.query import Eq, In, Source, group_rows, partitions, select, select_columns

__all__ = [
    "PerTestStats",
    "per_test_throughput_stats",
    "per_test_rtt_stats",
    "throughput_vs_hs5g_fraction",
    "rtt_vs_hs5g_fraction",
]


@dataclass(frozen=True)
class PerTestStats:
    """Fig. 9 distributions for one operator and metric."""

    operator: Operator
    metric: str
    means: EmpiricalCDF
    #: Standard deviation as percent of the mean, per test.
    stddev_pct: EmpiricalCDF

    @property
    def median_mean(self) -> float:
        return self.means.median

    @property
    def median_stddev_pct(self) -> float:
        return self.stddev_pct.median


def _stats(values_per_test: list[np.ndarray], operator: Operator, metric: str) -> PerTestStats:
    means, std_pcts = [], []
    for values in values_per_test:
        if len(values) < 4:
            continue
        mean = float(np.mean(values))
        if mean <= 0.0:
            continue
        means.append(mean)
        std_pcts.append(100.0 * float(np.std(values)) / mean)
    if not means:
        raise AnalysisError(f"no usable tests for {operator} {metric}")
    return PerTestStats(
        operator=operator,
        metric=metric,
        means=EmpiricalCDF.from_values(means),
        stddev_pct=EmpiricalCDF.from_values(std_pcts),
    )


#: Per kind of test: its type, and its sample table and value column.
_KINDS = {
    "downlink": (TestType.DOWNLINK_THROUGHPUT, "tput", "tput_mbps"),
    "uplink": (TestType.UPLINK_THROUGHPUT, "tput", "tput_mbps"),
    "rtt": (TestType.RTT, "rtt", "rtt_ms"),
}


def _per_test(
    source: Source, operator: Operator, kind: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(values, technologies)`` of each driving test of ``kind``
    (``"downlink"``, ``"uplink"`` or ``"rtt"``) run by ``operator``, one
    pair per test in the order of its first sample.  Samples join their
    test by id inside each partition."""
    test_type, table, column = _KINDS[kind]
    of_tests = (Eq("test_type", test_type), Eq("operator", operator), Eq("static", False))
    for part in partitions(source):
        of_wanted = (In("test_id", tuple(select(part, "test", "test_id", of_tests).tolist())),)
        values, techs, test_ids = select_columns(
            part, table, (column, "tech", "test_id"), of_wanted
        )
        for rows in group_rows(test_ids).values():
            yield values[rows], techs[rows]


def per_test_throughput_stats(
    source: Source, operator: Operator, direction: str
) -> PerTestStats:
    """Fig. 9 — per-test mean and stddev-% for 30 s throughput tests."""
    return _stats(
        [v for v, _ in _per_test(source, operator, direction)],
        operator, f"tput_{direction}",
    )


def per_test_rtt_stats(source: Source, operator: Operator) -> PerTestStats:
    """Fig. 9 — per-test mean and stddev-% for 20 s RTT tests."""
    return _stats([v for v, _ in _per_test(source, operator, "rtt")], operator, "rtt")


def _vs_hs5g_fraction(
    source: Source, operator: Operator, kind: str
) -> list[tuple[float, float]]:
    """(high-speed-5G time fraction, mean value) per test of ≥ 4 samples."""
    return [
        (sum(t in HIGH_THROUGHPUT_TECHS for t in techs) / len(values), float(np.mean(values)))
        for values, techs in _per_test(source, operator, kind)
        if len(values) >= 4
    ]


def throughput_vs_hs5g_fraction(
    source: Source, operator: Operator, direction: str
) -> list[tuple[float, float]]:
    """Fig. 10a/10b — (high-speed-5G time fraction, mean throughput) per test."""
    return _vs_hs5g_fraction(source, operator, direction)


def rtt_vs_hs5g_fraction(source: Source, operator: Operator) -> list[tuple[float, float]]:
    """Fig. 10c — (high-speed-5G time fraction, mean RTT) per RTT test."""
    return _vs_hs5g_fraction(source, operator, "rtt")
