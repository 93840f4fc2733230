"""§5.4 — operator diversity at the same location and time (Fig. 6).

The three phones rode in one vehicle and ran each test concurrently, so
throughput samples of different operators at the same timestamp are directly
comparable.  For each operator pair the paper plots the CDF of the
per-timestamp throughput difference (Fig. 6a), breaks each point into four
bins by the technology class each operator used — HT (5G mmWave/midband) vs
LT (LTE/LTE-A/5G-low) — (Fig. 6b), and plots per-bin difference CDFs
(Figs. 6c, 6d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.cdf import EmpiricalCDF
from repro.errors import AnalysisError
from repro.radio.operators import Operator
from repro.store.query import Eq, Source, partitions, select_rows

__all__ = ["OPERATOR_PAIRS", "PairedDiff", "concurrent_samples",
           "paired_throughput_differences", "multi_operator_gain"]

#: The paper's three operator pairs, in its presentation order.
OPERATOR_PAIRS: tuple[tuple[Operator, Operator], ...] = (
    (Operator.VERIZON, Operator.TMOBILE),
    (Operator.TMOBILE, Operator.ATT),
    (Operator.ATT, Operator.VERIZON),
)

#: The four technology-class bins of Fig. 6b (first operator's class first).
TECH_BINS = ("HT-HT", "HT-LT", "LT-HT", "LT-LT")


@dataclass(frozen=True)
class PairedDiff:
    """Throughput differences for one operator pair and direction."""

    first: Operator
    second: Operator
    direction: str
    #: difference = first − second, Mbps, one entry per concurrent sample.
    differences: np.ndarray
    #: Technology-class bin of each entry ("HT-HT", ...).
    bins: list[str]

    @property
    def cdf(self) -> EmpiricalCDF:
        """Fig. 6a — CDF over all concurrent samples."""
        return EmpiricalCDF.from_values(self.differences)

    def bin_fractions(self) -> dict[str, float]:
        """Fig. 6b — fraction of samples in each technology-class bin."""
        n = len(self.bins)
        if n == 0:
            raise AnalysisError("no concurrent samples for this pair")
        return {b: self.bins.count(b) / n for b in TECH_BINS}

    def bin_cdf(self, bin_label: str) -> EmpiricalCDF:
        """Figs. 6c/6d — difference CDF restricted to one bin."""
        values = [d for d, b in zip(self.differences, self.bins) if b == bin_label]
        return EmpiricalCDF.from_values(values)

    def first_wins_fraction(self) -> float:
        """Fraction of locations where the first operator outperforms."""
        return float(np.mean(self.differences > 0.0))


def concurrent_samples(
    source: Source, direction: str
) -> list[dict[Operator, tuple[float, bool]]]:
    """The driving throughput samples of ``direction`` indexed by half
    second: one ``operator -> (tput, is high-throughput tech)`` map per
    timestamp, in the order of its first sample.

    Timestamps join inside each partition, because campaign times repeat
    across seeds; a later sample of an operator at the same half second
    replaces the earlier one.
    """
    where = (Eq("direction", direction), Eq("static", False))
    out: list[dict[Operator, tuple[float, bool]]] = []
    for part in partitions(source):
        index: dict[float, dict[Operator, tuple[float, bool]]] = {}
        for time_s, op, tput, tech in select_rows(
            part, "tput", ("time_s", "operator", "tput_mbps", "tech"), where
        ):
            key = round(time_s * 2.0) / 2.0
            index.setdefault(key, {})[op] = (tput, tech.is_high_throughput)
        out.extend(index.values())
    return out


def paired_throughput_differences(
    source: Source, first: Operator, second: Operator, direction: str
) -> PairedDiff:
    """Fig. 6 — per-timestamp throughput differences for one pair."""
    diffs: list[float] = []
    bins: list[str] = []
    for by_op in concurrent_samples(source, direction):
        if first not in by_op or second not in by_op:
            continue
        t1, ht1 = by_op[first]
        t2, ht2 = by_op[second]
        diffs.append(t1 - t2)
        bins.append(f"{'HT' if ht1 else 'LT'}-{'HT' if ht2 else 'LT'}")
    if not diffs:
        raise AnalysisError(f"no concurrent samples for {first}/{second} {direction}")
    return PairedDiff(
        first=first,
        second=second,
        direction=direction,
        differences=np.asarray(diffs),
        bins=bins,
    )


def multi_operator_gain(source: Source, direction: str) -> dict[Operator, float]:
    """Ablation for the paper's recommendation #2 (multi-connectivity):
    the median gain of taking the per-timestamp *maximum* across all three
    operators over each single operator.

    Returns, per operator, median(max-over-ops / this-op) across timestamps
    where all three operators have samples.
    """
    ratios: dict[Operator, list[float]] = {op: [] for op in Operator}
    for by_op in concurrent_samples(source, direction):
        if len(by_op) < 3:
            continue
        best = max(v for v, _ in by_op.values())
        for op, (v, _) in by_op.items():
            if v > 0:
                ratios[op].append(best / v)
    out = {}
    for op, values in ratios.items():
        if values:
            out[op] = float(np.median(values))
    if not out:
        raise AnalysisError("no fully concurrent samples across all operators")
    return out
