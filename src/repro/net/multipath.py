"""Multi-operator multipath aggregation — the paper's recommendation #2.

§5.4 / §8: *"performance under driving can benefit significantly from
multi-connectivity solutions, e.g., over Multipath TCP, that can aggregate
links from multiple operators"* and *"smartphone vendors should explore
multipath solutions over multiple cellular networks"*.

This module models an MPTCP-style layer over the concurrent per-operator
links the campaign produced.  Three schedulers:

* ``AGGREGATE`` — pool all subflows' capacity (MPTCP with a coupled
  congestion controller; an efficiency factor accounts for scheduling and
  head-of-line losses on asymmetric paths);
* ``BEST_PATH`` — always ride the instantaneously best operator (an ideal
  handover-free carrier switcher);
* ``REDUNDANT`` — duplicate traffic on every subflow: throughput of the best
  path, latency of the *minimum* across paths (the latency-critical-app
  strategy, e.g. RAVEN).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.analysis.opdiversity import concurrent_samples
from repro.errors import AnalysisError
from repro.radio.operators import Operator
from repro.store.query import Source

__all__ = ["MultipathScheduler", "MultipathResult", "simulate_multipath"]


class MultipathScheduler(enum.Enum):
    """Subflow scheduling strategy."""

    AGGREGATE = "aggregate"
    BEST_PATH = "best_path"
    REDUNDANT = "redundant"


#: Fraction of the pooled capacity an MPTCP aggregate realises on asymmetric
#: cellular paths (reordering, coupled congestion control).
_AGGREGATE_EFFICIENCY = 0.85


@dataclass(frozen=True)
class MultipathResult:
    """Outcome of a multipath simulation over concurrent samples."""

    scheduler: MultipathScheduler
    direction: str
    #: Multipath throughput per concurrent timestamp, Mbps.
    throughput_mbps: np.ndarray
    #: Per-operator single-path throughput at the same timestamps.
    single_path: dict[Operator, np.ndarray]

    @property
    def median_mbps(self) -> float:
        return float(np.median(self.throughput_mbps))

    def median_gain_over(self, operator: Operator) -> float:
        """Median per-timestamp gain over one operator's single path."""
        single = self.single_path[operator]
        mask = single > 0
        if not mask.any():
            raise AnalysisError(f"no positive samples for {operator}")
        return float(np.median(self.throughput_mbps[mask] / single[mask]))

    def outage_fraction(self, threshold_mbps: float = 5.0) -> float:
        """Fraction of timestamps below ``threshold_mbps`` — multipath's
        headline benefit is shrinking this (the paper's 35%-below-5 Mbps)."""
        return float(np.mean(self.throughput_mbps < threshold_mbps))


def simulate_multipath(
    source: Source,
    direction: str,
    scheduler: MultipathScheduler = MultipathScheduler.AGGREGATE,
) -> MultipathResult:
    """Replay the campaign's concurrent samples through a multipath layer.

    Uses only timestamps where all three operators have samples (the
    campaign runs tests concurrently, so this is nearly all of them).
    """
    operators = list(Operator)
    # (timestamps × operators) throughput matrix.
    rows = [
        [by_op[op][0] for op in operators]
        for by_op in concurrent_samples(source, direction)
        if len(by_op) == len(operators)
    ]
    if not rows:
        raise AnalysisError("no timestamps with samples from all operators")
    matrix = np.asarray(rows, dtype=float)
    if scheduler is MultipathScheduler.AGGREGATE:
        tput = matrix.sum(axis=1) * _AGGREGATE_EFFICIENCY
    elif scheduler is MultipathScheduler.BEST_PATH:
        tput = matrix.max(axis=1)
    else:  # REDUNDANT: goodput equals the best path's (others carry copies)
        tput = matrix.max(axis=1)
    return MultipathResult(
        scheduler=scheduler,
        direction=direction,
        throughput_mbps=tput,
        single_path={op: matrix[:, i] for i, op in enumerate(operators)},
    )
