"""Quantifying the paper's three recommendations (§8).

The paper closes with three recommendations; each is directly measurable on
a campaign dataset:

1. **App-level optimisations** ("developers should continue to explore
   compression, local tracking, buffering, rate adaptation") — measured as
   the E2E-latency reduction frame compression buys the AR and CAV apps.
2. **Multipath over multiple operators** ("smartphone vendors should explore
   multipath solutions") — measured as the best-of-3 / aggregate gains and
   the collapse of the sub-5 Mbps outage share.
3. **Edge deployment** ("operators and cloud providers should collaborate in
   deploying more edge services") — measured as Verizon's edge-vs-cloud RTT
   and app-QoE deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.tests import TestType
from repro.errors import AnalysisError
from repro.net.multipath import MultipathScheduler, simulate_multipath
from repro.net.servers import ServerKind
from repro.radio.operators import Operator
from repro.store.query import Eq, Source, select

__all__ = [
    "CompressionGain",
    "MultipathGain",
    "EdgeGain",
    "RecommendationsReport",
    "quantify_recommendations",
]


@dataclass(frozen=True)
class CompressionGain:
    """Recommendation 1: what frame compression buys an offloading app."""

    app: TestType
    median_e2e_raw_ms: float
    median_e2e_compressed_ms: float

    @property
    def speedup(self) -> float:
        return self.median_e2e_raw_ms / self.median_e2e_compressed_ms


@dataclass(frozen=True)
class MultipathGain:
    """Recommendation 2: multi-operator aggregation, per direction."""

    direction: str
    aggregate_median_mbps: float
    best_single_median_mbps: float
    #: Sub-5 Mbps share: best single operator vs the aggregate.
    single_outage_fraction: float
    aggregate_outage_fraction: float

    @property
    def median_gain(self) -> float:
        return self.aggregate_median_mbps / self.best_single_median_mbps


@dataclass(frozen=True)
class EdgeGain:
    """Recommendation 3: in-network edge serving (Verizon/Wavelength)."""

    rtt_median_edge_ms: float
    rtt_median_cloud_ms: float
    video_qoe_edge: float | None
    video_qoe_cloud: float | None

    @property
    def rtt_reduction(self) -> float:
        return 1.0 - self.rtt_median_edge_ms / self.rtt_median_cloud_ms


@dataclass(frozen=True)
class RecommendationsReport:
    """All three recommendations quantified on one dataset."""

    compression: list[CompressionGain]
    multipath: list[MultipathGain]
    edge: EdgeGain


def _finite(values: np.ndarray) -> np.ndarray:
    return values[np.isfinite(values)]


def _compression_gains(source: Source) -> list[CompressionGain]:
    gains = []
    for app in (TestType.AR, TestType.CAV):
        raw, compressed = (
            _finite(select(source, "offload", "mean_e2e_ms", (
                Eq("app", app), Eq("compression", compression), Eq("static", False),
            )))
            for compression in (False, True)
        )
        if not raw.size or not compressed.size:
            continue
        gains.append(
            CompressionGain(
                app=app,
                median_e2e_raw_ms=float(np.median(raw)),
                median_e2e_compressed_ms=float(np.median(compressed)),
            )
        )
    if not gains:
        raise AnalysisError("no offload runs to quantify compression")
    return gains


def _multipath_gains(source: Source) -> list[MultipathGain]:
    gains = []
    for direction in ("downlink", "uplink"):
        agg = simulate_multipath(source, direction, MultipathScheduler.AGGREGATE)
        singles = {
            op: float(np.median(agg.single_path[op])) for op in Operator
        }
        best_op = max(singles, key=lambda op: singles[op])
        single_outage = min(
            float((agg.single_path[op] < 5.0).mean()) for op in Operator
        )
        gains.append(
            MultipathGain(
                direction=direction,
                aggregate_median_mbps=agg.median_mbps,
                best_single_median_mbps=singles[best_op],
                single_outage_fraction=single_outage,
                aggregate_outage_fraction=agg.outage_fraction(5.0),
            )
        )
    return gains


def _edge_gain(source: Source) -> EdgeGain:
    def verizon_driving(table: str, column: str, kind: ServerKind) -> np.ndarray:
        where = (
            Eq("operator", Operator.VERIZON), Eq("static", False),
            Eq("server_kind", kind),
        )
        return select(source, table, column, where)

    rtt_edge = verizon_driving("rtt", "rtt_ms", ServerKind.EDGE)
    rtt_cloud = verizon_driving("rtt", "rtt_ms", ServerKind.CLOUD)
    if len(rtt_edge) < 10 or len(rtt_cloud) < 10:
        raise AnalysisError("not enough edge/cloud RTT samples")
    video_edge = verizon_driving("video", "qoe", ServerKind.EDGE)
    video_cloud = verizon_driving("video", "qoe", ServerKind.CLOUD)
    return EdgeGain(
        rtt_median_edge_ms=float(np.median(rtt_edge)),
        rtt_median_cloud_ms=float(np.median(rtt_cloud)),
        video_qoe_edge=float(np.median(video_edge)) if video_edge.size else None,
        video_qoe_cloud=float(np.median(video_cloud)) if video_cloud.size else None,
    )


def quantify_recommendations(source: Source) -> RecommendationsReport:
    """Quantify all three §8 recommendations on one dataset."""
    return RecommendationsReport(
        compression=_compression_gains(source),
        multipath=_multipath_gains(source),
        edge=_edge_gain(source),
    )
