"""§6 — handovers: frequency, duration, and throughput impact (Figs. 11-12).

Handover rates are normalised per mile over each 30 s throughput test
(Fig. 11a); durations come from the signalling records (Fig. 11b).  The
throughput impact uses the paper's two deltas (Fig. 11c):

* ΔT1 = T3 − (T2 + T4) / 2 — the throughput of the 500 ms interval that
  contained the handover versus the average of the intervals just before and
  after it (drop *during* the handover);
* ΔT2 = (T4 + T5) / 2 − (T1 + T2) / 2 — post- versus pre-handover throughput,
  each averaged over 1 s (lasting effect of the handover).

Fig. 12 additionally breaks ΔT2 down by handover type (4G→4G, 5G→5G,
4G→5G, 5G→4G).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.cdf import EmpiricalCDF
from repro.campaign.dataset import DriveDataset, ThroughputSample
from repro.campaign.tests import TestType
from repro.errors import AnalysisError
from repro.mobility.events import HandoverType
from repro.radio.operators import Operator
from repro.store.query import Eq, Source, partitions, select
from repro.units import meters_to_miles

__all__ = [
    "handovers_per_mile",
    "handover_durations",
    "handover_type_distribution",
    "HandoverImpact",
    "handover_impact",
]

_THROUGHPUT_TEST_TYPES = {
    "downlink": TestType.DOWNLINK_THROUGHPUT,
    "uplink": TestType.UPLINK_THROUGHPUT,
}


def handovers_per_mile(
    source: Source,
    operator: Operator,
    direction: str,
    *,
    seeds: Sequence[int] | None = None,
) -> EmpiricalCDF:
    """Fig. 11a — handovers per mile, one value per 30 s throughput test.

    Runs on the query engine over any query source (a dataset, a store
    file's reader or a catalog, whose partitions ``seeds=`` selects).
    Handovers join their test by id within each partition, because test
    ids repeat across seeds.
    """
    of_tests = (
        Eq("test_type", _THROUGHPUT_TEST_TYPES[direction]),
        Eq("operator", operator),
        Eq("static", False),
    )
    of_handovers = (Eq("operator", operator), Eq("direction", direction))
    rates = []
    for part in partitions(source, seeds=seeds):
        ids, counts = np.unique(
            select(part, "ho", "test_id", of_handovers), return_counts=True
        )
        ho_by_test = dict(zip(ids.tolist(), counts.tolist()))
        test_ids = select(part, "test", "test_id", of_tests).tolist()
        n_ho = np.asarray([ho_by_test.get(t, 0) for t in test_ids], dtype=np.int64)
        miles = meters_to_miles(
            select(part, "test", "end_mark_m", of_tests)
            - select(part, "test", "start_mark_m", of_tests)
        )
        # A test parked in traffic covers no distance: a per-mile rate is
        # meaningless.
        moving = ~(miles < 0.02)
        rates.append(n_ho[moving] / miles[moving])
    if not any(r.size for r in rates):
        raise AnalysisError(f"no usable tests for {operator} {direction}")
    return EmpiricalCDF.from_values(np.concatenate(rates))


def handover_durations(
    dataset: DriveDataset, operator: Operator, direction: str | None = None
) -> EmpiricalCDF:
    """Fig. 11b — handover durations (ms) from the signalling records."""
    durations = [
        h.event.duration_ms
        for h in dataset.handovers_of(operator=operator, direction=direction)
    ]
    if not durations:
        raise AnalysisError(f"no handovers recorded for {operator}")
    return EmpiricalCDF.from_values(durations)


def handover_type_distribution(
    dataset: DriveDataset, operator: Operator | None = None
) -> dict[HandoverType, float]:
    """Share of each handover class (Fig. 12's breakdown dimension).

    Horizontal handovers dominate — vertical ones require a technology
    boundary, which only a fraction of zone transitions cross.
    """
    counts: dict[HandoverType, int] = {t: 0 for t in HandoverType}
    total = 0
    for h in dataset.handovers_of(operator=operator):
        counts[h.event.handover_type] += 1
        total += 1
    if total == 0:
        raise AnalysisError("no handovers recorded")
    return {t: c / total for t, c in counts.items()}


@dataclass(frozen=True)
class HandoverImpact:
    """Fig. 12 — ΔT1 and ΔT2 distributions for one operator/direction."""

    operator: Operator
    direction: str
    delta_t1: EmpiricalCDF
    delta_t2: EmpiricalCDF
    #: ΔT2 split per handover type (only types with enough events).
    delta_t2_by_type: dict[HandoverType, EmpiricalCDF]

    @property
    def drop_fraction(self) -> float:
        """Fraction of handovers with a throughput drop (ΔT1 < 0)."""
        return self.delta_t1.prob_below(0.0)

    @property
    def improvement_fraction(self) -> float:
        """Fraction of handovers where post-HO throughput improved (ΔT2 > 0)."""
        return self.delta_t2.prob_above(0.0)


def _index_handovers_by_test(dataset: DriveDataset) -> dict[int, list]:
    index: dict[int, list] = {}
    for h in dataset.handovers:
        index.setdefault(h.test_id, []).append(h)
    return index


def _handover_type_at(
    by_test: dict[int, list], test_id: int, tick: ThroughputSample
) -> HandoverType | None:
    """The type of the (first) handover inside one 500 ms interval."""
    for h in by_test.get(test_id, ()):
        if tick.time_s - 0.5 < h.event.time_s <= tick.time_s:
            return h.event.handover_type
    return None


def handover_impact(
    dataset: DriveDataset, operator: Operator, direction: str
) -> HandoverImpact:
    """Compute Fig. 12's ΔT1/ΔT2 distributions.

    Follows the paper's construction exactly: with the handover inside
    interval t3, ΔT1 = T3 − (T2+T4)/2 and ΔT2 = (T4+T5)/2 − (T1+T2)/2,
    using XCAL's 500 ms intervals.
    """
    test_type = _THROUGHPUT_TEST_TYPES[direction]
    wanted = {
        t.test_id
        for t in dataset.tests_of(test_type=test_type, operator=operator, static=False)
    }
    ho_index = _index_handovers_by_test(dataset)
    d1, d2 = [], []
    d2_by_type: dict[HandoverType, list[float]] = {t: [] for t in HandoverType}

    for test_id, samples in dataset.samples_by_test().items():
        if test_id not in wanted:
            continue
        samples = sorted(samples, key=lambda s: s.time_s)
        tputs = [s.tput_mbps for s in samples]
        for i, s in enumerate(samples):
            if s.ho_count == 0:
                continue
            if i < 2 or i > len(samples) - 3:
                continue
            t1_, t2_, t3_, t4_, t5_ = tputs[i - 2 : i + 3]
            d1.append(t3_ - (t2_ + t4_) / 2.0)
            delta2 = (t4_ + t5_) / 2.0 - (t1_ + t2_) / 2.0
            d2.append(delta2)
            ho_type = _handover_type_at(ho_index, test_id, s)
            if ho_type is not None:
                d2_by_type[ho_type].append(delta2)

    if not d1:
        raise AnalysisError(f"no in-test handovers for {operator} {direction}")
    by_type = {
        t: EmpiricalCDF.from_values(v) for t, v in d2_by_type.items() if len(v) >= 5
    }
    return HandoverImpact(
        operator=operator,
        direction=direction,
        delta_t1=EmpiricalCDF.from_values(d1),
        delta_t2=EmpiricalCDF.from_values(d2),
        delta_t2_by_type=by_type,
    )
