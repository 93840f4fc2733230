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
from repro.campaign.tests import TestType
from repro.errors import AnalysisError
from repro.mobility.events import HandoverType, classify_handover
from repro.radio.operators import Operator
from repro.store.query import Eq, In, Source, group_rows, partitions, select, select_columns
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
        test_ids, end_m, start_m = select_columns(
            part, "test", ("test_id", "end_mark_m", "start_mark_m"), of_tests
        )
        n_ho = np.asarray([ho_by_test.get(t, 0) for t in test_ids.tolist()], dtype=np.int64)
        miles = meters_to_miles(end_m - start_m)
        # A test parked in traffic covers no distance: a per-mile rate is
        # meaningless.
        moving = ~(miles < 0.02)
        rates.append(n_ho[moving] / miles[moving])
    if not any(r.size for r in rates):
        raise AnalysisError(f"no usable tests for {operator} {direction}")
    return EmpiricalCDF.from_values(np.concatenate(rates))


def handover_durations(
    source: Source, operator: Operator, direction: str | None = None
) -> EmpiricalCDF:
    """Fig. 11b — handover durations (ms) from the signalling records."""
    where = [Eq("operator", operator)]
    if direction is not None:
        where.append(Eq("direction", direction))
    durations = select(source, "ho", "duration_ms", where)
    if not durations.size:
        raise AnalysisError(f"no handovers recorded for {operator}")
    return EmpiricalCDF.from_values(durations)


def handover_type_distribution(
    source: Source, operator: Operator | None = None
) -> dict[HandoverType, float]:
    """Share of each handover class (Fig. 12's breakdown dimension).

    Horizontal handovers dominate — vertical ones require a technology
    boundary, which only a fraction of zone transitions cross.
    """
    where = () if operator is None else (Eq("operator", operator),)
    types = list(map(
        classify_handover, *select_columns(source, "ho", ("from_tech", "to_tech"), where)
    ))
    if not types:
        raise AnalysisError("no handovers recorded")
    counts: dict[HandoverType, int] = {t: 0 for t in HandoverType}
    for t in types:
        counts[t] += 1
    return {t: c / len(types) for t, c in counts.items()}


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


def handover_impact(
    source: Source, operator: Operator, direction: str
) -> HandoverImpact:
    """Compute Fig. 12's ΔT1/ΔT2 distributions.

    Follows the paper's construction exactly: with the handover inside
    interval t3, ΔT1 = T3 − (T2+T4)/2 and ΔT2 = (T4+T5)/2 − (T1+T2)/2,
    using XCAL's 500 ms intervals.  Samples and handovers join their test
    by id inside each partition.
    """
    of_tests = (
        Eq("test_type", _THROUGHPUT_TEST_TYPES[direction]),
        Eq("operator", operator),
        Eq("static", False),
    )
    d1, d2 = [], []
    d2_by_type: dict[HandoverType, list[float]] = {t: [] for t in HandoverType}

    for part in partitions(source):
        of_wanted = (In("test_id", tuple(select(part, "test", "test_id", of_tests).tolist())),)
        test_ids, *columns = select_columns(
            part, "tput", ("test_id", "time_s", "tput_mbps", "ho_count"), of_wanted
        )
        times, tputs, ho_counts = (c.tolist() for c in columns)
        ho_test_ids, ho_times, from_techs, to_techs = select_columns(
            part, "ho", ("test_id", "time_s", "from_tech", "to_tech")
        )
        ho_times = ho_times.tolist()
        ho_types = list(map(classify_handover, from_techs, to_techs))
        ho_by_test = group_rows(ho_test_ids)
        for test_id, rows in group_rows(test_ids).items():
            rows = sorted(rows.tolist(), key=times.__getitem__)
            for i, row in enumerate(rows):
                if ho_counts[row] == 0:
                    continue
                if i < 2 or i > len(rows) - 3:
                    continue
                t1_, t2_, t3_, t4_, t5_ = (tputs[r] for r in rows[i - 2 : i + 3])
                d1.append(t3_ - (t2_ + t4_) / 2.0)
                delta2 = (t4_ + t5_) / 2.0 - (t1_ + t2_) / 2.0
                d2.append(delta2)
                # The type of the (first) handover inside this interval.
                tick_s = times[row]
                for h in ho_by_test.get(test_id, ()):
                    if tick_s - 0.5 < ho_times[h] <= tick_s:
                        d2_by_type[ho_types[h]].append(delta2)
                        break

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
