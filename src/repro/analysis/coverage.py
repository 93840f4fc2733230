"""§4 — network coverage analysis (Figs. 1 and 2).

Coverage is measured in *miles driven* per technology.  For the active
(XCAL-during-tests) view, each 500 ms throughput sample is weighted by the
distance the vehicle covered during it (speed × 0.5 s); for the passive
(handover-logger) view, each zone's technology covers its road length.

The coverage shares run on the query engine (:mod:`repro.store.query`), so
they take any query source — a :class:`~repro.campaign.dataset.DriveDataset`,
a store file's :class:`~repro.store.format.DatasetReader` or a
:class:`~repro.store.catalog.Catalog` — plus ``seeds=`` to select catalog
partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.geo.timezones import Timezone
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, HIGH_THROUGHPUT_TECHS, RadioTechnology
from repro.store.query import Eq, Source, fold, group_total, select, select_rows, where_speed_bin
from repro.units import SPEED_BIN_LABELS

__all__ = [
    "CoverageShares",
    "active_coverage_shares",
    "passive_coverage_shares",
    "coverage_by_timezone",
    "coverage_by_speed_bin",
    "coverage_by_direction",
    "route_technology_strip",
]


@dataclass(frozen=True)
class CoverageShares:
    """Technology shares (fractions of miles) for one operator/slice."""

    operator: Operator
    shares: dict[RadioTechnology, float]
    total_weight: float

    def __post_init__(self) -> None:
        total = sum(self.shares.values())
        if self.shares and abs(total - 1.0) > 1e-6:
            raise AnalysisError(f"coverage shares sum to {total}, expected 1")

    @property
    def share_5g(self) -> float:
        """Total 5G share (any NR band)."""
        return sum(v for t, v in self.shares.items() if t.is_5g)

    @property
    def share_high_speed_5g(self) -> float:
        """High-speed 5G (midband + mmWave) share."""
        return sum(v for t, v in self.shares.items() if t in HIGH_THROUGHPUT_TECHS)

    def percent(self, tech: RadioTechnology) -> float:
        """Share of a technology, in percent."""
        return 100.0 * self.shares.get(tech, 0.0)


def _shares_from_weights(
    operator: Operator, weights: dict[RadioTechnology, float]
) -> CoverageShares:
    total = sum(weights.values())
    if total <= 0.0:
        raise AnalysisError(f"no coverage weight for {operator}")
    return CoverageShares(
        operator=operator,
        shares={t: w / total for t, w in weights.items()},
        total_weight=total,
    )


def active_coverage_shares(
    source: Source,
    operator: Operator,
    direction: str | None = None,
    timezone: Timezone | None = None,
    speed_bin_label: str | None = None,
    *,
    seeds: Sequence[int] | None = None,
) -> CoverageShares:
    """Fig. 2 — distance-weighted technology shares from the active tests.

    Static samples are excluded (they cover no distance); optional filters
    slice by direction (Fig. 2b), timezone (Fig. 2c) or the paper's speed
    bins (Fig. 2d, :func:`~repro.store.query.where_speed_bin`).  Each sample
    weighs its speed, clamped at zero, and each technology's weights are
    summed in row order.
    """
    where = [Eq("operator", operator), Eq("static", False)]
    if direction is not None:
        where.append(Eq("direction", direction))
    if timezone is not None:
        where.append(Eq("timezone", timezone))
    if speed_bin_label is not None:
        where.append(where_speed_bin(speed_bin_label))
    weights = {
        tech: fold(np.maximum(
            select(source, "tput", "speed_mph", (*where, Eq("tech", tech)),
                   seeds=seeds),
            0.0,
        ))
        for tech in ALL_TECHNOLOGIES
    }
    return _shares_from_weights(operator, weights)


def passive_coverage_shares(
    source: Source, operator: Operator, *, seeds: Sequence[int] | None = None
) -> CoverageShares:
    """Fig. 1 (passive view) — shares from the handover-logger phones.

    Each zone's technology covers its road length; one grouped-sum pass
    (:func:`~repro.store.query.group_total`) sums them per technology, and
    catalog partitions whose stats exclude ``operator`` are never opened.
    """
    sums = group_total(
        source, "passive", "tech", "length_m",
        where=(Eq("operator", operator),), seeds=seeds,
    )
    weights: dict[RadioTechnology, float] = {t: 0.0 for t in ALL_TECHNOLOGIES}
    for name, length_m in sums.items():
        weights[RadioTechnology[name]] += length_m
    return _shares_from_weights(operator, weights)


def coverage_by_direction(
    source: Source, operator: Operator
) -> dict[str, CoverageShares]:
    """Fig. 2b — coverage split by backlogged traffic direction."""
    return {
        direction: active_coverage_shares(source, operator, direction=direction)
        for direction in ("downlink", "uplink")
    }


def coverage_by_timezone(
    source: Source, operator: Operator
) -> dict[Timezone, CoverageShares]:
    """Fig. 2c — coverage per timezone."""
    out: dict[Timezone, CoverageShares] = {}
    for tz in Timezone:
        try:
            out[tz] = active_coverage_shares(source, operator, timezone=tz)
        except AnalysisError:
            continue  # a small-scale dataset may not sample every zone
    return out


def coverage_by_speed_bin(
    source: Source, operator: Operator
) -> dict[str, CoverageShares]:
    """Fig. 2d — coverage per speed bin (0-20 / 20-60 / 60+ mph)."""
    out: dict[str, CoverageShares] = {}
    for label in SPEED_BIN_LABELS:
        try:
            out[label] = active_coverage_shares(source, operator, speed_bin_label=label)
        except AnalysisError:
            continue
    return out


def route_technology_strip(
    source: Source,
    operator: Operator,
    view: str = "passive",
    bin_km: float = 10.0,
) -> list[tuple[float, RadioTechnology | None]]:
    """Fig. 1 — the technology observed along the route, binned by distance.

    Returns (bin start in km, dominant technology or None when the bin has
    no observations), for either the ``"passive"`` handover-logger view or
    the ``"active"`` XCAL-during-tests view.
    """
    of_op = (Eq("operator", operator),)
    if view == "passive":
        rows = select_rows(source, "passive", ("start_m", "tech", "length_m"), of_op)
    elif view == "active":
        rows = [
            (mark_m, tech, max(speed_mph, 0.01))
            for mark_m, tech, speed_mph in select_rows(
                source, "tput", ("mark_m", "tech", "speed_mph"), (*of_op, Eq("static", False))
            )
        ]
    else:
        raise AnalysisError(f"unknown view {view!r}")
    # Accumulate weight per (bin, tech), in row order.
    bins: dict[int, dict[RadioTechnology, float]] = {}
    for mark_m, tech, weight in rows:
        by_tech = bins.setdefault(int(mark_m / 1000.0 / bin_km), {})
        by_tech[tech] = by_tech.get(tech, 0.0) + weight
    last_bin = max(bins) if bins else 0

    strip: list[tuple[float, RadioTechnology | None]] = []
    for b in range(last_bin + 1):
        weights = bins.get(b)
        dominant = max(weights, key=weights.get) if weights else None
        strip.append((b * bin_km, dominant))
    return strip
