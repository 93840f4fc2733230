"""§4 — network coverage analysis (Figs. 1 and 2).

Coverage is measured in *miles driven* per technology.  For the active
(XCAL-during-tests) view, each 500 ms throughput sample is weighted by the
distance the vehicle covered during it (speed × 0.5 s); for the passive
(handover-logger) view, each zone's technology covers its road length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.dataset import DriveDataset
from repro.errors import AnalysisError
from repro.geo.timezones import Timezone
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, HIGH_THROUGHPUT_TECHS, RadioTechnology
from repro.units import SPEED_BIN_LABELS, speed_bin

__all__ = [
    "CoverageShares",
    "active_coverage_shares",
    "active_coverage_shares_from_store",
    "passive_coverage_shares",
    "passive_coverage_shares_from_store",
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
    dataset: DriveDataset,
    operator: Operator,
    direction: str | None = None,
    timezone: Timezone | None = None,
    speed_bin_label: str | None = None,
) -> CoverageShares:
    """Fig. 2 — distance-weighted technology shares from the active tests.

    Static samples are excluded (they cover no distance); optional filters
    slice by direction (Fig. 2b), timezone (Fig. 2c) or the paper's speed
    bins (Fig. 2d).
    """
    weights: dict[RadioTechnology, float] = {t: 0.0 for t in ALL_TECHNOLOGIES}
    for s in dataset.tput(operator=operator, direction=direction, static=False):
        if timezone is not None and s.timezone is not timezone:
            continue
        if speed_bin_label is not None and speed_bin(s.speed_mph) != speed_bin_label:
            continue
        weights[s.tech] += max(s.speed_mph, 0.0)
    return _shares_from_weights(operator, weights)


def passive_coverage_shares(dataset: DriveDataset, operator: Operator) -> CoverageShares:
    """Fig. 1 (passive view) — shares from the handover-logger phones.

    A column-held passive table is summed without building rows (see
    :func:`_passive_weights_from_columns`); the row loop is its oracle.
    """
    table = dataset.held_table("passive")
    if table is not None:
        return _shares_from_weights(
            operator, _passive_weights_from_columns(table, operator)
        )
    weights: dict[RadioTechnology, float] = {t: 0.0 for t in ALL_TECHNOLOGIES}
    for seg in dataset.passive_coverage:
        if seg.operator is operator:
            weights[seg.tech] += seg.length_m
    return _shares_from_weights(operator, weights)


def _passive_weights_from_columns(
    table, operator: Operator
) -> dict[RadioTechnology, float]:
    """Per-technology segment length of ``operator`` from a passive
    :class:`~repro.store.columnar.ColumnTable`, bit-identical to the row
    loop: each technology's lengths are folded left to right from ``0.0``
    (``np.cumsum`` adds sequentially, unlike the pairwise ``np.sum``)."""
    of_operator = table.select("operator", lambda op: op is operator)
    lengths = (table.arrays["end_m"] - table.arrays["start_m"])[of_operator]
    position = {tech: i for i, tech in enumerate(ALL_TECHNOLOGIES)}
    tech_of_code = np.asarray(
        [position[tech] for tech in table.members("tech")], dtype=np.intp
    )
    techs = tech_of_code[table.arrays["tech"][of_operator]]
    return {
        tech: float(np.cumsum(np.concatenate(([0.0], lengths[techs == i])))[-1])
        for i, tech in enumerate(ALL_TECHNOLOGIES)
    }


def passive_coverage_shares_from_store(
    source, operator: Operator, *, seeds=None
) -> CoverageShares:
    """Fig. 1 shares straight off a columnar store, no row objects.

    ``source`` is a :class:`repro.store.DatasetReader` or
    :class:`repro.store.Catalog`; one grouped-sum kernel pass replaces the
    per-segment Python loop of :func:`passive_coverage_shares`, and catalog
    partitions whose stats exclude ``operator`` are never even opened.
    """
    from repro.store.query import Eq, group_total

    sums = group_total(
        source, "passive", "tech", "length_m",
        where=(Eq("operator", operator),), seeds=seeds,
    )
    weights: dict[RadioTechnology, float] = {t: 0.0 for t in ALL_TECHNOLOGIES}
    for name, length_m in sums.items():
        weights[RadioTechnology[name]] += length_m
    return _shares_from_weights(operator, weights)


def active_coverage_shares_from_store(
    source,
    operator: Operator,
    direction: str | None = None,
    speed_bin_label: str | None = None,
    *,
    seeds=None,
) -> CoverageShares:
    """Fig. 2 distance-weighted shares off a columnar store.

    Mirrors :func:`active_coverage_shares` (static samples excluded, speed
    as the distance weight) through the query engine's grouped-sum kernel.
    Negative speed weights cannot occur in stored data, so no clamping is
    needed.
    """
    from repro.store.query import Eq, group_total, where_speed_bin

    where = [Eq("operator", operator), Eq("static", False)]
    if direction is not None:
        where.append(Eq("direction", direction))
    if speed_bin_label is not None:
        where.append(where_speed_bin(speed_bin_label))
    sums = group_total(
        source, "tput", "tech", "speed_mph", where=tuple(where), seeds=seeds
    )
    weights: dict[RadioTechnology, float] = {t: 0.0 for t in ALL_TECHNOLOGIES}
    for name, weight in sums.items():
        weights[RadioTechnology[name]] += weight
    return _shares_from_weights(operator, weights)


def coverage_by_direction(
    dataset: DriveDataset, operator: Operator
) -> dict[str, CoverageShares]:
    """Fig. 2b — coverage split by backlogged traffic direction."""
    return {
        direction: active_coverage_shares(dataset, operator, direction=direction)
        for direction in ("downlink", "uplink")
    }


def coverage_by_timezone(
    dataset: DriveDataset, operator: Operator
) -> dict[Timezone, CoverageShares]:
    """Fig. 2c — coverage per timezone."""
    out: dict[Timezone, CoverageShares] = {}
    for tz in Timezone:
        try:
            out[tz] = active_coverage_shares(dataset, operator, timezone=tz)
        except AnalysisError:
            continue  # a small-scale dataset may not sample every zone
    return out


def coverage_by_speed_bin(
    dataset: DriveDataset, operator: Operator
) -> dict[str, CoverageShares]:
    """Fig. 2d — coverage per speed bin (0-20 / 20-60 / 60+ mph)."""
    out: dict[str, CoverageShares] = {}
    for label in SPEED_BIN_LABELS:
        try:
            out[label] = active_coverage_shares(dataset, operator, speed_bin_label=label)
        except AnalysisError:
            continue
    return out


def route_technology_strip(
    dataset: DriveDataset,
    operator: Operator,
    view: str = "passive",
    bin_km: float = 10.0,
) -> list[tuple[float, RadioTechnology | None]]:
    """Fig. 1 — the technology observed along the route, binned by distance.

    Returns (bin start in km, dominant technology or None when the bin has
    no observations), for either the ``"passive"`` handover-logger view or
    the ``"active"`` XCAL-during-tests view.
    """
    if view not in ("passive", "active"):
        raise AnalysisError(f"unknown view {view!r}")
    # Accumulate weight per (bin, tech).
    bins: dict[int, dict[RadioTechnology, float]] = {}
    if view == "passive":
        for seg in dataset.passive_coverage:
            if seg.operator is not operator:
                continue
            b = int(seg.start_m / 1000.0 / bin_km)
            bins.setdefault(b, {}).setdefault(seg.tech, 0.0)
            bins[b][seg.tech] += seg.length_m
        last_bin = max(bins) if bins else 0
    else:
        for s in dataset.tput(operator=operator, static=False):
            b = int(s.mark_m / 1000.0 / bin_km)
            bins.setdefault(b, {}).setdefault(s.tech, 0.0)
            bins[b][s.tech] += max(s.speed_mph, 0.01)
        last_bin = max(bins) if bins else 0

    strip: list[tuple[float, RadioTechnology | None]] = []
    for b in range(last_bin + 1):
        weights = bins.get(b)
        dominant = max(weights, key=weights.get) if weights else None
        strip.append((b * bin_km, dominant))
    return strip
