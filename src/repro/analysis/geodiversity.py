"""§5.3 — geo-diversity: throughput per timezone (Fig. 5)."""

from __future__ import annotations

from repro.analysis.cdf import EmpiricalCDF
from repro.errors import AnalysisError
from repro.geo.timezones import Timezone
from repro.radio.operators import Operator
from repro.store.query import Eq, Source, select

__all__ = ["throughput_by_timezone"]


def throughput_by_timezone(
    source: Source, operator: Operator, direction: str
) -> dict[Timezone, EmpiricalCDF]:
    """Fig. 5 — driving throughput CDFs per timezone for one operator."""
    driving = (
        Eq("operator", operator), Eq("direction", direction), Eq("static", False)
    )
    out: dict[Timezone, EmpiricalCDF] = {}
    for tz in Timezone:
        values = select(source, "tput", "tput_mbps", (*driving, Eq("timezone", tz)))
        if len(values) >= 5:
            out[tz] = EmpiricalCDF.from_values(values)
    if not out:
        raise AnalysisError(f"no samples for {operator} {direction} in any timezone")
    return out
