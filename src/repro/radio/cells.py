"""Cell sites and identifiers.

Each deployment zone along the route is served by one cell per technology
layer.  Cells carry a physical site location (offset from the road) used by
the channel model, and a globally unique identifier used by the handover
accounting and by Table 1's "# of unique cells connected" statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geo.coords import LatLon
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology


@dataclass(frozen=True, slots=True)
class CellId:
    """Globally unique cell identifier.

    The string form mimics the operator/gNB-id style seen in modem logs,
    e.g. ``V-NR_MID-001234``.
    """

    operator: Operator
    technology: RadioTechnology
    sequence: int

    def __str__(self) -> str:
        return f"{self.operator.code}-{self.technology.name}-{self.sequence:06d}"


@dataclass(frozen=True, slots=True)
class Cell:
    """A cell site serving one technology layer within one zone."""

    cell_id: CellId
    site: LatLon
    #: Longitudinal position of the site along the route, in route meters.
    site_mark_m: float
    #: Perpendicular offset of the site from the road, in meters.
    perpendicular_m: float

    @property
    def operator(self) -> Operator:
        return self.cell_id.operator

    @property
    def technology(self) -> RadioTechnology:
        return self.cell_id.technology

    def distance_to_mark_m(self, mark_m: float) -> float:
        """2-D distance from the site to a route position, in meters.

        Uses the local road-frame approximation: longitudinal separation
        along the route plus the fixed perpendicular offset.
        """
        dx = mark_m - self.site_mark_m
        return math.sqrt(dx * dx + self.perpendicular_m * self.perpendicular_m)
