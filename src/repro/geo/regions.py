"""Region taxonomy along the route.

The paper repeatedly distinguishes three environments, using the vehicle's
speed as a proxy (§4.2, §5.5): cities (low speed, dense deployments, mmWave),
suburban transition areas (mid speed, sparse deployments), and inter-state
highways (high speed, where most data were collected).
"""

from __future__ import annotations

import enum


class RegionType(enum.Enum):
    """The three environment classes used throughout the paper's analysis."""

    #: Members are singletons: hash by identity, not by name (see
    #: :class:`~repro.radio.technology.RadioTechnology`).
    __hash__ = object.__hash__

    CITY = "city"
    SUBURBAN = "suburban"
    HIGHWAY = "highway"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


ALL_REGION_TYPES: tuple[RegionType, ...] = (
    RegionType.CITY,
    RegionType.SUBURBAN,
    RegionType.HIGHWAY,
)
