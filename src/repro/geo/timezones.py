"""The four continental-US timezones the trip crossed.

The paper partitions several analyses (coverage Fig. 2c, throughput Fig. 5)
by timezone, and the log-synchronisation software must reconcile timestamps
recorded in UTC, local time, and EDT (XCAL's internal convention) as the
testbed physically moved between zones.

We approximate the timezone boundaries along the I-15/I-70/I-80/I-90 corridor
with longitude cut lines, which is exact for every city visited on the trip.
"""

from __future__ import annotations

import enum
from datetime import timedelta

import numpy as np


class Timezone(enum.Enum):
    """A continental-US timezone, with its UTC offset under summer (DST) time.

    The trip ran 08/08/2022–08/15/2022, entirely under daylight-saving time,
    so each zone carries its DST offset.
    """

    #: Members are singletons: hash by identity, not by name (see
    #: :class:`~repro.radio.technology.RadioTechnology`).
    __hash__ = object.__hash__

    PACIFIC = ("Pacific", -7)
    MOUNTAIN = ("Mountain", -6)
    CENTRAL = ("Central", -5)
    EASTERN = ("Eastern", -4)

    def __init__(self, label: str, utc_offset_hours: int) -> None:
        self.label = label
        self.utc_offset_hours = utc_offset_hours

    @property
    def utc_offset(self) -> timedelta:
        """UTC offset as a :class:`datetime.timedelta` (DST in effect)."""
        return timedelta(hours=self.utc_offset_hours)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


#: Longitude cut lines (degrees east) between adjacent zones on the route.
#: West of -114 is Pacific along I-15 (Nevada/California); the Mountain /
#: Central line is taken mid-Nebraska; Central / Eastern at the
#: Indiana-Ohio area.
_PACIFIC_MOUNTAIN_LON = -114.04   # NV/UT state line on I-15
_MOUNTAIN_CENTRAL_LON = -101.0    # mid-Nebraska on I-80
_CENTRAL_EASTERN_LON = -86.5      # western Indiana on I-70/I-90 (Indiana is Eastern)

#: XCAL writes log *contents* with EDT timestamps regardless of location
#: (paper §B); EDT is the Eastern zone under DST.
XCAL_INTERNAL_TZ = Timezone.EASTERN


def timezone_for_longitude(lon: float) -> Timezone:
    """Map a route longitude to the timezone used by the paper's partitions.

    >>> timezone_for_longitude(-118.24)  # Los Angeles
    <Timezone.PACIFIC: ('Pacific', -7)>
    >>> timezone_for_longitude(-71.06)  # Boston
    <Timezone.EASTERN: ('Eastern', -4)>
    """
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude out of range: {lon}")
    if lon < _PACIFIC_MOUNTAIN_LON:
        return Timezone.PACIFIC
    if lon < _MOUNTAIN_CENTRAL_LON:
        return Timezone.MOUNTAIN
    if lon < _CENTRAL_EASTERN_LON:
        return Timezone.CENTRAL
    return Timezone.EASTERN


ALL_TIMEZONES: tuple[Timezone, ...] = (
    Timezone.PACIFIC,
    Timezone.MOUNTAIN,
    Timezone.CENTRAL,
    Timezone.EASTERN,
)

_CUT_LINES = np.array(
    [_PACIFIC_MOUNTAIN_LON, _MOUNTAIN_CENTRAL_LON, _CENTRAL_EASTERN_LON]
)


def timezone_codes(lons: np.ndarray) -> np.ndarray:
    """:func:`timezone_for_longitude` for an array of longitudes, as
    indices into :data:`ALL_TIMEZONES`."""
    return np.searchsorted(_CUT_LINES, lons, side="right")
