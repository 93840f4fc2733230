"""Latitude/longitude points and great-circle geometry.

The analysis pipeline needs positions for three things: distance accounting
(miles driven per technology), geographic partitioning (timezones), and
UE-to-cell ranges for the channel model.  A spherical-earth haversine model is
accurate to ~0.5% which is far below the variability of anything we measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, slots=True)
class LatLon:
    """A point on the earth in decimal degrees.

    >>> LatLon(34.05, -118.24)  # Los Angeles
    LatLon(lat=34.05, lon=-118.24)
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")

    def distance_m(self, other: "LatLon") -> float:
        """Great-circle distance to ``other`` in meters."""
        return haversine_m(self, other)


def haversine_m(a: LatLon, b: LatLon) -> float:
    """Great-circle distance between two points in meters (haversine).

    Symmetric and non-negative; zero iff the points coincide.
    """
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon - a.lon)
    s_phi, s_lam = math.sin(dphi / 2.0), math.sin(dlam / 2.0)
    h = s_phi * s_phi + math.cos(phi1) * math.cos(phi2) * (s_lam * s_lam)
    # Clamp for numeric safety before the asin.
    h = min(1.0, max(0.0, h))
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def haversine_from_m(a: LatLon, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """:func:`haversine_m` from ``a`` to each point ``(lats[i], lons[i])``,
    equal to it value for value.

    The radians, sines, cosines, products and square roots run as numpy
    ufuncs, which agree with ``math`` bit for bit on them; the arcsine
    stays a ``math`` call per element (DESIGN.md §6).
    """
    phi1 = math.radians(a.lat)
    phi2 = np.radians(lats)
    s_phi = np.sin((phi2 - phi1) / 2.0)
    s_lam = np.sin(np.radians(lons - a.lon) / 2.0)
    h = np.clip(s_phi * s_phi + math.cos(phi1) * np.cos(phi2) * (s_lam * s_lam), 0.0, 1.0)
    roots = np.sqrt(h)
    return 2.0 * EARTH_RADIUS_M * np.fromiter(map(math.asin, roots.tolist()), float, roots.size)


def interpolate(a: LatLon, b: LatLon, fraction: float) -> LatLon:
    """Linearly interpolate between two points.

    For the sub-100-km hops between route waypoints, linear interpolation in
    lat/lon space differs from true great-circle interpolation by far less
    than cell-placement noise, and it is monotonic in ``fraction`` which is
    what the route distance index requires.

    Parameters
    ----------
    fraction:
        Position along the segment: 0 returns ``a``, 1 returns ``b``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    return LatLon(
        lat=a.lat + (b.lat - a.lat) * fraction,
        lon=a.lon + (b.lon - a.lon) * fraction,
    )


def initial_bearing_deg(a: LatLon, b: LatLon) -> float:
    """Initial great-circle bearing from ``a`` to ``b`` in degrees [0, 360)."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dlam = math.radians(b.lon - a.lon)
    x = math.sin(dlam) * math.cos(phi2)
    y = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return math.degrees(math.atan2(x, y)) % 360.0


def offset_m(origin: LatLon, east_m: float, north_m: float) -> LatLon:
    """Return the point ``east_m``/``north_m`` meters away from ``origin``.

    Uses a local tangent-plane approximation, appropriate for the <50 km
    offsets used to scatter cell sites around the route.
    """
    dlat = north_m / EARTH_RADIUS_M
    dlon = east_m / (EARTH_RADIUS_M * math.cos(math.radians(origin.lat)))
    return LatLon(
        lat=origin.lat + math.degrees(dlat),
        lon=origin.lon + math.degrees(dlon),
    )
