"""The cross-country drive route: Los Angeles to Boston, 5711+ km.

The paper's trip (08/08/2022–08/15/2022) covered all major cities between LA
and Boston: Las Vegas, Salt Lake City, Denver, Omaha, Chicago, Indianapolis,
Cleveland, Rochester.  We model the route as an ordered list of
:class:`RouteSegment` objects, each with a *road length* (authoritative for
mileage accounting, taken from highway driving distances) and a geographic
chord used to interpolate positions.  Road length exceeds chord length — real
roads bend — which is exactly why we keep the two separate.

Region typing follows the paper's proxy (§4.2): segments inside cities are
``CITY``, the transition areas flanking each city are ``SUBURBAN``, and the
long middles of each leg are ``HIGHWAY``.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RouteError
from repro.geo.coords import LatLon, interpolate, offset_m
from repro.geo.regions import ALL_REGION_TYPES, RegionType
from repro.geo.timezones import Timezone, timezone_codes, timezone_for_longitude

__all__ = [
    "City",
    "RouteSegment",
    "RoutePosition",
    "Route",
    "build_cross_country_route",
    "CROSS_COUNTRY_CITIES",
]


@dataclass(frozen=True, slots=True)
class City:
    """A major city visited on the trip."""

    name: str
    location: LatLon
    #: Cities hosting an AWS Wavelength edge server on the Verizon network
    #: (paper §3: Los Angeles, Las Vegas, Denver, Chicago, Boston).
    has_edge_server: bool = False


#: The ten major cities of the trip, west to east, with approximate downtown
#: coordinates.  Edge-server flags follow the paper's Wavelength deployment.
CROSS_COUNTRY_CITIES: tuple[City, ...] = (
    City("Los Angeles", LatLon(34.0522, -118.2437), has_edge_server=True),
    City("Las Vegas", LatLon(36.1699, -115.1398), has_edge_server=True),
    City("Salt Lake City", LatLon(40.7608, -111.8910)),
    City("Denver", LatLon(39.7392, -104.9903), has_edge_server=True),
    City("Omaha", LatLon(41.2565, -95.9345)),
    City("Chicago", LatLon(41.8781, -87.6298), has_edge_server=True),
    City("Indianapolis", LatLon(39.7684, -86.1581)),
    City("Cleveland", LatLon(41.4993, -81.6944)),
    City("Rochester", LatLon(43.1566, -77.6088)),
    City("Boston", LatLon(42.3601, -71.0589), has_edge_server=True),
)

#: Approximate inter-city road distances in km along the interstates driven
#: (I-15, I-70, I-80, I-90).  With 30 km of in-city driving per city these
#: sum to ~5712 km, matching the paper's 5711+ km total.
_LEG_ROAD_KM: tuple[float, ...] = (435.0, 675.0, 835.0, 870.0, 755.0, 295.0, 507.0, 410.0, 630.0)

#: In-city driving per city (km): measurement loops, static-test positioning.
_CITY_DRIVE_KM = 30.0

#: Suburban transition flanking each city on each leg (km).
_SUBURBAN_KM = 25.0


@dataclass(frozen=True, slots=True)
class RouteSegment:
    """A stretch of road with a uniform region type.

    ``start_point``/``end_point`` define the geographic chord; positions
    within the segment interpolate linearly along it.  ``length_m`` is the
    road length and is what mileage accounting uses.
    """

    start_point: LatLon
    end_point: LatLon
    length_m: float
    region: RegionType
    #: Name of the city for CITY segments; nearest city otherwise.
    city: str

    def __post_init__(self) -> None:
        if self.length_m <= 0.0:
            raise RouteError(f"segment length must be positive, got {self.length_m}")

    def point_at(self, fraction: float) -> LatLon:
        """Geographic point at ``fraction`` in [0, 1] along the segment."""
        return interpolate(self.start_point, self.end_point, fraction)


@dataclass(frozen=True, slots=True)
class RoutePosition:
    """A resolved position along the route."""

    distance_m: float
    point: LatLon
    region: RegionType
    timezone: Timezone
    segment_index: int
    city: str


@dataclass
class Route:
    """An ordered sequence of segments with a cumulative-distance index."""

    segments: list[RouteSegment]
    cities: tuple[City, ...] = ()
    _cum_m: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise RouteError("a route needs at least one segment")
        cum = [0.0]
        for seg in self.segments:
            cum.append(cum[-1] + seg.length_m)
        self._cum_m = cum

    @property
    def total_length_m(self) -> float:
        """Total road length of the route in meters."""
        return self._cum_m[-1]

    @property
    def total_length_km(self) -> float:
        """Total road length in kilometres."""
        return self.total_length_m / 1000.0

    @functools.cached_property
    def digest(self) -> str:
        """SHA-256 of everything a campaign reads off the route: segment
        end points, lengths, regions and cities, plus the city list.
        Routes of equal length but different roads digest differently."""
        canon = json.dumps(
            {
                "segments": [
                    [s.start_point.lat, s.start_point.lon, s.end_point.lat,
                     s.end_point.lon, s.length_m, s.region.name, s.city]
                    for s in self.segments
                ],
                "cities": [
                    [c.name, c.location.lat, c.location.lon, c.has_edge_server]
                    for c in self.cities
                ],
            },
            separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def segment_start_m(self, index: int) -> float:
        """Route distance at which segment ``index`` begins."""
        if not 0 <= index < len(self.segments):
            raise RouteError(f"segment index out of range: {index}")
        return self._cum_m[index]

    def position_at(self, distance_m: float) -> RoutePosition:
        """Resolve a route distance to a full :class:`RoutePosition`.

        Raises
        ------
        RouteError
            If ``distance_m`` is negative or beyond the end of the route.
        """
        if distance_m < 0.0 or distance_m > self.total_length_m:
            raise RouteError(
                f"distance {distance_m} outside route [0, {self.total_length_m}]"
            )
        # Right-most segment whose start is <= distance (end of route maps
        # into the final segment).
        idx = bisect.bisect_right(self._cum_m, distance_m) - 1
        idx = min(idx, len(self.segments) - 1)
        seg = self.segments[idx]
        frac = (distance_m - self._cum_m[idx]) / seg.length_m
        frac = min(1.0, max(0.0, frac))
        point = seg.point_at(frac)
        return RoutePosition(
            distance_m=distance_m,
            point=point,
            region=seg.region,
            timezone=timezone_for_longitude(point.lon),
            segment_index=idx,
            city=seg.city,
        )

    def region_at(self, distance_m: float) -> RegionType:
        """``position_at(distance_m).region``, without resolving the rest
        of the position (``distance_m`` must be on the route)."""
        idx = min(bisect.bisect_right(self._cum_m, distance_m) - 1, len(self.segments) - 1)
        return self.segments[idx].region

    @functools.cached_property
    def _segment_arrays(self) -> tuple[np.ndarray, ...]:
        """Segment starts (route meters), lengths, region codes and chord
        end points."""
        segs = self.segments
        return (
            np.array(self._cum_m[:-1]),
            np.array([s.length_m for s in segs]),
            np.array([ALL_REGION_TYPES.index(s.region) for s in segs], dtype=np.int8),
            np.array([s.start_point.lat for s in segs]),
            np.array([s.start_point.lon for s in segs]),
            np.array([s.end_point.lat for s in segs]),
            np.array([s.end_point.lon for s in segs]),
        )

    def locate(self, distances_m: np.ndarray) -> tuple[np.ndarray, ...]:
        """:meth:`position_at` for an array of in-range route distances.

        Returns ``(region_code, lat, lon, timezone_code)`` arrays, with
        exactly the values :meth:`position_at` computes one distance at a
        time (codes index :data:`~repro.geo.regions.ALL_REGION_TYPES` and
        :data:`~repro.geo.timezones.ALL_TIMEZONES`).
        """
        starts, lengths, regions, lat0, lon0, lat1, lon1 = self._segment_arrays
        idx = np.minimum(
            np.searchsorted(starts, distances_m, side="right") - 1, len(starts) - 1
        )
        frac = np.minimum(np.maximum((distances_m - starts[idx]) / lengths[idx], 0.0), 1.0)
        lat = lat0[idx] + (lat1[idx] - lat0[idx]) * frac
        lon = lon0[idx] + (lon1[idx] - lon0[idx]) * frac
        return regions[idx], lat, lon, timezone_codes(lon)

    def city_mark_m(self, city_name: str) -> float:
        """Route distance of the midpoint of a city's CITY segment."""
        for i, seg in enumerate(self.segments):
            if seg.region is RegionType.CITY and seg.city == city_name:
                return self._cum_m[i] + seg.length_m / 2.0
        raise RouteError(f"no CITY segment for {city_name!r}")

    def edge_server_cities(self) -> tuple[City, ...]:
        """Cities along the route hosting a Wavelength edge server."""
        return tuple(c for c in self.cities if c.has_edge_server)


def _city_segment(city: City) -> RouteSegment:
    """Build the in-city driving segment for a city.

    The chord spans 4 km through downtown; the road length is the full
    in-city measurement mileage (loops detach road length from the chord).
    """
    start = offset_m(city.location, east_m=-2000.0, north_m=0.0)
    end = offset_m(city.location, east_m=2000.0, north_m=0.0)
    return RouteSegment(
        start_point=start,
        end_point=end,
        length_m=_CITY_DRIVE_KM * 1000.0,
        region=RegionType.CITY,
        city=city.name,
    )


def _leg_segments(origin: City, dest: City, leg_road_km: float) -> list[RouteSegment]:
    """Build suburban-highway-suburban segments for one inter-city leg."""
    if leg_road_km <= 2 * _SUBURBAN_KM:
        raise RouteError(
            f"leg {origin.name}->{dest.name} too short ({leg_road_km} km) "
            f"for two {_SUBURBAN_KM} km suburban transitions"
        )
    highway_km = leg_road_km - 2 * _SUBURBAN_KM
    # Chord fractions proportional to road length within the leg.
    f1 = _SUBURBAN_KM / leg_road_km
    f2 = 1.0 - f1
    a, b = origin.location, dest.location
    p1 = interpolate(a, b, f1)
    p2 = interpolate(a, b, f2)
    return [
        RouteSegment(a, p1, _SUBURBAN_KM * 1000.0, RegionType.SUBURBAN, origin.name),
        RouteSegment(p1, p2, highway_km * 1000.0, RegionType.HIGHWAY, dest.name),
        RouteSegment(p2, b, _SUBURBAN_KM * 1000.0, RegionType.SUBURBAN, dest.name),
    ]


def build_cross_country_route() -> Route:
    """Build the LA→Boston route used throughout the reproduction.

    Total road length ≈ 5712 km, matching the paper's 5711+ km (Table 1).
    """
    segments: list[RouteSegment] = []
    for i, city in enumerate(CROSS_COUNTRY_CITIES):
        segments.append(_city_segment(city))
        if i < len(_LEG_ROAD_KM):
            segments.extend(
                _leg_segments(city, CROSS_COUNTRY_CITIES[i + 1], _LEG_ROAD_KM[i])
            )
    return Route(segments=segments, cities=CROSS_COUNTRY_CITIES)
