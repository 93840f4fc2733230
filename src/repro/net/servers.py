"""Cloud and edge application servers.

The paper deployed (§3):

* two AWS EC2 **cloud** regions — California (used for tests in the Pacific
  and Mountain timezones) and Ohio (Central and Eastern timezones);
* five AWS Wavelength **edge** servers *inside Verizon's network* in Los
  Angeles, Las Vegas, Denver, Chicago, and Boston — used for Verizon tests
  near those cities, cloud otherwise; the other two operators always used
  cloud servers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.geo.coords import LatLon, haversine_m
from repro.geo.route import Route
from repro.geo.timezones import Timezone
from repro.radio.operators import Operator

__all__ = ["ServerKind", "Server", "ServerRegistry", "EDGE_CITY_RADIUS_M"]


class ServerKind(enum.Enum):
    """Cloud datacentre vs in-network edge (Wavelength) server."""

    #: Members are singletons: hash by identity, not by name (see
    #: :class:`~repro.radio.technology.RadioTechnology`).
    __hash__ = object.__hash__

    CLOUD = "cloud"
    EDGE = "edge"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class Server:
    """An application server endpoint."""

    name: str
    kind: ServerKind
    location: LatLon

    def distance_m(self, point: LatLon) -> float:
        """Great-circle distance from a UE position to this server."""
        return haversine_m(self.location, point)


#: A Verizon UE uses the Wavelength edge server while within this distance of
#: an edge city (the metro area where Wavelength zones terminate traffic).
EDGE_CITY_RADIUS_M = 60_000.0

_CLOUD_CALIFORNIA = Server("ec2-us-west (California)", ServerKind.CLOUD, LatLon(37.35, -121.96))
_CLOUD_OHIO = Server("ec2-us-east-2 (Ohio)", ServerKind.CLOUD, LatLon(39.96, -83.00))


class ServerRegistry:
    """Selects the application server for a test, per the paper's rules."""

    def __init__(self, route: Route) -> None:
        self._clouds = {
            Timezone.PACIFIC: _CLOUD_CALIFORNIA,
            Timezone.MOUNTAIN: _CLOUD_CALIFORNIA,
            Timezone.CENTRAL: _CLOUD_OHIO,
            Timezone.EASTERN: _CLOUD_OHIO,
        }
        self._edges = tuple(
            Server(f"wavelength-{city.name}", ServerKind.EDGE, city.location)
            for city in route.edge_server_cities()
        )

    @property
    def edge_servers(self) -> tuple[Server, ...]:
        return self._edges

    def cloud_for(self, tz: Timezone) -> Server:
        """The cloud server used for tests in a timezone."""
        return self._clouds[tz]

    def select(self, operator: Operator, position: LatLon, tz: Timezone) -> Server:
        """Server used for a test at ``position`` over ``operator``.

        Verizon gets the nearest edge server when within
        :data:`EDGE_CITY_RADIUS_M` of an edge city; everything else (and the
        other operators always) gets the timezone's cloud server.
        """
        if operator is Operator.VERIZON and self._edges:
            nearest = min(self._edges, key=lambda s: s.distance_m(position))
            if nearest.distance_m(position) <= EDGE_CITY_RADIUS_M:
                return nearest
        return self.cloud_for(tz)
