"""End-to-end network substrate: servers, RTT parameters, TCP throughput model."""

from repro.net.servers import Server, ServerKind, ServerRegistry
from repro.net.tcp import CubicFlow

__all__ = ["Server", "ServerKind", "ServerRegistry", "CubicFlow"]
