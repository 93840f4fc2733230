"""The passive "handover-logger" phones (paper §3).

Three additional unrooted phones — one per carrier — ran for the entire
8-day trip with a custom Android app sending a 38-byte ICMP ping every
200 ms to keep the radio out of sleep, while logging GPS, cell ids and the
serving cellular technology via Android APIs.  Because this keep-alive
traffic is far below any upgrade threshold, the operators' conservative
policies kept these phones on LTE/LTE-A across most of the country — the
root of Fig. 1's passive/active disparity.

This module models that logger as a route walker: it traverses the
operator's deployment zone by zone under the ``IDLE_PING`` traffic profile,
emitting :class:`~repro.campaign.dataset.PassiveCoverageSegment` records,
and counts the macro-grid handovers that dominate Table 1's trip-wide
handover totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.dataset import PassiveCoverageSegment
from repro.policy.profiles import TrafficProfile
from repro.policy.selection import TechnologySelector
from repro.radio.cells import CellId
from repro.radio.deployment import DeploymentModel
from repro.radio.operators import Operator
from repro.units import (
    HANDOVER_LOGGER_PING_INTERVAL_S,
    HANDOVER_LOGGER_PING_PAYLOAD_BYTES,
)

__all__ = ["HandoverLoggerTrace", "run_handover_logger"]


@dataclass(frozen=True)
class HandoverLoggerTrace:
    """Everything one passive phone recorded over its stretch of the trip."""

    operator: Operator
    segments: list[PassiveCoverageSegment]
    #: Handovers on the macro (LTE anchor) grid — summed over the whole
    #: trip, the Table 1 numbers (2657/4119/2494 for V/T/A).
    macro_handovers: int
    #: Distinct macro cells camped on.
    macro_cell_ids: frozenset[CellId]

    @property
    def total_length_m(self) -> float:
        return sum(seg.length_m for seg in self.segments)

    def keepalive_bytes(self, average_speed_mps: float = 27.0) -> float:
        """ICMP keep-alive volume for the whole trip (one direction).

        38-byte payloads every 200 ms for the full driving duration — tiny,
        which is exactly why it never triggers an upgrade.
        """
        duration_s = self.total_length_m / average_speed_mps
        pings = duration_s / HANDOVER_LOGGER_PING_INTERVAL_S
        return pings * HANDOVER_LOGGER_PING_PAYLOAD_BYTES


def run_handover_logger(
    operator: Operator,
    deployment: DeploymentModel,
    rng: np.random.Generator,
    end_m: float,
) -> HandoverLoggerTrace:
    """Walk the deployment as the passive logger phone, up to ``end_m``.

    The technology view comes from the active-layer deployment under the
    idle policy (what Android's API would report); the handover count comes
    from the macro anchor grid the idle UE actually camps on.  Every zone
    starting before ``end_m`` is walked and the last one is clipped there,
    so loggers walking adjacent route windows tile the route.  Each macro
    zone starting inside ``(0, end_m)`` is one handover: a window starting
    past 0 counts the handover onto its first zone.
    """
    selector = TechnologySelector(operator, rng)
    segments = [
        PassiveCoverageSegment(
            operator=operator,
            start_m=zone.start_m,
            end_m=min(zone.end_m, end_m),
            tech=selector.select(zone, TrafficProfile.IDLE_PING),
            timezone=zone.timezone,
            region=zone.region,
        )
        for zone in deployment.zones
        if zone.start_m < end_m
    ]
    macro = [zone for zone in deployment.macro_zones if zone.start_m < end_m]
    return HandoverLoggerTrace(
        operator=operator,
        segments=segments,
        macro_handovers=sum(1 for zone in macro if zone.start_m > 0.0),
        macro_cell_ids=frozenset(
            cell.cell_id for zone in macro for cell in zone.cells.values()
        ),
    )
