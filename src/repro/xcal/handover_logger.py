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
    start_m: float,
    end_m: float,
) -> HandoverLoggerTrace:
    """Walk the deployment as the passive logger phone over
    ``[start_m, end_m)``.

    The technology view comes from the active-layer deployment under the
    idle policy (what Android's API would report); the handover count comes
    from the macro anchor grid the idle UE actually camps on.  Every zone
    overlapping the span is walked, the first and last clipped to it, so
    loggers walking adjacent route windows tile the route.  Each macro zone
    starting inside ``[start_m, end_m)`` past 0 is one handover, so the
    windows' counts add up to the whole route's whatever the window plan.
    """
    selector = TechnologySelector(operator, rng)
    zones = deployment.zones
    segments = [
        PassiveCoverageSegment(
            operator=operator,
            start_m=max(zone.start_m, start_m),
            end_m=min(zone.end_m, end_m),
            tech=selector.select(zone, TrafficProfile.IDLE_PING),
            timezone=zone.timezone,
            region=zone.region,
        )
        for zone in zones[zones.overlapping(start_m, end_m)]
    ]
    macro = deployment.macro_zones
    # Zone 0 starts at 0: where the trip starts, not a handover.
    lo, hi = np.searchsorted(macro.arrays["start_m"], (start_m, end_m)).tolist()
    return HandoverLoggerTrace(
        operator=operator,
        segments=segments,
        macro_handovers=max(hi - max(lo, 1), 0),
        macro_cell_ids=macro.cell_ids(macro.overlapping(start_m, end_m)),
    )
