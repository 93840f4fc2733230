"""Handover parameters: ping-pong rate and handover durations.

A handover fires when the serving (zone, technology, cell) tuple changes —
crossing a deployment-zone boundary, or a traffic-profile-driven technology
switch within the same location.  Occasional *ping-pong* handovers between
neighbouring cells without a zone change produce the 20+ handovers/mile
extremes of Fig. 11a.  The test-block kernel (:mod:`repro.campaign.link`)
runs the serving-cell state machine; this module holds its parameters.

Handover durations are drawn lognormally with per-operator, per-direction
medians calibrated to Fig. 11b (median 49–76 ms, 75th percentile 63–107 ms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from repro.rng import clamp

from repro.radio.ca import Direction
from repro.radio.operators import Operator

__all__ = [
    "DURATION_MEDIANS_MS",
    "HandoverDurationParams",
    "PINGPONG_RATE_PER_S",
    "PINGPONG_SEQ_OFFSET",
    "VERTICAL_DURATION_FACTOR",
]


@dataclass(frozen=True, slots=True)
class HandoverDurationParams:
    """Lognormal duration parameters (milliseconds)."""

    median_ms: float
    sigma: float = 0.45

    def sample(self, rng: np.random.Generator) -> float:
        value = rng.lognormal(mean=math.log(self.median_ms), sigma=self.sigma)
        return clamp(float(value), 8.0, 2000.0)


#: Fig. 11b medians: (operator, direction) -> median HO duration in ms.
DURATION_MEDIANS_MS = MappingProxyType({
    (Operator.VERIZON, Direction.DOWNLINK): 53.0,
    (Operator.VERIZON, Direction.UPLINK): 49.0,
    (Operator.TMOBILE, Direction.DOWNLINK): 76.0,
    (Operator.TMOBILE, Direction.UPLINK): 75.0,
    (Operator.ATT, Direction.DOWNLINK): 58.0,
    (Operator.ATT, Direction.UPLINK): 57.0,
})

#: Per-second probability of a ping-pong handover (no zone change).
PINGPONG_RATE_PER_S = 0.008

#: A ping-pong bounces to a phantom neighbour of the same layer, numbered
#: this far above the serving cell's sequence.
PINGPONG_SEQ_OFFSET = 500_000

#: Vertical handovers take longer than intra-technology ones (extra RRC
#: reconfiguration, NSA leg setup).
VERTICAL_DURATION_FACTOR = 1.35
