"""Round-trip time model.

RTT decomposes into: wired path to the server (propagation over fibre plus
core-network overhead — small for in-network edge servers), the radio access
network's scheduling/HARQ latency (technology-dependent, lowest for mmWave's
short slots), and a driving-induced jitter component with a heavy tail
(paper: driving medians 60–76 ms with maxima of 2–3 *seconds*, Fig. 3b,
versus 8 ms minima for Verizon mmWave to an edge server, §5.2).

The paper also observes (Fig. 8) that RTT correlates with vehicle speed for
Verizon and T-Mobile but not AT&T, whose LTE RTTs are high at any speed —
modelled with a per-operator speed sensitivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.coords import LatLon
from repro.net.servers import Server, ServerKind
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology

__all__ = ["RttModel"]

#: Two-way propagation in fibre: ~2 ms RTT per 100 km of geodesic distance
#: (0.01 ms/km each way, doubled again for fibre path stretch).
_FIBRE_RTT_MS_PER_KM = 0.02

#: Fixed processing/routing overhead by server kind (ms, round trip).
_CORE_OVERHEAD_MS = {ServerKind.CLOUD: 12.0, ServerKind.EDGE: 2.0}

#: Driving jitter: lognormal median (ms) added on top of the base path.
_DRIVING_JITTER_MEDIAN_MS = 11.0
_DRIVING_JITTER_SIGMA = 0.8
_STATIC_JITTER_MEDIAN_MS = 2.5
_STATIC_JITTER_SIGMA = 0.5

#: Heavy-tail spike: probability per sample, and exponential mean (ms).
_SPIKE_PROB = 0.004
_SPIKE_MEAN_MS = 350.0
_SPIKE_CAP_MS = 3000.0

#: Per-operator sensitivity of jitter to speed (Fig. 8): Verizon and
#: T-Mobile RTTs grow with speed, AT&T's barely do.
_SPEED_SENSITIVITY = {
    Operator.VERIZON: 0.55,
    Operator.TMOBILE: 0.60,
    Operator.ATT: 0.10,
}

#: Per-operator scaling of the driving jitter (T-Mobile's core adds more
#: variable latency; Fig. 9 medians 64/82/81 ms for V/T/A).
_DRIVING_JITTER_SCALE = {
    Operator.VERIZON: 0.85,
    Operator.TMOBILE: 1.45,
    Operator.ATT: 1.0,
}

#: AT&T carries a fixed extra core latency on its 4G path (Fig. 8: LTE/LTE-A
#: RTTs higher than 5G in every speed bin; Fig. 3a: high static RTTs).
_ATT_4G_EXTRA_MS = 10.0


@dataclass
class RttModel:
    """Samples RTTs for one operator's UE.

    Each draw kind has its own stream, with a fixed count per sample: one
    jitter normal from ``rng``, two uniforms (retransmission, spike) from
    ``loss_rng`` and two exponentials (their delays) from ``tail_rng``,
    drawn whether or not they fire.
    """

    operator: Operator
    rng: np.random.Generator
    loss_rng: np.random.Generator
    tail_rng: np.random.Generator

    def __post_init__(self) -> None:
        # This operator's constants; the extra core latency by tech rank.
        self._speed_sensitivity = _SPEED_SENSITIVITY[self.operator]
        self._jitter_scale = _DRIVING_JITTER_SCALE[self.operator]
        self._extra_ms = tuple(
            _ATT_4G_EXTRA_MS if (self.operator is Operator.ATT and tech.is_4g) else 0.0
            for tech in ALL_TECHNOLOGIES
        )

    def base_rtt_ms(self, server: Server, position: LatLon, tech: RadioTechnology) -> float:
        """Deterministic RTT floor: wired path + RAN scheduling latency."""
        path = server.distance_m(position) / 1000.0 * _FIBRE_RTT_MS_PER_KM
        ran = 2.0 * tech.ran_latency_ms  # grant + scheduling in each direction
        extra = self._extra_ms[tech.rank]
        return _CORE_OVERHEAD_MS[server.kind] + path + ran + extra

    def sample_rtt_ms(
        self,
        server: Server,
        position: LatLon,
        tech: RadioTechnology,
        speed_mph: float,
        static: bool = False,
        bler: float = 0.05,
    ) -> float:
        """One RTT sample (ICMP echo) in milliseconds.

        Parameters
        ----------
        static:
            True for the parked baseline measurements (small jitter, no
            speed effect).
        bler:
            Residual block error rate of the link; errors trigger HARQ/RLC
            retransmission delays.
        """
        base = self.base_rtt_ms(server, position, tech)
        if static:
            jitter = self.rng.lognormal(math.log(_STATIC_JITTER_MEDIAN_MS), _STATIC_JITTER_SIGMA)
        else:
            speed_factor = 1.0 + self._speed_sensitivity * max(speed_mph, 0.0) / 60.0
            median = _DRIVING_JITTER_MEDIAN_MS * speed_factor * self._jitter_scale
            jitter = self.rng.lognormal(math.log(median), _DRIVING_JITTER_SIGMA)
        retransmit, spike = self.loss_rng.random(), self.loss_rng.random()
        retransmit_ms = self.tail_rng.exponential(30.0)
        spike_ms = self.tail_rng.exponential(_SPIKE_MEAN_MS)
        rtt = base + jitter
        # Link-layer retransmissions under lossy conditions.
        if retransmit < bler * 0.5:
            rtt += retransmit_ms
        # Rare deep spikes (RRC reestablishment, buffer excursions).
        if not static and spike < _SPIKE_PROB:
            rtt += min(spike_ms, _SPIKE_CAP_MS)
        return float(rtt)
