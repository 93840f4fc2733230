"""Round-trip time parameters.

RTT decomposes into: wired path to the server (propagation over fibre plus
core-network overhead — small for in-network edge servers), the radio access
network's scheduling/HARQ latency (technology-dependent, lowest for mmWave's
short slots), and a driving-induced jitter component with a heavy tail
(paper: driving medians 60–76 ms with maxima of 2–3 *seconds*, Fig. 3b,
versus 8 ms minima for Verizon mmWave to an edge server, §5.2).

The paper also observes (Fig. 8) that RTT correlates with vehicle speed for
Verizon and T-Mobile but not AT&T, whose LTE RTTs are high at any speed —
modelled with a per-operator speed sensitivity.  The test-block kernel
(:mod:`repro.campaign.link`) samples RTTs from these parameters.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.net.servers import ServerKind
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES

__all__ = [
    "CORE_OVERHEAD_MS",
    "DRIVING_JITTER_MEDIAN_MS",
    "DRIVING_JITTER_SCALE",
    "DRIVING_JITTER_SIGMA",
    "FIBRE_RTT_MS_PER_KM",
    "RETRANSMIT_MEAN_MS",
    "SPEED_SENSITIVITY",
    "SPIKE_CAP_MS",
    "SPIKE_MEAN_MS",
    "SPIKE_PROB",
    "STATIC_JITTER_MEDIAN_MS",
    "STATIC_JITTER_SIGMA",
    "extra_core_ms",
]

#: Two-way propagation in fibre: ~2 ms RTT per 100 km of geodesic distance
#: (0.01 ms/km each way, doubled again for fibre path stretch).
FIBRE_RTT_MS_PER_KM = 0.02

#: Fixed processing/routing overhead by server kind (ms, round trip).
CORE_OVERHEAD_MS = MappingProxyType({ServerKind.CLOUD: 12.0, ServerKind.EDGE: 2.0})

#: Driving jitter: lognormal median (ms) added on top of the base path.
DRIVING_JITTER_MEDIAN_MS = 11.0
DRIVING_JITTER_SIGMA = 0.8
STATIC_JITTER_MEDIAN_MS = 2.5
STATIC_JITTER_SIGMA = 0.5

#: Link-layer retransmission delay: exponential mean (ms).  A sample
#: retransmits with probability half its block error rate.
RETRANSMIT_MEAN_MS = 30.0

#: Heavy-tail spike: probability per driving sample, exponential mean and
#: cap (ms).
SPIKE_PROB = 0.004
SPIKE_MEAN_MS = 350.0
SPIKE_CAP_MS = 3000.0

#: Per-operator sensitivity of jitter to speed (Fig. 8): Verizon and
#: T-Mobile RTTs grow with speed, AT&T's barely do.
SPEED_SENSITIVITY = MappingProxyType({
    Operator.VERIZON: 0.55,
    Operator.TMOBILE: 0.60,
    Operator.ATT: 0.10,
})

#: Per-operator scaling of the driving jitter (T-Mobile's core adds more
#: variable latency; Fig. 9 medians 64/82/81 ms for V/T/A).
DRIVING_JITTER_SCALE = MappingProxyType({
    Operator.VERIZON: 0.85,
    Operator.TMOBILE: 1.45,
    Operator.ATT: 1.0,
})

#: AT&T carries a fixed extra core latency on its 4G path (Fig. 8: LTE/LTE-A
#: RTTs higher than 5G in every speed bin; Fig. 3a: high static RTTs).
_ATT_4G_EXTRA_MS = 10.0


def extra_core_ms(operator: Operator) -> tuple[float, ...]:
    """``operator``'s extra core latency by technology rank (ms)."""
    return tuple(
        _ATT_4G_EXTRA_MS if (operator is Operator.ATT and tech.is_4g) else 0.0
        for tech in ALL_TECHNOLOGIES
    )
