"""Single-flow TCP throughput model (CUBIC-inspired).

The paper deliberately measured with **one** TCP CUBIC connection (nuttcp's
default) "to measure the performance that would be experienced by
applications ... instead of measuring peak performance" (§5).  A single flow
ramps slowly after losses and handovers, which is a large part of why driving
medians sit at a few tens of Mbps under links whose PHY capacity is hundreds.

We simulate the congestion window in the rate domain at the 500 ms tick
scale: slow-start doubling until the first loss, CUBIC's concave-convex
window growth between losses, multiplicative decrease (β = 0.7) on loss.
Loss events arise from link-layer residual errors (RLC gives up under deep
fades), from queue overflow whenever the flow saturates the link capacity,
and from handover interruptions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CubicFlow"]

#: CUBIC's multiplicative decrease factor.
_BETA = 0.7
#: CUBIC's scaling constant (window units: Mbit of in-flight data).
_CUBIC_C = 0.4
#: Probability per tick that a saturated queue drops (tail-drop AQM-less).
_SATURATION_LOSS_PROB = 0.35
#: Residual random loss per tick scales with BLER.
_BLER_LOSS_FACTOR = 0.35


@dataclass
class CubicFlow:
    """One long-lived TCP flow over a time-varying link.

    Call :meth:`advance` once per tick with the instantaneous link capacity
    and RTT; it returns the goodput achieved during that tick in Mbps.

    Examples
    --------
    >>> import numpy as np
    >>> flow = CubicFlow(rng=np.random.default_rng(0))
    >>> tput = [flow.advance(capacity_mbps=100.0, rtt_ms=50.0, dt_s=0.5,
    ...                      bler=0.05) for _ in range(20)]
    >>> max(tput) <= 100.0
    True
    """

    #: The loss draws' source: a generator, or anything with its
    #: ``random()`` (:class:`~repro.rng.BufferedUniforms`).
    rng: np.random.Generator
    #: Initial window expressed as a rate seed (IW10 over a typical RTT).
    initial_rate_mbps: float = 1.2

    def __post_init__(self) -> None:
        self._w_mbit: float = self.initial_rate_mbps * 0.05  # window in Mbit
        self._w_max_mbit: float = 0.0
        self._slow_start = True
        self._ssthresh_mbit = float("inf")
        self._t_since_loss_s = 0.0

    @property
    def window_mbit(self) -> float:
        """Current congestion window in megabits of in-flight data."""
        return self._w_mbit

    def advance(
        self,
        capacity_mbps: float,
        rtt_ms: float,
        dt_s: float,
        bler: float,
        interruption_s: float = 0.0,
    ) -> float:
        """Advance the flow by one tick; return achieved goodput in Mbps.

        Parameters
        ----------
        capacity_mbps:
            Link capacity available to this flow during the tick.
        rtt_ms:
            Current round-trip time (window-to-rate conversion and growth
            pacing).
        dt_s:
            Tick duration in seconds.
        bler:
            Residual link error rate (drives random loss).
        interruption_s:
            Time within the tick during which the link was down (handover
            execution); no data flows then and a loss event may fire.
        """
        if capacity_mbps <= 0.0:
            raise ValueError(f"capacity must be positive, got {capacity_mbps}")
        if rtt_ms <= 0.0:
            raise ValueError(f"rtt must be positive, got {rtt_ms}")
        if not 0.0 <= interruption_s <= dt_s:
            raise ValueError("interruption must lie within the tick")
        return self.run((capacity_mbps,), (rtt_ms,), dt_s, (bler,), (interruption_s,))[0]

    def run(self, capacity_mbps, rtt_ms, dt_s: float, bler, interruption_s) -> list[float]:
        """:meth:`advance` over a block of ticks, one entry of each
        per-tick sequence per tick, unchecked; returns the goodput of every
        tick and draws exactly what the ticks would one by one."""
        random = self.rng.random
        w, w_max = self._w_mbit, self._w_max_mbit
        slow_start, ssthresh, since_loss = self._slow_start, self._ssthresh_mbit, self._t_since_loss_s
        out = []
        # ``min(a, b)`` is written ``b if b < a else a`` and ``max(a, b)``
        # ``b if b > a else a``: the same values, without the calls.
        for capacity, rtt, b, interruption in zip(capacity_mbps, rtt_ms, bler, interruption_s):
            rtt_s = rtt / 1000.0
            rate = w / rtt_s
            saturated = rate >= capacity
            achieved = capacity if capacity < rate else rate

            # Handover interruption: scale goodput by available airtime; a
            # long interruption usually costs a loss event too.
            loss = False
            if interruption > 0.0:
                achieved *= 1.0 - interruption / dt_s
                share = interruption / 0.1
                loss = random() < (1.0 if 1.0 < share else share) * 0.2
            # Loss processes.
            if not loss:
                if saturated and random() < _SATURATION_LOSS_PROB:
                    loss = True
                else:
                    p = b * _BLER_LOSS_FACTOR
                    loss = random() < (0.9 if 0.9 < p else p) * dt_s
            if loss:
                w_max = w
                w = w * _BETA
                w = ssthresh = 0.05 if 0.05 > w else w
                slow_start = False
                since_loss = 0.0
            else:
                pipe = capacity * rtt_s * 2.0
                if slow_start:
                    # Double per RTT until ssthresh; do not balloon
                    # absurdly past the pipe within a single tick.
                    w = w * 2.0 ** (dt_s / rtt_s)
                    if ssthresh < w:
                        w = ssthresh
                    if w >= ssthresh:
                        slow_start = False
                    if pipe < w:
                        w = pipe
                else:
                    since_loss += dt_s
                    k = (w_max * (1.0 - _BETA) / _CUBIC_C) ** (1.0 / 3.0)
                    target = _CUBIC_C * (since_loss - k) ** 3 + w_max
                    # CUBIC never shrinks the window during growth.
                    if pipe < target:
                        target = pipe
                    if target > w:
                        w = target
            out.append(0.0 if 0.0 > achieved else achieved)
        self._w_mbit, self._w_max_mbit = w, w_max
        self._slow_start, self._ssthresh_mbit, self._t_since_loss_s = slow_start, ssthresh, since_loss
        return out
