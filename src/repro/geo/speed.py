"""Vehicle speed model.

The paper uses vehicle speed both as a measurement dimension (Figs. 7, 8,
Table 2) and as a proxy for the environment (0–20 mph ≈ cities, 20–60 mph ≈
suburban, 60+ mph ≈ inter-state highways, §4.2).  We generate a speed process
per region type as a mean-reverting (Ornstein–Uhlenbeck-style) AR(1) sequence:
speeds are strongly autocorrelated at the 500 ms sample scale, but wander
within the region's envelope, including full stops at city lights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.regions import RegionType
from repro.units import mph_to_mps

__all__ = ["RegionSpeedParams", "SpeedProfile", "DEFAULT_SPEED_PARAMS"]


@dataclass(frozen=True, slots=True)
class RegionSpeedParams:
    """Mean-reversion parameters for one region type (all speeds in mph)."""

    mean_mph: float
    stddev_mph: float
    #: Mean-reversion rate per second: higher snaps back to the mean faster.
    reversion_per_s: float
    #: Probability per second of entering a stop (traffic light / congestion).
    stop_rate_per_s: float
    #: Mean stop duration in seconds.
    stop_duration_s: float

    def __post_init__(self) -> None:
        if self.mean_mph < 0 or self.stddev_mph < 0:
            raise ValueError("speed parameters must be non-negative")
        if not 0.0 <= self.stop_rate_per_s <= 1.0:
            raise ValueError("stop_rate_per_s must be a probability rate in [0,1]")


#: Calibrated so that city samples concentrate in the paper's 0–20 mph bin,
#: suburban in 20–60, highway in 60+ (with realistic spill-over).
DEFAULT_SPEED_PARAMS: dict[RegionType, RegionSpeedParams] = {
    RegionType.CITY: RegionSpeedParams(
        mean_mph=13.0, stddev_mph=6.0, reversion_per_s=0.15,
        stop_rate_per_s=0.01, stop_duration_s=25.0,
    ),
    RegionType.SUBURBAN: RegionSpeedParams(
        mean_mph=42.0, stddev_mph=9.0, reversion_per_s=0.08,
        stop_rate_per_s=0.001, stop_duration_s=15.0,
    ),
    RegionType.HIGHWAY: RegionSpeedParams(
        mean_mph=69.0, stddev_mph=4.5, reversion_per_s=0.05,
        stop_rate_per_s=0.0, stop_duration_s=0.0,
    ),
}


class SpeedProfile:
    """Stateful speed process stepped once per simulation tick.

    Examples
    --------
    >>> import numpy as np
    >>> profile = SpeedProfile(rng=np.random.default_rng(0))
    >>> v = profile.step(RegionType.HIGHWAY, dt_s=0.5)
    >>> 0.0 <= v
    True
    """

    def __init__(
        self,
        rng: np.random.Generator,
        params: dict[RegionType, RegionSpeedParams] | None = None,
    ) -> None:
        self._rng = rng
        self._params = dict(DEFAULT_SPEED_PARAMS if params is None else params)
        self._speed_mph: float | None = None
        self._stopped_until_s = 0.0
        self._clock_s = 0.0

    @property
    def current_speed_mph(self) -> float:
        """Last stepped speed in mph (0 before the first step)."""
        return 0.0 if self._speed_mph is None else self._speed_mph

    @property
    def current_speed_mps(self) -> float:
        """Last stepped speed in meters/second."""
        return mph_to_mps(self.current_speed_mph)

    def step(self, region: RegionType, dt_s: float) -> float:
        """Advance the process by ``dt_s`` seconds in ``region``; return mph.

        The first step initialises the speed from the region's stationary
        distribution.  Region changes (city → highway etc.) are handled by
        mean reversion toward the new region's mean, which produces natural
        acceleration/deceleration ramps.
        """
        if dt_s <= 0.0:
            raise ValueError(f"dt_s must be positive, got {dt_s}")
        p = self._params[region]
        self._clock_s += dt_s

        if self._speed_mph is None:
            self._speed_mph = max(
                float(self._rng.normal(p.mean_mph, p.stddev_mph)), 0.0
            )
            return self._speed_mph

        # Currently held at a stop?
        if self._clock_s < self._stopped_until_s:
            self._speed_mph = 0.0
            return 0.0

        # New stop event?
        if p.stop_rate_per_s > 0.0 and self._rng.random() < p.stop_rate_per_s * dt_s:
            duration = self._rng.exponential(p.stop_duration_s)
            self._stopped_until_s = self._clock_s + duration
            self._speed_mph = 0.0
            return 0.0

        theta = p.reversion_per_s
        # math.sqrt and np.sqrt are both the correctly rounded square root.
        sigma = p.stddev_mph * math.sqrt(2.0 * theta)
        drift = theta * (p.mean_mph - self._speed_mph) * dt_s
        noise = sigma * math.sqrt(dt_s) * self._rng.standard_normal()
        self._speed_mph = max(self._speed_mph + drift + noise, 0.0)
        return self._speed_mph

    def distance_travelled_m(self, dt_s: float) -> float:
        """Distance covered during a tick at the current speed."""
        return self.current_speed_mps * dt_s
