"""Technology selection: which deployed technology actually serves a UE.

Combines the deployment (what exists at this location) with the operator's
policy profile (what the scheduler grants for this traffic).  Selections are
*sticky per zone and traffic profile*: the serving configuration changes at
handovers, not at every sample, matching how real RRC state behaves and how
the paper measures coverage in miles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rng import choose_weighted

from repro.geo.regions import ALL_REGION_TYPES, RegionType
from repro.geo.timezones import ALL_TIMEZONES
from repro.policy.profiles import DEFAULT_POLICY_PROFILES, PolicyProfile, TrafficProfile
from repro.radio.deployment import DEPLOYED_SETS, DeploymentZone
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology

__all__ = ["TechnologySelector", "idle_technologies"]

_LTE = RadioTechnology.LTE
_LTE_A = RadioTechnology.LTE_A
_NR_LOW = RadioTechnology.NR_LOW
_NR_MID = RadioTechnology.NR_MID
_NR_MM = RadioTechnology.NR_MMWAVE
_CITY = ALL_REGION_TYPES.index(RegionType.CITY)

# Idle-decision tables over deployed-set bitmasks (see DEPLOYED_SETS),
# shared by the per-zone selector and the vectorized idle walk.

#: Bitmask of each deployed set.
_MASK_OF: dict[frozenset[RadioTechnology], int] = {
    deployed: mask for mask, deployed in enumerate(DEPLOYED_SETS)
}

#: ``_CASCADE[mask][rank]``: rank of the most capable technology of the
#: deployed set ``mask`` at or below ``rank``; LTE's if there is none.
_CASCADE = np.array(
    [
        [max((t.rank for t in deployed if t.rank <= r), default=_LTE.rank)
         for r in range(len(ALL_TECHNOLOGIES))]
        for deployed in DEPLOYED_SETS
    ],
    dtype=np.int8,
)

#: ``_BEST_4G[mask]``: rank of the most capable 4G technology deployed
#: (LTE always is).
_BEST_4G = np.array(
    [_LTE_A.rank if _LTE_A in deployed else _LTE.rank for deployed in DEPLOYED_SETS],
    dtype=np.int8,
)

# The same tables as nested tuples of members, for one zone at a time.
_CASCADE_TECH = tuple(tuple(ALL_TECHNOLOGIES[r] for r in row) for row in _CASCADE.tolist())
_BEST_4G_TECH = tuple(ALL_TECHNOLOGIES[r] for r in _BEST_4G.tolist())


def _best_deployed_4g(zone: DeploymentZone) -> RadioTechnology:
    """The most capable 4G technology deployed in a zone (LTE always is)."""
    return _BEST_4G_TECH[_MASK_OF[zone.deployed]]


def _cascade_down(zone: DeploymentZone, target: RadioTechnology) -> RadioTechnology:
    """Resolve ``target`` to a technology actually deployed in ``zone``,
    walking down the capability ranking if needed."""
    return _CASCADE_TECH[_MASK_OF[zone.deployed]][target.rank]


def _upgrade_probs(profile: PolicyProfile) -> np.ndarray:
    """The idle 5G upgrade probability by timezone code."""
    return np.array([profile.idle_5g_upgrade_prob[tz] for tz in ALL_TIMEZONES])


def idle_technologies(
    profile: PolicyProfile,
    rng: np.random.Generator,
    best_tech: np.ndarray,
    region: np.ndarray,
    timezone: np.ndarray,
    deployed: np.ndarray,
) -> np.ndarray:
    """Technology ranks an idle (keep-alive) UE camps on, zone by zone.

    The arguments after ``rng`` are zone arrays in route order, coded as
    in a :class:`~repro.radio.deployment.ZoneLayer`.  The result is what a
    fresh :class:`TechnologySelector` on ``rng`` selects under
    ``IDLE_PING`` visiting those zones in order, draw for draw.

    The per-zone decision draws a uniform only while its cascade is open:
    one for a city zone whose best technology is mmWave (served by mmWave
    if below ``idle_mmwave_city_prob``), then one for any 5G zone not
    already on mmWave (upgraded if below the timezone's probability).  So
    only a city mmWave zone's draw count depends on a draw.  This walk
    draws every uniform the zones could need in one block (a block yields
    the values scalar draws would), matches zones to draws with one integer
    loop over the city mmWave zones, and resolves the cascade with table
    lookups.  Unused uniforms at the end of the block are drawn but never
    read, so ``rng`` must be a stream of its own.
    """
    city_mm = (best_tech == _NR_MM.rank) & (region == _CITY)
    is_5g = best_tech >= _NR_LOW.rank
    n_draws = city_mm.astype(np.int64) + is_5g
    u = rng.random(int(n_draws.sum()))
    # Index of each zone's first draw, as if no zone were served by mmWave.
    first = np.cumsum(n_draws) - n_draws
    on_mmwave = np.zeros(best_tech.size, dtype=bool)
    shift = 0  # upgrade draws skipped so far
    for i in np.flatnonzero(city_mm).tolist():
        if u[first[i] - shift] < profile.idle_mmwave_city_prob:
            on_mmwave[i] = True
            shift += 1
    first -= np.cumsum(on_mmwave) - on_mmwave
    upgrade = np.flatnonzero(is_5g & ~on_mmwave)
    upgraded = np.zeros(best_tech.size, dtype=bool)
    upgraded[upgrade] = (
        u[first[upgrade] + city_mm[upgrade]]
        < _upgrade_probs(profile)[timezone[upgrade]]
    )
    # Idle upgrades land on the best non-mmWave NR layer deployed.
    upgrade_to = np.where(
        best_tech == _NR_MM.rank, _CASCADE[deployed, _NR_MID.rank], best_tech
    )
    tech = np.where(upgraded, upgrade_to, _BEST_4G[deployed])
    tech[on_mmwave] = _NR_MM.rank
    return tech


@dataclass
class TechnologySelector:
    """Per-operator, per-UE serving-technology decision maker.

    Examples
    --------
    The selector is deterministic per (zone, traffic profile) within one UE
    session: repeated queries while driving through a zone return the same
    serving technology.
    """

    operator: Operator
    rng: np.random.Generator
    profile: PolicyProfile | None = None
    _sticky: dict[tuple[int, TrafficProfile], RadioTechnology] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.profile is None:
            self.profile = DEFAULT_POLICY_PROFILES[self.operator]
        elif self.profile.operator is not self.operator:
            raise ValueError(
                f"profile for {self.profile.operator} used with {self.operator}"
            )

    def select(self, zone: DeploymentZone, traffic: TrafficProfile) -> RadioTechnology:
        """Serving technology for this zone under the given traffic profile."""
        key = (zone.index, traffic)
        cached = self._sticky.get(key)
        if cached is not None:
            return cached
        tech = self._decide(zone, traffic)
        self._sticky[key] = tech
        # Keep the sticky cache bounded; old zones are never revisited.
        if len(self._sticky) > 256:
            for old_key in list(self._sticky)[:-128]:
                del self._sticky[old_key]
        return tech

    def _decide(self, zone: DeploymentZone, traffic: TrafficProfile) -> RadioTechnology:
        if traffic is TrafficProfile.BACKLOGGED_DL:
            if self.rng.random() < self.profile.dl_hold_back_prob:
                return _cascade_down(zone, RadioTechnology.NR_LOW)
            return zone.best_tech

        if traffic is TrafficProfile.BACKLOGGED_UL:
            rule = self.profile.ul_demotion[zone.best_tech]
            target = choose_weighted(self.rng, list(rule.keys()), list(rule.values()))
            return _cascade_down(zone, target)

        # Idle / keep-alive traffic: conservative upgrades only.
        if (
            zone.best_tech is RadioTechnology.NR_MMWAVE
            and zone.region is RegionType.CITY
            and self.rng.random() < self.profile.idle_mmwave_city_prob
        ):
            return RadioTechnology.NR_MMWAVE
        upgrade_prob = self.profile.idle_5g_upgrade_prob[zone.timezone]
        if zone.best_tech.is_5g and self.rng.random() < upgrade_prob:
            # Idle upgrades land on the best non-mmWave NR layer deployed.
            if zone.best_tech is RadioTechnology.NR_MMWAVE:
                return _cascade_down(zone, RadioTechnology.NR_MID)
            return zone.best_tech
        return _best_deployed_4g(zone)
