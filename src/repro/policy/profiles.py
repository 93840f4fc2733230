"""Calibrated per-operator technology-selection policy profiles.

Each profile answers: *given the set of technologies deployed at the UE's
location, which one actually serves, for a given traffic profile?*

Calibration targets:

* **Idle/keep-alive traffic** (Fig. 1, the handover-logger view): AT&T keeps
  idle UEs on LTE/LTE-A along the whole route; Verizon mostly does too;
  T-Mobile's behaviour is *regional* — the paper observed the passive and
  active views agreeing in the east half of the country but diverging in the
  west half (§4.1).
* **Backlogged uplink** (Fig. 2b): all carriers show less high-speed 5G in
  the uplink; Verizon and AT&T additionally show less 5G *overall* in the
  uplink, preferring 5G-low or LTE-A.
* mmWave under idle/ICMP traffic is rare and city-bound (Fig. 8's missing
  mmWave points except near 0 mph; §5.1's AT&T RTT-over-LTE anecdote).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.geo.timezones import Timezone
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology

__all__ = ["TrafficProfile", "DemotionRule", "PolicyProfile", "DEFAULT_POLICY_PROFILES"]

_LTE = RadioTechnology.LTE
_LTE_A = RadioTechnology.LTE_A
_NR_LOW = RadioTechnology.NR_LOW
_NR_MID = RadioTechnology.NR_MID
_NR_MM = RadioTechnology.NR_MMWAVE


class TrafficProfile(enum.Enum):
    """The UE's traffic pattern, as seen by the operator's scheduler."""

    #: Members are singletons: hash by identity, not by name (see
    #: :class:`~repro.radio.technology.RadioTechnology`).
    __hash__ = object.__hash__

    #: 38-byte ICMP every 200 ms (handover-logger keep-alive) or a ping test.
    IDLE_PING = "idle"
    #: Saturating TCP download (nuttcp DL, video streaming, cloud gaming).
    BACKLOGGED_DL = "backlogged_dl"
    #: Saturating TCP upload (nuttcp UL, AR/CAV frame offload).
    BACKLOGGED_UL = "backlogged_ul"


#: A demotion rule: probabilities of the technology that *actually* serves
#: when ``source`` is the best deployed technology.  Probabilities must sum
#: to 1; targets not deployed at a location cascade downward at selection
#: time.
DemotionRule = dict[RadioTechnology, float]


def _rule(**kw: float) -> DemotionRule:
    by_name = {t.name.lower(): t for t in RadioTechnology}
    rule = {by_name[k]: v for k, v in kw.items()}
    total = sum(rule.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"demotion rule sums to {total}")
    return rule


@dataclass(frozen=True)
class PolicyProfile:
    """One operator's selection behaviour across traffic profiles."""

    operator: Operator
    #: Backlogged-UL serving outcome given the best deployed technology.
    ul_demotion: dict[RadioTechnology, DemotionRule]
    #: Probability an idle UE is upgraded to a deployed 5G tech at all,
    #: by timezone (T-Mobile's east/west split lives here).
    idle_5g_upgrade_prob: dict[Timezone, float]
    #: Probability an idle UE in a city is served by deployed mmWave.
    idle_mmwave_city_prob: float = 0.0
    #: Probability a backlogged-DL UE is *not* upgraded to the best tech
    #: (momentary policy conservatism; keeps active coverage slightly below
    #: the deployment ceiling).
    dl_hold_back_prob: float = 0.04


DEFAULT_POLICY_PROFILES: dict[Operator, PolicyProfile] = {
    Operator.VERIZON: PolicyProfile(
        operator=Operator.VERIZON,
        ul_demotion={
            _NR_MM: _rule(nr_mmwave=0.25, nr_mid=0.15, nr_low=0.30, lte_a=0.30),
            _NR_MID: _rule(nr_mid=0.40, nr_low=0.25, lte_a=0.35),
            _NR_LOW: _rule(nr_low=0.60, lte_a=0.40),
            _LTE_A: _rule(lte_a=1.0),
            _LTE: _rule(lte=1.0),
        },
        idle_5g_upgrade_prob={tz: 0.12 for tz in Timezone},
        idle_mmwave_city_prob=0.18,
    ),
    Operator.TMOBILE: PolicyProfile(
        operator=Operator.TMOBILE,
        ul_demotion={
            _NR_MM: _rule(nr_mmwave=0.40, nr_mid=0.30, nr_low=0.30),
            _NR_MID: _rule(nr_mid=0.60, nr_low=0.40),
            _NR_LOW: _rule(nr_low=0.90, lte_a=0.10),
            _LTE_A: _rule(lte_a=1.0),
            _LTE: _rule(lte=1.0),
        },
        # East half (Central/Eastern) upgrades idle UEs much more readily —
        # the paper's Fig. 1c/1f agreement in the east, divergence in the
        # west.
        idle_5g_upgrade_prob={
            Timezone.PACIFIC: 0.15,
            Timezone.MOUNTAIN: 0.15,
            Timezone.CENTRAL: 0.85,
            Timezone.EASTERN: 0.85,
        },
        idle_mmwave_city_prob=0.10,
    ),
    Operator.ATT: PolicyProfile(
        operator=Operator.ATT,
        ul_demotion={
            _NR_MM: _rule(nr_mmwave=0.30, nr_low=0.30, lte_a=0.40),
            _NR_MID: _rule(nr_mid=0.40, nr_low=0.30, lte_a=0.30),
            _NR_LOW: _rule(nr_low=0.55, lte_a=0.45),
            _LTE_A: _rule(lte_a=1.0),
            _LTE: _rule(lte=1.0),
        },
        # AT&T never upgraded the passive logger: LTE/LTE-A only (Fig. 1d).
        idle_5g_upgrade_prob={tz: 0.0 for tz in Timezone},
        # ...but a handful of city mmWave RTT samples exist (Fig. 8).
        idle_mmwave_city_prob=0.08,
    ),
}
