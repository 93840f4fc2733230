"""Inferring operator policies back from measurement data.

§4.1 ends with conjectures: *"operators might be conservative and do not
upgrade to 5G when the network traffic demand is low"* and *"operators are
more willing to upgrade UEs to high-speed 5G in the presence of heavy
downlink traffic"*.  This module turns those conjectures into estimators a
measurement dataset can answer quantitatively:

* the **idle-upgrade rate** — how often a passively camped UE sits on 5G in
  places where active probing proves 5G is deployed (per timezone: T-Mobile's
  east/west policy split becomes directly visible);
* the **uplink demotion rate** — how often a location whose downlink test ran
  on high-speed 5G served the uplink test with something slower.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.geo.timezones import Timezone
from repro.radio.operators import Operator
from repro.store.query import Eq, Source, select_rows

__all__ = ["IdleUpgradeEstimate", "estimate_idle_upgrade_rates", "estimate_ul_demotion_rate"]

#: Spatial bin used to co-locate passive and active observations (meters).
_LOCATION_BIN_M = 2_000.0


@dataclass(frozen=True)
class IdleUpgradeEstimate:
    """Estimated idle 5G-upgrade behaviour for one operator."""

    operator: Operator
    #: P(passive logger on 5G | active tests saw 5G here), per timezone.
    rate_by_timezone: dict[Timezone, float]
    #: Number of co-located bins backing each estimate.
    support_by_timezone: dict[Timezone, int]

    @property
    def overall_rate(self) -> float:
        total = sum(self.support_by_timezone.values())
        if total == 0:
            raise AnalysisError("no co-located observations")
        return sum(
            self.rate_by_timezone[tz] * self.support_by_timezone[tz]
            for tz in self.rate_by_timezone
        ) / total


def estimate_idle_upgrade_rates(
    source: Source, operator: Operator
) -> IdleUpgradeEstimate:
    """Estimate how readily an operator upgrades idle UEs to deployed 5G.

    For each ~2 km location bin where the *active* throughput tests observed
    5G service (proof of deployment), check whether the *passive*
    handover-logger camped on 5G there too.
    """
    # Active view: bins where 5G provably exists.
    active_5g_bins: dict[int, Timezone] = {}
    driving = (Eq("operator", operator), Eq("static", False))
    for mark_m, tech, tz in select_rows(
        source, "tput", ("mark_m", "tech", "timezone"), driving
    ):
        if tech.is_5g:
            active_5g_bins[int(mark_m / _LOCATION_BIN_M)] = tz

    # Passive view per bin: was the logger on 5G for most of the bin?
    passive_5g_weight: dict[int, float] = {}
    passive_weight: dict[int, float] = {}
    for start_m, end_m, tech in select_rows(
        source, "passive", ("start_m", "end_m", "tech"), (Eq("operator", operator),)
    ):
        first = int(start_m / _LOCATION_BIN_M)
        last = int(end_m / _LOCATION_BIN_M)
        for b in range(first, last + 1):
            if b not in active_5g_bins:
                continue
            lo = max(start_m, b * _LOCATION_BIN_M)
            hi = min(end_m, (b + 1) * _LOCATION_BIN_M)
            overlap = max(hi - lo, 0.0)
            passive_weight[b] = passive_weight.get(b, 0.0) + overlap
            if tech.is_5g:
                passive_5g_weight[b] = passive_5g_weight.get(b, 0.0) + overlap

    hits: dict[Timezone, int] = {tz: 0 for tz in Timezone}
    support: dict[Timezone, int] = {tz: 0 for tz in Timezone}
    for b, tz in active_5g_bins.items():
        weight = passive_weight.get(b, 0.0)
        if weight <= 0.0:
            continue
        support[tz] += 1
        if passive_5g_weight.get(b, 0.0) / weight > 0.5:
            hits[tz] += 1
    if sum(support.values()) == 0:
        raise AnalysisError(f"no co-located passive/active bins for {operator}")
    rates = {
        tz: (hits[tz] / support[tz]) if support[tz] else 0.0 for tz in Timezone
    }
    return IdleUpgradeEstimate(
        operator=operator, rate_by_timezone=rates, support_by_timezone=support
    )


def estimate_ul_demotion_rate(source: Source, operator: Operator) -> float:
    """P(uplink served by something below high-speed 5G | downlink test at
    the same ~2 km location ran on high-speed 5G).

    The paper's Fig. 2b conjecture quantified: values near 0 mean the
    operator grants high-speed 5G symmetrically; values near 1 mean uplink
    backlogs are demoted.
    """
    driving = (Eq("operator", operator), Eq("static", False))
    dl, ul = (
        select_rows(source, "tput", ("mark_m", "tech"), (*driving, Eq("direction", d)))
        for d in ("downlink", "uplink")
    )
    dl_hs_bins = {
        int(mark_m / _LOCATION_BIN_M) for mark_m, tech in dl if tech.is_high_throughput
    }
    if not dl_hs_bins:
        raise AnalysisError(f"no high-speed-5G downlink locations for {operator}")

    demoted = 0
    kept = 0
    for mark_m, tech in ul:
        if int(mark_m / _LOCATION_BIN_M) not in dl_hs_bins:
            continue
        if tech.is_high_throughput:
            kept += 1
        else:
            demoted += 1
    total = demoted + kept
    if total == 0:
        raise AnalysisError(f"no co-located uplink samples for {operator}")
    return demoted / total
