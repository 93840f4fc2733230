"""The passive "handover-logger" phones (paper §3).

Three additional unrooted phones — one per carrier — ran for the entire
8-day trip with a custom Android app sending a 38-byte ICMP ping every
200 ms to keep the radio out of sleep, while logging GPS, cell ids and the
serving cellular technology via Android APIs.  Because this keep-alive
traffic is far below any upgrade threshold, the operators' conservative
policies kept these phones on LTE/LTE-A across most of the country — the
root of Fig. 1's passive/active disparity.

This module models that logger as a walk over the operator's deployment
arrays.  The technology of every active zone in the walked span comes from
:func:`~repro.policy.selection.idle_technologies`, the idle-policy decision
of all the zones at once from one block of draws, and the logger emits the
span's passive coverage rows straight as a ``passive``
:class:`~repro.store.columnar.ColumnTable` (no record objects).  It also
counts the macro-grid handovers that dominate Table 1's trip-wide handover
totals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.geo.regions import ALL_REGION_TYPES
from repro.geo.timezones import ALL_TIMEZONES
from repro.policy.profiles import DEFAULT_POLICY_PROFILES, PolicyProfile
from repro.policy.selection import idle_technologies
from repro.radio.cells import CellId
from repro.radio.deployment import DeploymentModel
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES
from repro.store.columnar import ColumnTable
from repro.units import (
    HANDOVER_LOGGER_PING_INTERVAL_S,
    HANDOVER_LOGGER_PING_PAYLOAD_BYTES,
)

__all__ = ["HandoverLoggerTrace", "run_handover_logger"]

#: Dictionary values of the passive table's enum columns, in code order.
_NAMES = {
    "tech": tuple(t.name for t in ALL_TECHNOLOGIES),
    "timezone": tuple(tz.name for tz in ALL_TIMEZONES),
    "region": tuple(r.name for r in ALL_REGION_TYPES),
}


@dataclass(frozen=True)
class HandoverLoggerTrace:
    """Everything one passive phone recorded over its stretch of the trip."""

    operator: Operator
    #: The passive coverage, one row per zone walked, as a ``passive``
    #: column table.
    table: ColumnTable
    #: Handovers on the macro (LTE anchor) grid — summed over the whole
    #: trip, the Table 1 numbers (2657/4119/2494 for V/T/A).
    macro_handovers: int
    #: Distinct macro cells camped on, as ``seq << 3 | tech rank`` keys
    #: (:meth:`~repro.radio.deployment.ZoneLayer.cell_keys`).
    macro_cell_keys: frozenset[int]

    @functools.cached_property
    def macro_cell_ids(self) -> frozenset[CellId]:
        """Distinct macro cells camped on, built on first use."""
        return frozenset(
            CellId(self.operator, ALL_TECHNOLOGIES[key & 7], key >> 3)
            for key in self.macro_cell_keys
        )

    @property
    def total_length_m(self) -> float:
        lengths = self.table.arrays["end_m"] - self.table.arrays["start_m"]
        return sum(lengths.tolist())

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
    profile: PolicyProfile | None = None,
) -> HandoverLoggerTrace:
    """Walk the deployment as the passive logger phone over
    ``[start_m, end_m)``.

    The technology view comes from the active-layer deployment under the
    idle policy of ``profile`` (the operator's default when ``None``):
    what Android's API would report.  ``rng`` must be a stream of its own
    (see :func:`~repro.policy.selection.idle_technologies`).  The handover
    count comes from the macro anchor grid the idle UE actually camps on.
    Every zone overlapping the span is walked, the first and last clipped
    to it, so loggers walking adjacent route windows tile the route.  Each
    macro zone starting inside ``[start_m, end_m)`` past 0 is one handover,
    so the windows' counts add up to the whole route's whatever the window
    plan.
    """
    if profile is None:
        profile = DEFAULT_POLICY_PROFILES[operator]
    elif profile.operator is not operator:
        raise ValueError(f"profile for {profile.operator} used with {operator}")
    layer = deployment.zones
    zones = layer.overlapping(start_m, end_m)
    a = {
        name: layer.arrays[name][zones]
        for name in ("start_m", "end_m", "best_tech", "region", "timezone", "deployed")
    }
    tech = idle_technologies(
        profile, rng, a["best_tech"], a["region"], a["timezone"], a["deployed"]
    )
    table = ColumnTable.from_codes(
        "passive",
        {
            "operator": np.zeros(tech.size, dtype=np.uint32),
            "start_m": np.maximum(a["start_m"], start_m),
            "end_m": np.minimum(a["end_m"], end_m),
            "tech": tech,
            "timezone": a["timezone"],
            "region": a["region"],
        },
        {"operator": (operator.name,), **_NAMES},
    )
    macro = deployment.macro_zones
    # Zone 0 starts at 0: where the trip starts, not a handover.
    lo, hi = np.searchsorted(macro.arrays["start_m"], (start_m, end_m)).tolist()
    return HandoverLoggerTrace(
        operator=operator,
        table=table,
        macro_handovers=max(hi - max(lo, 1), 0),
        macro_cell_keys=macro.cell_keys(macro.overlapping(start_m, end_m)),
    )
