"""Handover engine: tracks the serving cell and emits handover events.

A handover fires when the serving (zone, technology, cell) tuple changes —
crossing a deployment-zone boundary, or a traffic-profile-driven technology
switch within the same location.  We additionally model occasional *ping-pong*
handovers between neighbouring cells without a zone change, which produce the
20+ handovers/mile extremes of Fig. 11a.

Handover durations are drawn lognormally with per-operator, per-direction
medians calibrated to Fig. 11b (median 49–76 ms, 75th percentile 63–107 ms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.rng import clamp

from repro.mobility.events import HandoverEvent
from repro.radio.ca import Direction
from repro.radio.cells import Cell, CellId
from repro.radio.operators import Operator

__all__ = ["HandoverDurationParams", "HandoverEngine"]


@dataclass(frozen=True, slots=True)
class HandoverDurationParams:
    """Lognormal duration parameters (milliseconds)."""

    median_ms: float
    sigma: float = 0.45

    def sample(self, rng: np.random.Generator) -> float:
        value = rng.lognormal(mean=math.log(self.median_ms), sigma=self.sigma)
        return clamp(float(value), 8.0, 2000.0)


#: Fig. 11b medians: (operator, direction) -> median HO duration in ms.
_DURATION_MEDIANS_MS: dict[tuple[Operator, str], float] = {
    (Operator.VERIZON, Direction.DOWNLINK): 53.0,
    (Operator.VERIZON, Direction.UPLINK): 49.0,
    (Operator.TMOBILE, Direction.DOWNLINK): 76.0,
    (Operator.TMOBILE, Direction.UPLINK): 75.0,
    (Operator.ATT, Direction.DOWNLINK): 58.0,
    (Operator.ATT, Direction.UPLINK): 57.0,
}

#: Per-second probability of a ping-pong handover (no zone change).
_PINGPONG_RATE_PER_S = 0.008

#: Vertical handovers take longer than intra-technology ones (extra RRC
#: reconfiguration, NSA leg setup).
_VERTICAL_DURATION_FACTOR = 1.35


@dataclass
class HandoverEngine:
    """Tracks one UE's serving cell and emits :class:`HandoverEvent` s.

    Drive it by calling :meth:`observe` once per tick with the serving cell
    the selector chose; it returns the handovers (usually zero or one) that
    occurred during the tick.
    """

    operator: Operator
    rng: np.random.Generator
    _current_cell: Cell | None = field(default=None, repr=False)
    _connected_cells: set[CellId] = field(default_factory=set, repr=False)
    _total_handovers: int = 0

    @property
    def total_handovers(self) -> int:
        """Total handovers emitted over this engine's lifetime."""
        return self._total_handovers

    @property
    def connected_cells(self) -> frozenset[CellId]:
        """All distinct cells this UE has been served by."""
        return frozenset(self._connected_cells)

    def reset_serving(self) -> None:
        """Forget the serving cell (e.g. between distant test locations)."""
        self._current_cell = None

    def observe(
        self,
        cell: Cell,
        time_s: float,
        mark_m: float,
        dt_s: float,
        direction: str = Direction.DOWNLINK,
    ) -> list[HandoverEvent]:
        """Register the serving cell for one tick; return handovers fired.

        Parameters
        ----------
        cell:
            The serving cell chosen by the technology selector this tick.
        time_s, mark_m:
            Campaign clock and route position of the tick.
        dt_s:
            Tick length in seconds (scales the ping-pong rate).
        direction:
            Traffic direction of the running test (duration calibration).
        """
        events: list[HandoverEvent] = []
        previous = self._current_cell
        self._connected_cells.add(cell.cell_id)

        if previous is not None and previous.cell_id != cell.cell_id:
            events.append(self._make_event(previous, cell, time_s, mark_m, direction))
        elif previous is not None and self.rng.random() < _PINGPONG_RATE_PER_S * dt_s:
            # Ping-pong: bounce to a phantom neighbour of the same layer and
            # back.  That logs two handovers: one out to the neighbour's
            # distinct cell id on this tick and, as the neighbour stays the
            # current cell, one back on the next tick the real cell serves.
            neighbour_id = CellId(
                cell.operator, cell.technology, cell.cell_id.sequence + 500_000
            )
            neighbour = Cell(
                cell_id=neighbour_id,
                site=cell.site,
                site_mark_m=cell.site_mark_m,
                perpendicular_m=cell.perpendicular_m * 1.5,
            )
            self._connected_cells.add(neighbour_id)
            events.append(self._make_event(cell, neighbour, time_s, mark_m, direction))
            cell = neighbour

        self._current_cell = cell
        return events

    def _make_event(
        self, from_cell: Cell, to_cell: Cell, time_s: float, mark_m: float, direction: str
    ) -> HandoverEvent:
        median = _DURATION_MEDIANS_MS[(self.operator, direction)]
        params = HandoverDurationParams(median_ms=median)
        duration = params.sample(self.rng)
        if from_cell.technology.is_4g != to_cell.technology.is_4g:
            duration *= _VERTICAL_DURATION_FACTOR
        self._total_handovers += 1
        return HandoverEvent(
            operator=self.operator,
            time_s=time_s,
            mark_m=mark_m,
            duration_ms=duration,
            from_cell=from_cell.cell_id,
            to_cell=to_cell.cell_id,
            from_tech=from_cell.technology,
            to_tech=to_cell.technology,
        )
