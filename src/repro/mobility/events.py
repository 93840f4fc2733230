"""Handover events and their taxonomy.

The paper distinguishes *horizontal* handovers (between cells of the same
technology generation: 4G→4G, 5G→5G) from *vertical* ones (across
generations: 4G→5G, 5G→4G), and analyses their impact on throughput
separately (Fig. 12): 5G→4G handovers mostly hurt, 4G→5G mostly help.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.radio.cells import CellId
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology


class HandoverType(enum.Enum):
    """The four handover classes of Fig. 12."""

    #: Members are singletons: hash by identity, not by name (see
    #: :class:`~repro.radio.technology.RadioTechnology`).
    __hash__ = object.__hash__

    HORIZONTAL_4G = "4G->4G"
    HORIZONTAL_5G = "5G->5G"
    VERTICAL_UP = "4G->5G"
    VERTICAL_DOWN = "5G->4G"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_vertical(self) -> bool:
        return self in (HandoverType.VERTICAL_UP, HandoverType.VERTICAL_DOWN)


def classify_handover(
    from_tech: RadioTechnology, to_tech: RadioTechnology
) -> HandoverType:
    """Classify a handover by source and target technology generation.

    >>> classify_handover(RadioTechnology.LTE, RadioTechnology.NR_MID)
    <HandoverType.VERTICAL_UP: '4G->5G'>
    """
    if from_tech.is_4g and to_tech.is_4g:
        return HandoverType.HORIZONTAL_4G
    if from_tech.is_5g and to_tech.is_5g:
        return HandoverType.HORIZONTAL_5G
    if from_tech.is_4g and to_tech.is_5g:
        return HandoverType.VERTICAL_UP
    return HandoverType.VERTICAL_DOWN


@dataclass(frozen=True, slots=True)
class HandoverEvent:
    """One completed handover, as reconstructed from signalling logs."""

    operator: Operator
    time_s: float
    mark_m: float
    duration_ms: float
    from_cell: CellId
    to_cell: CellId
    from_tech: RadioTechnology
    to_tech: RadioTechnology

    def __post_init__(self) -> None:
        if self.duration_ms <= 0.0:
            raise ValueError(f"handover duration must be positive, got {self.duration_ms}")

    @property
    def handover_type(self) -> HandoverType:
        return classify_handover(self.from_tech, self.to_tech)
