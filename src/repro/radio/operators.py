"""The three major US mobile network operators measured by the paper."""

from __future__ import annotations

import enum


class Operator(enum.Enum):
    """A US carrier, with the paper's single-letter short code."""

    #: Members are singletons: hash by identity, not by name (see
    #: :class:`~repro.radio.technology.RadioTechnology`).
    __hash__ = object.__hash__

    VERIZON = ("Verizon", "V")
    TMOBILE = ("T-Mobile", "T")
    ATT = ("AT&T", "A")

    def __init__(self, label: str, code: str) -> None:
        self.label = label
        self.code = code

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


ALL_OPERATORS: tuple[Operator, ...] = (
    Operator.VERIZON,
    Operator.TMOBILE,
    Operator.ATT,
)
