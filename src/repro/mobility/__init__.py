"""Mobility management: handovers between cells and technologies."""

from repro.mobility.events import HandoverEvent, HandoverType, classify_handover
from repro.mobility.engine import HandoverDurationParams

__all__ = ["HandoverEvent", "HandoverType", "classify_handover", "HandoverDurationParams"]
