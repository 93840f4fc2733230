"""Carrier aggregation (CA) model.

The paper reports the number of aggregated carriers as one of the KPIs whose
correlation with throughput it studies (Table 2), and explains two
operator-specific behaviours (§5.5 "CA"): Verizon rarely aggregates uplink
carriers, while T-Mobile often aggregates 2 — but one of them is usually an
LTE anchor (NSA dual connectivity), whose narrow bandwidth limits the gain.

We model the CC count as a categorical draw per (operator, technology,
direction), sticky per zone (the configuration changes at handovers, not every
sample), and we expose the diminishing per-CC capacity contribution used by
the PHY layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rng import choose_weighted

from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology

__all__ = ["Direction", "CarrierAggregationModel", "secondary_cc_factor"]


class Direction:
    """Traffic direction constants (string enum kept lightweight)."""

    DOWNLINK = "downlink"
    UPLINK = "uplink"

    ALL = (DOWNLINK, UPLINK)


#: Distribution of CC counts: (operator, tech, direction) -> {n_cc: prob}.
#: Missing entries fall back to {1: 1.0}.
_CC_DISTRIBUTIONS: dict[tuple[Operator, RadioTechnology, str], dict[int, float]] = {}


def _set_cc(op: Operator, tech: RadioTechnology, direction: str, dist: dict[int, float]) -> None:
    total = sum(dist.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"CC distribution sums to {total}")
    _CC_DISTRIBUTIONS[(op, tech, direction)] = dist


_DL = Direction.DOWNLINK
_UL = Direction.UPLINK

# Downlink: heavy CA on LTE-A (that is what makes it "LTE-Advanced"),
# multiple mmWave CCs (the S21 supports 8), dual-carrier midband for
# T-Mobile, modest elsewhere.
for _op in Operator:
    _set_cc(_op, RadioTechnology.LTE, _DL, {1: 1.0})
    _set_cc(_op, RadioTechnology.NR_LOW, _DL, {1: 0.6, 2: 0.4})
_set_cc(Operator.VERIZON, RadioTechnology.LTE_A, _DL, {2: 0.50, 3: 0.30, 4: 0.20})
_set_cc(Operator.ATT, RadioTechnology.LTE_A, _DL, {2: 0.2, 3: 0.3, 4: 0.35, 5: 0.15})
_set_cc(Operator.TMOBILE, RadioTechnology.LTE_A, _DL, {2: 0.4, 3: 0.35, 4: 0.25})
_set_cc(Operator.TMOBILE, RadioTechnology.NR_MID, _DL, {1: 0.35, 2: 0.65})
_set_cc(Operator.VERIZON, RadioTechnology.NR_MID, _DL, {1: 0.7, 2: 0.3})
_set_cc(Operator.ATT, RadioTechnology.NR_MID, _DL, {1: 0.8, 2: 0.2})
_set_cc(Operator.VERIZON, RadioTechnology.NR_MMWAVE, _DL, {1: 0.2, 2: 0.3, 3: 0.25, 4: 0.25})
_set_cc(Operator.ATT, RadioTechnology.NR_MMWAVE, _DL, {1: 0.5, 2: 0.5})
_set_cc(Operator.TMOBILE, RadioTechnology.NR_MMWAVE, _DL, {1: 0.5, 2: 0.5})

# Uplink: the S21 supports only 2 UL CCs.  Verizon rarely aggregates;
# T-Mobile often runs 2 (one usually an LTE anchor); AT&T in between.
for _tech in RadioTechnology:
    _set_cc(Operator.VERIZON, _tech, _UL, {1: 0.92, 2: 0.08})
    _set_cc(Operator.ATT, _tech, _UL, {1: 0.6, 2: 0.4})
    _set_cc(Operator.TMOBILE, _tech, _UL, {1: 0.35, 2: 0.65})


#: Capacity contribution of each carrier relative to the primary, by CC
#: index; carriers past the last share its factor.
_SECONDARY_CC_FACTORS = (1.0, 0.75, 0.6, 0.5, 0.4, 0.35, 0.3, 0.25)


def secondary_cc_factor(cc_index: int) -> float:
    """Capacity contribution of the ``cc_index``-th carrier relative to the
    primary (index 0 → 1.0).

    Secondary carriers ride weaker bands/beams and, for NSA 5G, are often
    narrow LTE anchors, so their marginal contribution shrinks.
    """
    if cc_index < 0:
        raise ValueError("cc_index must be non-negative")
    return _SECONDARY_CC_FACTORS[min(cc_index, len(_SECONDARY_CC_FACTORS) - 1)]


def _aggregate(n_ccs: int) -> float:
    return sum(secondary_cc_factor(i) for i in range(n_ccs))


#: :func:`aggregate_capacity_factor` of 0..8 carriers (the S21 aggregates
#: up to 8), summed once in carrier order.
_AGGREGATE_FACTORS = tuple(_aggregate(n) for n in range(9))


def aggregate_capacity_factor(n_ccs: int) -> float:
    """Total capacity multiplier for ``n_ccs`` aggregated carriers.

    >>> aggregate_capacity_factor(1)
    1.0
    >>> aggregate_capacity_factor(2)
    1.75
    """
    if n_ccs < 1:
        raise ValueError("n_ccs must be at least 1")
    if n_ccs < len(_AGGREGATE_FACTORS):
        return _AGGREGATE_FACTORS[n_ccs]
    return _aggregate(n_ccs)


def _cc_choices(
    op: Operator, tech: RadioTechnology, direction: str
) -> tuple[list[int], list[float]]:
    dist = _CC_DISTRIBUTIONS.get((op, tech, direction), {1: 1.0})
    return list(dist), list(dist.values())


#: The CC draw's ``(counts, probabilities)`` for every (operator,
#: technology, direction), built once.
_CC_CHOICES = {
    (op, tech, direction): _cc_choices(op, tech, direction)
    for op in Operator
    for tech in RadioTechnology
    for direction in Direction.ALL
}


@dataclass
class CarrierAggregationModel:
    """Draws sticky CC counts for a serving configuration."""

    rng: np.random.Generator

    def draw_ccs(self, operator: Operator, tech: RadioTechnology, direction: str) -> int:
        """Draw the number of component carriers for a fresh configuration."""
        if direction not in Direction.ALL:
            raise ValueError(f"unknown direction {direction!r}")
        counts, probs = _CC_CHOICES[operator, tech, direction]
        return int(choose_weighted(self.rng, counts, probs))
