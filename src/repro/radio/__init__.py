"""Radio substrate: technologies, operators, cells, deployment, channel, PHY.

This package models what the paper's UEs saw through the XCAL probe: which
cellular technology served each stretch of road per operator, the low-level
KPIs (RSRP, MCS, BLER, carrier aggregation) of the serving link, and the
physical-layer capacity available to transport and applications.
"""

from repro.radio.technology import RadioTechnology, HIGH_THROUGHPUT_TECHS, LOW_THROUGHPUT_TECHS
from repro.radio.operators import Operator
from repro.radio.cells import Cell, CellId
from repro.radio.deployment import DeploymentModel, DeploymentZone
from repro.radio.ca import CarrierAggregationModel

__all__ = [
    "RadioTechnology",
    "HIGH_THROUGHPUT_TECHS",
    "LOW_THROUGHPUT_TECHS",
    "Operator",
    "Cell",
    "CellId",
    "DeploymentModel",
    "DeploymentZone",
    "CarrierAggregationModel",
]
