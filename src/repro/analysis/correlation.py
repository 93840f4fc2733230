"""§5.5 — what drives throughput while driving? (Table 2, Figs. 7-8).

Table 2 computes Pearson's correlation coefficient between the 500 ms
throughput samples and five KPIs (primary-cell RSRP, primary-cell MCS,
carrier-aggregation CC count, primary-cell BLER, number of handovers in the
interval) plus the vehicle's speed, per operator and traffic direction.

Figs. 7-8 are the technology-coloured scatter plots of throughput / RTT
against speed, using the paper's three speed bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.errors import AnalysisError
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.store.query import Eq, Source, select_columns, select_rows
from repro.units import speed_bin

__all__ = [
    "KPI_COLUMNS",
    "KPI_NAMES",
    "CorrelationRow",
    "kpi_correlations",
    "correlation_table",
    "throughput_speed_scatter",
    "rtt_speed_scatter",
]

#: Table 2's column order.
KPI_NAMES = ("RSRP", "MCS", "CA", "BLER", "Speed", "HO")

#: The throughput-table column behind each KPI, in Table 2's order.
KPI_COLUMNS = dict(zip(
    KPI_NAMES, ("rsrp_dbm", "mcs", "n_ccs", "bler", "speed_mph", "ho_count")
))


@dataclass(frozen=True)
class CorrelationRow:
    """One (operator, direction) row of Table 2."""

    operator: Operator
    direction: str
    coefficients: dict[str, float]
    sample_count: int


def _driving(operator: Operator, direction: str | None = None) -> tuple:
    """Predicates of one operator's driving samples (of one direction)."""
    where = (Eq("operator", operator), Eq("static", False))
    return where if direction is None else (*where, Eq("direction", direction))


def kpi_correlations(
    source: Source, operator: Operator, direction: str
) -> CorrelationRow:
    """Compute one row of Table 2."""
    tput, *kpis = select_columns(
        source, "tput", ("tput_mbps", *KPI_COLUMNS.values()), _driving(operator, direction)
    )
    if len(tput) < 10:
        raise AnalysisError(f"too few samples for {operator} {direction}")
    coeffs: dict[str, float] = {}
    for name, col in zip(KPI_COLUMNS, kpis):
        col = col.astype(float)
        if np.std(col) == 0.0 or np.std(tput) == 0.0:
            coeffs[name] = 0.0
            continue
        coeffs[name] = float(stats.pearsonr(tput, col).statistic)
    return CorrelationRow(
        operator=operator,
        direction=direction,
        coefficients=coeffs,
        sample_count=len(tput),
    )


def correlation_table(source: Source) -> list[CorrelationRow]:
    """Table 2 — all six (operator, direction) rows."""
    rows = []
    for op in Operator:
        for direction in ("downlink", "uplink"):
            rows.append(kpi_correlations(source, op, direction))
    return rows


def _speed_scatter(
    source: Source, table: str, column: str, where: tuple
) -> list[tuple[float, float, RadioTechnology, str]]:
    return [
        (speed, value, tech, speed_bin(speed))
        for speed, value, tech in select_rows(
            source, table, ("speed_mph", column, "tech"), where
        )
    ]


def throughput_speed_scatter(
    source: Source, operator: Operator, direction: str
) -> list[tuple[float, float, RadioTechnology, str]]:
    """Fig. 7 — (speed, throughput, technology, speed-bin) scatter points."""
    return _speed_scatter(source, "tput", "tput_mbps", _driving(operator, direction))


def rtt_speed_scatter(
    source: Source, operator: Operator
) -> list[tuple[float, float, RadioTechnology, str]]:
    """Fig. 8 — (speed, RTT, technology, speed-bin) scatter points."""
    return _speed_scatter(source, "rtt", "rtt_ms", _driving(operator))
