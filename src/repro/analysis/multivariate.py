"""Multivariate KPI analysis — the paper's declared future work.

§5.5 closes: *"An in-depth understanding of the impact of multiple KPIs on
performance requires a multivariate analysis, which is part of our future
work."*  This module performs that analysis on a dataset: ordinary least
squares of log-throughput on the standardised KPI vector, reporting
standardised coefficients (comparable across KPIs), the model's R², and the
incremental R² each KPI contributes (its unique explanatory power) — the
natural next step after Table 2's univariate view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.correlation import KPI_COLUMNS
from repro.errors import AnalysisError
from repro.radio.operators import Operator
from repro.store.query import Eq, Source, select_columns

__all__ = ["MultivariateFit", "fit_throughput_model", "multivariate_table"]

#: KPI columns, mirroring Table 2 (handover count included for completeness).
FEATURES = tuple(KPI_COLUMNS)


@dataclass(frozen=True)
class MultivariateFit:
    """An OLS fit of log-throughput on standardised KPIs."""

    operator: Operator
    direction: str
    #: Standardised coefficients per KPI (effect of +1σ on log-throughput σ).
    coefficients: dict[str, float]
    r_squared: float
    #: Drop in R² when the KPI is removed — its unique contribution.
    incremental_r2: dict[str, float]
    sample_count: int

    @property
    def dominant_kpi(self) -> str:
        """The KPI with the largest unique contribution."""
        return max(self.incremental_r2, key=lambda k: self.incremental_r2[k])


def _design_matrix(source: Source, where: tuple) -> tuple[np.ndarray, np.ndarray]:
    tput, *kpis = select_columns(source, "tput", ("tput_mbps", *KPI_COLUMNS.values()), where)
    y = np.log(np.maximum(tput, 1e-3))
    X = np.column_stack([kpi.astype(float) for kpi in kpis])
    return X, y


def _standardize(X: np.ndarray) -> np.ndarray:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    return (X - mean) / std


def _ols_r2(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    A = np.column_stack([np.ones(len(y)), X])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    residuals = y - A @ beta
    ss_res = float(residuals @ residuals)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return beta[1:], r2


def fit_throughput_model(
    source: Source, operator: Operator, direction: str
) -> MultivariateFit:
    """Fit log(throughput) ~ standardised KPIs for one operator/direction."""
    where = (
        Eq("operator", operator), Eq("static", False), Eq("direction", direction)
    )
    X_raw, y = _design_matrix(source, where)
    if len(y) < 30:
        raise AnalysisError(
            f"need at least 30 samples for a stable fit, got {len(y)}"
        )
    X = _standardize(X_raw)
    y_std = y.std()
    y_norm = (y - y.mean()) / (y_std if y_std > 0 else 1.0)

    beta, r2 = _ols_r2(X, y_norm)
    incremental: dict[str, float] = {}
    for i, name in enumerate(FEATURES):
        reduced = np.delete(X, i, axis=1)
        _, r2_reduced = _ols_r2(reduced, y_norm)
        incremental[name] = max(r2 - r2_reduced, 0.0)
    return MultivariateFit(
        operator=operator,
        direction=direction,
        coefficients={name: float(b) for name, b in zip(FEATURES, beta)},
        r_squared=r2,
        incremental_r2=incremental,
        sample_count=len(y),
    )


def multivariate_table(source: Source) -> list[MultivariateFit]:
    """All six (operator, direction) fits — the multivariate Table 2."""
    return [
        fit_throughput_model(source, op, d)
        for op in Operator
        for d in ("downlink", "uplink")
    ]
