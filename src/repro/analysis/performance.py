"""§5.1–5.2 — network performance: static vs driving, per-technology (Figs. 3-4).

Fig. 3 contrasts the CDFs of all 500 ms throughput samples and all individual
RTT samples between the parked city baselines and the drive.  Fig. 4 breaks
driving performance down per serving technology, and for Verizon additionally
per server kind (Wavelength edge vs EC2 cloud).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.cdf import EmpiricalCDF
from repro.errors import AnalysisError
from repro.net.servers import ServerKind
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, RadioTechnology
from repro.store.query import Eq, Source, cdf, select

__all__ = [
    "StaticVsDriving",
    "static_vs_driving",
    "per_technology_throughput",
    "per_technology_rtt",
    "edge_vs_cloud_throughput",
    "edge_vs_cloud_rtt",
]


@dataclass(frozen=True)
class StaticVsDriving:
    """Fig. 3 CDFs for one operator."""

    operator: Operator
    static_dl: EmpiricalCDF
    static_ul: EmpiricalCDF
    static_rtt: EmpiricalCDF
    driving_dl: EmpiricalCDF
    driving_ul: EmpiricalCDF
    driving_rtt: EmpiricalCDF


def static_vs_driving(
    source: Source, operator: Operator, *, seeds: Sequence[int] | None = None
) -> StaticVsDriving:
    """Fig. 3 — static (best-5G city baselines) vs driving CDFs.

    Each CDF is built by the query engine's :func:`~repro.store.query.cdf`
    kernel over any query source (a dataset, a store file's reader or a
    catalog, whose partitions ``seeds=`` selects): predicates are pushed
    into the column stats, and only the projected value column is decoded.
    """

    def tput(direction: str, static: bool) -> EmpiricalCDF:
        return cdf(
            source, "tput", "tput_mbps",
            where=(
                Eq("operator", operator),
                Eq("direction", direction),
                Eq("static", static),
            ),
            seeds=seeds,
        )

    def rtt(static: bool) -> EmpiricalCDF:
        return cdf(
            source, "rtt", "rtt_ms",
            where=(Eq("operator", operator), Eq("static", static)),
            seeds=seeds,
        )

    return StaticVsDriving(
        operator=operator,
        static_dl=tput("downlink", True),
        static_ul=tput("uplink", True),
        static_rtt=rtt(True),
        driving_dl=tput("downlink", False),
        driving_ul=tput("uplink", False),
        driving_rtt=rtt(False),
    )


def _per_technology(
    source: Source, table: str, column: str, where: tuple
) -> dict[RadioTechnology, EmpiricalCDF]:
    """CDFs of ``column`` per serving technology with ≥ 5 matching rows."""
    out: dict[RadioTechnology, EmpiricalCDF] = {}
    for tech in ALL_TECHNOLOGIES:
        values = select(source, table, column, (*where, Eq("tech", tech)))
        if len(values) >= 5:
            out[tech] = EmpiricalCDF.from_values(values)
    return out


def _driving(operator: Operator, server_kind: ServerKind | None) -> tuple:
    where = (Eq("operator", operator), Eq("static", False))
    return where if server_kind is None else (*where, Eq("server_kind", server_kind))


def per_technology_throughput(
    source: Source,
    operator: Operator,
    direction: str,
    server_kind: ServerKind | None = None,
) -> dict[RadioTechnology, EmpiricalCDF]:
    """Fig. 4 — driving throughput CDFs per serving technology."""
    out = _per_technology(
        source, "tput", "tput_mbps",
        (*_driving(operator, server_kind), Eq("direction", direction)),
    )
    if not out:
        raise AnalysisError(f"no driving samples for {operator} {direction}")
    return out


def per_technology_rtt(
    source: Source,
    operator: Operator,
    server_kind: ServerKind | None = None,
) -> dict[RadioTechnology, EmpiricalCDF]:
    """Fig. 4 (right) — driving RTT CDFs per serving technology."""
    out = _per_technology(source, "rtt", "rtt_ms", _driving(operator, server_kind))
    if not out:
        raise AnalysisError(f"no driving RTT samples for {operator}")
    return out


def edge_vs_cloud_throughput(
    source: Source, direction: str
) -> dict[ServerKind, dict[RadioTechnology, EmpiricalCDF]]:
    """Fig. 4 (Verizon panels) — edge vs cloud per-technology throughput."""
    out: dict[ServerKind, dict[RadioTechnology, EmpiricalCDF]] = {}
    for kind in ServerKind:
        try:
            out[kind] = per_technology_throughput(
                source, Operator.VERIZON, direction, server_kind=kind
            )
        except AnalysisError:
            continue
    return out


def edge_vs_cloud_rtt(source: Source) -> dict[ServerKind, dict[RadioTechnology, EmpiricalCDF]]:
    """Fig. 4 (Verizon panels) — edge vs cloud per-technology RTT."""
    out: dict[ServerKind, dict[RadioTechnology, EmpiricalCDF]] = {}
    for kind in ServerKind:
        try:
            out[kind] = per_technology_rtt(source, Operator.VERIZON, server_kind=kind)
        except AnalysisError:
            continue
    return out
