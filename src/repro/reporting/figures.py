"""Machine-readable figure-series export.

The benchmark harness prints human-readable tables; plotting tools want the
underlying series.  This module exports, for every figure the library
reproduces, the (x, y) series / scatter points / bar groups as plain dicts,
and can write the whole bundle as JSON for matplotlib/vega/gnuplot scripts.
"""

from __future__ import annotations

import json
import pathlib

from repro.analysis import (
    coverage,
    geodiversity,
    handovers,
    longterm,
    opdiversity,
    performance,
)
from repro.analysis.cdf import EmpiricalCDF
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES
from repro.store.query import Source

__all__ = ["figure_series", "export_figures_json"]


def _cdf_series(cdf: EmpiricalCDF, points: int = 150) -> dict:
    xs, ys = cdf.series(points=points)
    return {"x": [float(v) for v in xs], "y": [float(v) for v in ys]}


def figure_series(source: Source) -> dict:
    """Build the full figure bundle as nested plain-python dicts.

    Keys are figure identifiers (``fig2a``, ``fig3``, ``fig4``, ...); values
    hold labelled series ready for any plotting frontend.
    """
    bundle: dict = {}

    # Fig. 2a: coverage bars.
    bundle["fig2a"] = {
        op.label: {
            t.label: coverage.active_coverage_shares(source, op).shares.get(t, 0.0)
            for t in ALL_TECHNOLOGIES
        }
        for op in Operator
    }

    # Fig. 3: static vs driving CDFs.
    fig3 = {}
    for op in Operator:
        r = performance.static_vs_driving(source, op)
        fig3[op.label] = {
            "static_dl": _cdf_series(r.static_dl),
            "driving_dl": _cdf_series(r.driving_dl),
            "static_ul": _cdf_series(r.static_ul),
            "driving_ul": _cdf_series(r.driving_ul),
            "static_rtt": _cdf_series(r.static_rtt),
            "driving_rtt": _cdf_series(r.driving_rtt),
        }
    bundle["fig3"] = fig3

    # Fig. 4: per-technology CDFs (downlink + RTT).
    fig4 = {}
    for op in Operator:
        tput = performance.per_technology_throughput(source, op, "downlink")
        rtt = performance.per_technology_rtt(source, op)
        fig4[op.label] = {
            "tput_dl": {t.label: _cdf_series(c) for t, c in tput.items()},
            "rtt": {t.label: _cdf_series(c) for t, c in rtt.items()},
        }
    bundle["fig4"] = fig4

    # Fig. 5: per-timezone throughput CDFs.
    bundle["fig5"] = {
        op.label: {
            tz.label: _cdf_series(c)
            for tz, c in geodiversity.throughput_by_timezone(source, op, "downlink").items()
        }
        for op in Operator
    }

    # Fig. 6a: pairwise difference CDFs.
    fig6 = {}
    for first, second in opdiversity.OPERATOR_PAIRS:
        pd = opdiversity.paired_throughput_differences(source, first, second, "downlink")
        fig6[f"{first.code}-{second.code}"] = _cdf_series(pd.cdf)
    bundle["fig6a"] = fig6

    # Fig. 9: per-test mean CDFs.
    fig9 = {}
    for op in Operator:
        dl = longterm.per_test_throughput_stats(source, op, "downlink")
        fig9[op.label] = {
            "dl_means": _cdf_series(dl.means),
            "dl_stddev_pct": _cdf_series(dl.stddev_pct),
        }
    bundle["fig9"] = fig9

    # Fig. 10: scatter of per-test mean vs HS-5G fraction.
    bundle["fig10"] = {
        op.label: [
            {"hs5g": f, "tput": t}
            for f, t in longterm.throughput_vs_hs5g_fraction(source, op, "downlink")
        ]
        for op in Operator
    }

    # Fig. 11: handover rate/duration CDFs.
    fig11 = {}
    for op in Operator:
        fig11[op.label] = {
            "rate_per_mile": _cdf_series(handovers.handovers_per_mile(source, op, "downlink")),
            "duration_ms": _cdf_series(handovers.handover_durations(source, op)),
        }
    bundle["fig11"] = fig11

    # Fig. 12: ΔT1/ΔT2 CDFs.
    fig12 = {}
    for op in Operator:
        impact = handovers.handover_impact(source, op, "downlink")
        fig12[op.label] = {
            "delta_t1": _cdf_series(impact.delta_t1),
            "delta_t2": _cdf_series(impact.delta_t2),
        }
    bundle["fig12"] = fig12

    return bundle


def export_figures_json(source: Source, path: str | pathlib.Path) -> int:
    """Write the figure bundle as JSON; returns the number of figures."""
    bundle = figure_series(source)
    pathlib.Path(path).write_text(json.dumps(bundle, indent=1))
    return len(bundle)
