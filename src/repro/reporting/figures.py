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
from repro.errors import AnalysisError
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
    hold one labelled panel per operator (or operator pair), ready for any
    plotting frontend.  A panel the data cannot support (an
    :class:`~repro.errors.AnalysisError`, such as an operator without
    in-test handovers for Fig. 12) is left out, and its reason is named
    under ``bundle["skipped"][figure][panel]``; the ``skipped`` key is
    present only when some panel was left out.
    """
    skipped: dict[str, dict[str, str]] = {}

    def panels(figure: str, builders) -> dict:
        """``{label: build()}`` over ``(label, build)`` pairs, without the
        panels whose data falls short."""
        out = {}
        for label, build in builders:
            try:
                out[label] = build()
            except AnalysisError as exc:
                skipped.setdefault(figure, {})[label] = str(exc)
        return out

    def per_operator(figure: str, build) -> dict:
        return panels(figure, ((op.label, lambda op=op: build(op)) for op in Operator))

    bundle: dict = {}

    # Fig. 2a: coverage bars.
    bundle["fig2a"] = per_operator("fig2a", lambda op: {
        t.label: coverage.active_coverage_shares(source, op).shares.get(t, 0.0)
        for t in ALL_TECHNOLOGIES
    })

    # Fig. 3: static vs driving CDFs.
    def fig3(op: Operator) -> dict:
        r = performance.static_vs_driving(source, op)
        return {
            "static_dl": _cdf_series(r.static_dl),
            "driving_dl": _cdf_series(r.driving_dl),
            "static_ul": _cdf_series(r.static_ul),
            "driving_ul": _cdf_series(r.driving_ul),
            "static_rtt": _cdf_series(r.static_rtt),
            "driving_rtt": _cdf_series(r.driving_rtt),
        }

    bundle["fig3"] = per_operator("fig3", fig3)

    # Fig. 4: per-technology CDFs (downlink + RTT).
    def fig4(op: Operator) -> dict:
        tput = performance.per_technology_throughput(source, op, "downlink")
        rtt = performance.per_technology_rtt(source, op)
        return {
            "tput_dl": {t.label: _cdf_series(c) for t, c in tput.items()},
            "rtt": {t.label: _cdf_series(c) for t, c in rtt.items()},
        }

    bundle["fig4"] = per_operator("fig4", fig4)

    # Fig. 5: per-timezone throughput CDFs.
    bundle["fig5"] = per_operator("fig5", lambda op: {
        tz.label: _cdf_series(c)
        for tz, c in geodiversity.throughput_by_timezone(source, op, "downlink").items()
    })

    # Fig. 6a: pairwise difference CDFs.
    bundle["fig6a"] = panels("fig6a", (
        (
            f"{first.code}-{second.code}",
            lambda first=first, second=second: _cdf_series(
                opdiversity.paired_throughput_differences(
                    source, first, second, "downlink"
                ).cdf
            ),
        )
        for first, second in opdiversity.OPERATOR_PAIRS
    ))

    # Fig. 9: per-test mean CDFs.
    def fig9(op: Operator) -> dict:
        dl = longterm.per_test_throughput_stats(source, op, "downlink")
        return {
            "dl_means": _cdf_series(dl.means),
            "dl_stddev_pct": _cdf_series(dl.stddev_pct),
        }

    bundle["fig9"] = per_operator("fig9", fig9)

    # Fig. 10: scatter of per-test mean vs HS-5G fraction.
    bundle["fig10"] = per_operator("fig10", lambda op: [
        {"hs5g": f, "tput": t}
        for f, t in longterm.throughput_vs_hs5g_fraction(source, op, "downlink")
    ])

    # Fig. 11: handover rate/duration CDFs.
    bundle["fig11"] = per_operator("fig11", lambda op: {
        "rate_per_mile": _cdf_series(handovers.handovers_per_mile(source, op, "downlink")),
        "duration_ms": _cdf_series(handovers.handover_durations(source, op)),
    })

    # Fig. 12: ΔT1/ΔT2 CDFs.
    def fig12(op: Operator) -> dict:
        impact = handovers.handover_impact(source, op, "downlink")
        return {
            "delta_t1": _cdf_series(impact.delta_t1),
            "delta_t2": _cdf_series(impact.delta_t2),
        }

    bundle["fig12"] = per_operator("fig12", fig12)

    if skipped:
        bundle["skipped"] = skipped
    return bundle


def export_figures_json(source: Source, path: str | pathlib.Path) -> int:
    """Write the figure bundle as JSON; returns the number of figures."""
    bundle = figure_series(source)
    pathlib.Path(path).write_text(json.dumps(bundle, indent=1))
    return len(bundle) - ("skipped" in bundle)
