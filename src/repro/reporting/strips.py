"""ASCII rendering of Fig. 1's route-coverage strips.

The paper's Fig. 1 shows, per operator and per logging method, a coloured
strip of the technology observed along the LA→Boston route.  This renderer
produces the text equivalent — one character per distance bin — so the
passive/active disparity is visible in a terminal or a report file.
"""

from __future__ import annotations

from repro.analysis.coverage import route_technology_strip
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology
from repro.store.query import Source

__all__ = ["TECH_GLYPHS", "render_strip", "render_fig1"]

#: One glyph per technology; '.' marks bins with no observation.
TECH_GLYPHS: dict[RadioTechnology, str] = {
    RadioTechnology.LTE: "l",
    RadioTechnology.LTE_A: "L",
    RadioTechnology.NR_LOW: "n",
    RadioTechnology.NR_MID: "N",
    RadioTechnology.NR_MMWAVE: "M",
}

_NO_DATA = "."


def render_strip(
    source: Source,
    operator: Operator,
    view: str,
    bin_km: float = 50.0,
    width: int | None = None,
) -> str:
    """One operator/view strip as a glyph string (west → east).

    Parameters
    ----------
    bin_km:
        Distance per glyph.  50 km gives a ~115-character strip for the
        full route.
    width:
        Optional re-binning to exactly this many characters.
    """
    strip = route_technology_strip(source, operator, view=view, bin_km=bin_km)
    glyphs = [TECH_GLYPHS[t] if t is not None else _NO_DATA for _, t in strip]
    if width is not None and len(glyphs) > width:
        # Majority re-bin down to the requested width.
        out = []
        per = len(glyphs) / width
        for i in range(width):
            seg = glyphs[int(i * per): max(int((i + 1) * per), int(i * per) + 1)]
            non_empty = [g for g in seg if g != _NO_DATA]
            out.append(max(set(non_empty), key=non_empty.count) if non_empty else _NO_DATA)
        glyphs = out
    return "".join(glyphs)


def render_fig1(source: Source, bin_km: float = 50.0) -> str:
    """The full Fig. 1: both views for all operators, plus a legend."""
    lines = ["Fig. 1 — technology along the route (LA → Boston)", ""]
    legend = "  ".join(f"{g}={t.label}" for t, g in TECH_GLYPHS.items())
    lines.append(f"legend: {legend}  .=no data")
    lines.append("")
    for op in Operator:
        for view in ("passive", "active"):
            strip = render_strip(source, op, view, bin_km=bin_km)
            lines.append(f"{op.code} {view:>7}: {strip}")
        lines.append("")
    return "\n".join(lines)
