"""Deterministic renderers: DOT for discovered graphs, SVG for possessions.

Both emitters sort everything they iterate over and embed no timestamps or
randomness, so rendering the same input twice yields byte-identical output.
The DOT graph colors each known object type from one fixed table and any
other type from the palette colors that table leaves free; its node and
edge labels can be turned off.  The SVG canvas has one fixed size.

The spatial view draws the grid with cell A1 bottom-left (grid rows count
up from the bottom while screen y grows downward, so row indices are
flipped at draw time); events with exact coordinates are plotted there,
events that only know a cell (movement events) sit at the cell's center.
Each object's points follow its trace (mining.object_traces), restricted to
the possession's events that have a point.  Those events are the
possession's own trace, read from the frozen log's trace index
(OcelLog.traces), so a call does not visit the rest of the log.

Text is escaped for XML here (&, > and <): xml.sax.saxutils would import the
network stack into every process that renders.  Every attribute value is a
literal or a color from the tables below, so none needs escaping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .derive import snap_to_pitch
from .errors import QueryError
from .mining import OcDfg, object_traces
from .ocel import OBJECT_TYPE_BALL, OBJECT_TYPE_POSSESSION, OcelEvent, OcelLog
from .spatial import GridSpec, Point, cell_center, cell_label, parse_cell_label

TYPE_COLORS = {
    "ball": "#111111",
    "grid_position": "#d95f02",
    "match": "#666666",
    "player": "#1b9e77",
    "possession": "#7570b3",
    "team": "#e6ab02",
}

TRACE_PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e",
    "#e6ab02", "#a6761d", "#1f78b4", "#b15928", "#6a3d9a",
)

# SVG canvas size in pixels
WIDTH, HEIGHT = 880, 500


@dataclass(frozen=True)
class RenderOptions:
    node_labels: bool = True   # annotate DFG nodes with per-type counts
    edge_labels: bool = True   # annotate DFG edges with "<type>:<count>"


def _escape(text: str) -> str:
    """XML character data: &, > and < as entities, in that order."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def dfg_to_dot(dfg: OcDfg, opts: Optional[RenderOptions] = None) -> str:
    """Emit the multi-type directly-follows graph as a DOT digraph.

    One node per activity (shared across types), one edge per
    (type, a -> b) colored by type and labeled "<type>:<count>".
    """
    opts = opts or RenderOptions()
    types = sorted(dfg.per_type)
    # types outside TYPE_COLORS take the palette colors it leaves free, in order
    spare = itertools.cycle([c for c in TRACE_PALETTE if c not in TYPE_COLORS.values()])
    colors = {t: TYPE_COLORS.get(t) or next(spare) for t in types}

    activities = sorted({a for g in dfg.per_type.values() for a in g.activity_counts})
    node_id = {a: f"n{i}" for i, a in enumerate(activities)}

    lines = ["digraph ocdfg {", "  rankdir=LR;", '  node [shape=box, fontname="Helvetica"];']
    for a in activities:
        label = a
        if opts.node_labels:
            counts = ", ".join(
                f"{t}:{dfg.per_type[t].activity_counts[a]}"
                for t in types if a in dfg.per_type[t].activity_counts
            )
            if counts:
                label = f"{a}\n{counts}"
        lines.append(f"  {node_id[a]} [label={_dot_quote(label)}];")
    for t in types:
        for (a, b) in sorted(dfg.per_type[t].edge_counts):
            count = dfg.per_type[t].edge_counts[(a, b)]
            parts = [f"color={_dot_quote(colors[t])}"]
            if opts.edge_labels:
                parts.insert(0, f"label={_dot_quote(f'{t}:{count}')}")
                parts.append(f"fontcolor={_dot_quote(colors[t])}")
            lines.append(f"  {node_id[a]} -> {node_id[b]} [{', '.join(parts)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _event_point(event: OcelEvent, spec: GridSpec) -> Optional[Point]:
    """Where to plot an event: exact coordinates, else its cell's center."""
    attrs = event.attrs
    try:
        if "x" in attrs and "y" in attrs:
            return snap_to_pitch(Point(float(attrs["x"]), float(attrs["y"])))
        for key in ("to_cell", "cell"):
            if key in attrs:
                return cell_center(parse_cell_label(attrs[key], spec), spec)
    except ValueError as exc:
        raise QueryError(f"event {event.eid!r}: {exc}") from None
    return None


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def spatial_instance_svg(
    log: OcelLog,
    possession_id: str,
    object_types: Sequence[str],
    spec: GridSpec,
) -> str:
    """Draw one possession's object traces over the pitch grid (SVG 1.1)."""
    index = log.object_index()
    possession = index.get(possession_id)
    if possession is None or possession.otype != OBJECT_TYPE_POSSESSION:
        raise QueryError(f"unknown possession id {possession_id!r}")
    if not object_types:
        raise QueryError("at least one object type must be rendered")

    # each of the possession's events plotted once; an object's points follow its trace
    plotted: list[OcelEvent] = []
    points: dict[str, Point] = {}  # event id -> point
    for e in log.traces.get(possession_id, ()):
        point = _event_point(e, spec)
        if point is not None:
            plotted.append(e)
            points[e.eid] = point
    traces = object_traces(OcelLog(log.objects, plotted), object_types)

    # ball first, then everything else by (type, id); colors follow this order
    def trace_order(oid: str):
        obj = index[oid]
        return (obj.otype != OBJECT_TYPE_BALL, obj.otype, oid)

    palette = itertools.cycle(TRACE_PALETTE)
    drawn = []  # (oid, points, color, stroke width, dash attribute, point radius)
    for oid in sorted(traces, key=trace_order):
        if index[oid].otype == OBJECT_TYPE_BALL:
            style = (TYPE_COLORS[OBJECT_TYPE_BALL], 2.6, ' stroke-dasharray="7 4"', 5.0)
        else:
            style = (next(palette), 1.6, "", 3.6)
        drawn.append((oid, [points[e.eid] for e in traces[oid]], *style))

    pad_l, pad_t, pad_b, legend_w = 30, 46, 16, 180
    pw = WIDTH - pad_l - legend_w - 10
    ph = HEIGHT - pad_t - pad_b

    def sx(x: float) -> float:
        return pad_l + x * pw

    def sy(y: float) -> float:
        return pad_t + y * ph

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append("<defs>")
    for i, (_, _, color, _, _, _) in enumerate(drawn):
        out.append(
            f'<marker id="arrow{i}" viewBox="0 0 10 10" refX="9" refY="5" '
            f'markerWidth="7" markerHeight="7" orient="auto">'
            f'<path d="M 0 0 L 10 5 L 0 10 z" fill="{color}"/></marker>'
        )
    out.append("</defs>")
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<text x="{pad_l}" y="24" font-family="Helvetica" font-size="15" '
        f'fill="#222222">possession {_escape(possession_id)}'
        f' ({_escape(str(possession.attrs.get("team", "?")))},'
        f' {_escape(str(possession.attrs.get("outcome", "?")))})</text>'
    )
    out.append(
        f'<rect x="{_fmt(sx(0))}" y="{_fmt(sy(0))}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
        f'fill="#fbfdfb" stroke="#444444" stroke-width="1.2"/>'
    )
    for c in range(1, spec.cols):
        x = _fmt(sx(c / spec.cols))
        out.append(
            f'<line x1="{x}" y1="{_fmt(sy(0))}" x2="{x}" y2="{_fmt(sy(1))}" '
            f'stroke="#cccccc" stroke-width="0.8"/>'
        )
    for r in range(1, spec.rows):
        y = _fmt(sy(r / spec.rows))
        out.append(
            f'<line x1="{_fmt(sx(0))}" y1="{y}" x2="{_fmt(sx(1))}" y2="{y}" '
            f'stroke="#cccccc" stroke-width="0.8"/>'
        )
    for cell in spec.all_cells():
        center = cell_center(cell, spec)
        out.append(
            f'<text x="{_fmt(sx(center.x))}" y="{_fmt(sy(center.y))}" '
            f'font-family="Helvetica" font-size="12" fill="#c9c9c9" '
            f'text-anchor="middle" dominant-baseline="central">{cell_label(cell)}</text>'
        )

    for i, (_, trace, color, width, dash, radius) in enumerate(drawn):
        for p, q in zip(trace, trace[1:]):
            if p == q:
                continue
            out.append(
                f'<line x1="{_fmt(sx(p.x))}" y1="{_fmt(sy(p.y))}" '
                f'x2="{_fmt(sx(q.x))}" y2="{_fmt(sy(q.y))}" '
                f'stroke="{color}" stroke-width="{width}"{dash} '
                f'marker-end="url(#arrow{i})"/>'
            )
        for p in trace:
            out.append(
                f'<circle cx="{_fmt(sx(p.x))}" cy="{_fmt(sy(p.y))}" r="{radius}" '
                f'fill="{color}" fill-opacity="0.85"/>'
            )

    lx = pad_l + pw + 14
    ly = pad_t + 6
    for i, (oid, _, color, width, dash, _) in enumerate(drawn):
        out.append(
            f'<line x1="{lx}" y1="{ly + 18 * i}" x2="{lx + 26}" y2="{ly + 18 * i}" '
            f'stroke="{color}" stroke-width="{width}"{dash}/>'
        )
        out.append(
            f'<text x="{lx + 32}" y="{ly + 18 * i + 4}" font-family="Helvetica" '
            f'font-size="12" fill="#333333">{_escape(oid)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
