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
The possession's events are its trace in the frozen log's index
(OcelLog.traces), so a call does not visit the rest of the log.  Each
drawn object's points follow its trace (ocel.object_traces) over those of
the events that have a point.

What depends on the grid alone, the pitch drawing and each cell label's
center on the canvas, is built on a grid's first render and kept for the
last few grids (GridSpec is frozen, so it keys the cache).  A cell label not
in that map, lowercase or outside the grid, goes through parse_cell_label,
so it plots at its cell or fails the query naming its event.  A call formats
each of its plotted points once, however many traces pass through it.

Text is escaped for XML here (&, > and <): xml.sax.saxutils would import the
network stack into every process that renders.  Every attribute value is a
literal or a color from the tables below, so none needs escaping.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional, Sequence

from .derive import snap_to_pitch
from .errors import QueryError, shown
from .mining import OcDfg
from .ocel import OBJECT_TYPE_BALL, OBJECT_TYPE_POSSESSION, OcelEvent, OcelLog, object_traces
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

# SVG canvas size in pixels, and the plot area's place in it: the legend
# takes the right-hand LEGEND_W pixels
WIDTH, HEIGHT = 880, 500
PAD_L, PAD_T, PAD_B, LEGEND_W = 30, 46, 16, 180
PLOT_W = WIDTH - PAD_L - LEGEND_W - 10
PLOT_H = HEIGHT - PAD_T - PAD_B


def _escape(text: str) -> str:
    """XML character data: &, > and < as entities, in that order."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def dfg_to_dot(dfg: OcDfg, *, node_labels: bool = True, edge_labels: bool = True) -> str:
    """Emit the multi-type directly-follows graph as a DOT digraph.

    One node per activity (shared across types), one edge per
    (type, a -> b) colored by type.  Node labels add the per-type counts
    and edge labels read "<type>:<count>", unless turned off.
    """
    types = sorted(dfg.per_type)
    # types outside TYPE_COLORS take the palette colors it leaves free, in order
    spare = itertools.cycle([c for c in TRACE_PALETTE if c not in TYPE_COLORS.values()])
    colors = {t: TYPE_COLORS.get(t) or next(spare) for t in types}

    activities = sorted({a for g in dfg.per_type.values() for a in g.activity_counts})
    node_id = {a: f"n{i}" for i, a in enumerate(activities)}

    lines = ["digraph ocdfg {", "  rankdir=LR;", '  node [shape=box, fontname="Helvetica"];']
    for a in activities:
        label = a
        if node_labels:
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
            if edge_labels:
                parts.insert(0, f"label={_dot_quote(f'{t}:{count}')}")
                parts.append(f"fontcolor={_dot_quote(colors[t])}")
            lines.append(f"  {node_id[a]} -> {node_id[b]} [{', '.join(parts)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _placed(p: Point) -> tuple[Point, str, str]:
    """A pitch point with its canvas coordinates, formatted."""
    return p, _fmt(PAD_L + p.x * PLOT_W), _fmt(PAD_T + p.y * PLOT_H)


@lru_cache(maxsize=8)
def _grid_drawing(spec: GridSpec) -> tuple[str, dict[str, tuple[Point, str, str]]]:
    """The pitch of one grid as SVG lines (frame, grid lines, cell labels), and
    each cell label's center placed on the canvas; built on a grid's first
    render and shared by every later one, which only reads it."""
    left, top, right, bottom = _fmt(PAD_L), _fmt(PAD_T), _fmt(PAD_L + PLOT_W), _fmt(PAD_T + PLOT_H)
    out = [
        f'<rect x="{left}" y="{top}" width="{_fmt(PLOT_W)}" height="{_fmt(PLOT_H)}" '
        f'fill="#fbfdfb" stroke="#444444" stroke-width="1.2"/>'
    ]
    for c in range(1, spec.cols):
        x = _fmt(PAD_L + c / spec.cols * PLOT_W)
        out.append(
            f'<line x1="{x}" y1="{top}" x2="{x}" y2="{bottom}" '
            f'stroke="#cccccc" stroke-width="0.8"/>'
        )
    for r in range(1, spec.rows):
        y = _fmt(PAD_T + r / spec.rows * PLOT_H)
        out.append(
            f'<line x1="{left}" y1="{y}" x2="{right}" y2="{y}" '
            f'stroke="#cccccc" stroke-width="0.8"/>'
        )
    centers = {}
    for cell in spec.all_cells():
        label = cell_label(cell)
        centers[label] = center = _placed(cell_center(cell, spec))
        out.append(
            f'<text x="{center[1]}" y="{center[2]}" '
            f'font-family="Helvetica" font-size="12" fill="#c9c9c9" '
            f'text-anchor="middle" dominant-baseline="central">{label}</text>'
        )
    return "\n".join(out), centers


def _event_point(
    event: OcelEvent, spec: GridSpec, centers: dict[str, tuple[Point, str, str]],
) -> Optional[tuple[Point, str, str]]:
    """Where to plot an event, placed on the canvas: exact coordinates, else
    its cell's center."""
    attrs = event.attrs
    try:
        if "x" in attrs and "y" in attrs:
            return _placed(snap_to_pitch(Point(float(attrs["x"]), float(attrs["y"]))))
        for key in ("to_cell", "cell"):
            if key in attrs:
                label = attrs[key]
                center = centers.get(label) if isinstance(label, str) else None
                return center or _placed(cell_center(parse_cell_label(label, spec), spec))
    except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond the float range
        raise QueryError(f"event {shown(event.eid)}: {exc}") from None
    return None


def spatial_instance_svg(
    log: OcelLog,
    possession_id: str,
    object_types: Sequence[str],
    spec: GridSpec,
) -> str:
    """Draw one possession's object traces over the pitch grid (SVG 1.1)."""
    index = log.object_index
    possession = index.get(possession_id)
    if possession is None or possession.otype != OBJECT_TYPE_POSSESSION:
        raise QueryError(f"unknown possession id {shown(possession_id)}")
    if not object_types:
        raise QueryError("at least one object type must be rendered")
    pitch, centers = _grid_drawing(spec)

    # each of the possession's events placed once; an object's points follow its trace
    plotted: list[OcelEvent] = []
    points: dict[str, tuple[Point, str, str]] = {}  # event id -> placed point
    for e in log.traces.get(possession_id, ()):
        point = _event_point(e, spec, centers)
        if point is not None:
            plotted.append(e)
            points[e.eid] = point
    wanted = set(object_types)
    traces = {oid: trace for oid, trace in object_traces(plotted).items()
              if oid in index and index[oid].otype in wanted}  # an id the log lacks: not drawn

    # ball first, then everything else by (type, id); colors follow this order
    def trace_order(oid: str):
        obj = index[oid]
        return (obj.otype != OBJECT_TYPE_BALL, obj.otype, oid)

    palette = itertools.cycle(TRACE_PALETTE)
    drawn = []  # (oid, placed points, color, stroke width, dash attribute, point radius)
    for oid in sorted(traces, key=trace_order):
        if index[oid].otype == OBJECT_TYPE_BALL:
            style = (TYPE_COLORS[OBJECT_TYPE_BALL], 2.6, ' stroke-dasharray="7 4"', 5.0)
        else:
            style = (next(palette), 1.6, "", 3.6)
        drawn.append((oid, [points[e.eid] for e in traces[oid]], *style))

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
        f'<text x="{PAD_L}" y="24" font-family="Helvetica" font-size="15" '
        f'fill="#222222">possession {_escape(possession_id)}'
        f' ({_escape(str(possession.attrs.get("team", "?")))},'
        f' {_escape(str(possession.attrs.get("outcome", "?")))})</text>'
    )
    out.append(pitch)

    for i, (_, trace, color, width, dash, radius) in enumerate(drawn):
        for (p, px, py), (q, qx, qy) in zip(trace, trace[1:]):
            if p == q:
                continue
            out.append(
                f'<line x1="{px}" y1="{py}" x2="{qx}" y2="{qy}" '
                f'stroke="{color}" stroke-width="{width}"{dash} '
                f'marker-end="url(#arrow{i})"/>'
            )
        for _, px, py in trace:
            out.append(
                f'<circle cx="{px}" cy="{py}" r="{radius}" '
                f'fill="{color}" fill-opacity="0.85"/>'
            )

    lx = PAD_L + PLOT_W + 14
    ly = PAD_T + 6
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
