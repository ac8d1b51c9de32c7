"""DOT and SVG emitters: structure, escaping, determinism."""

import xml.etree.ElementTree as ET
from collections import Counter
from datetime import datetime, timezone

import pytest

from footocel.errors import QueryError
from footocel.mining import DirectlyFollows, OcDfg, discover_ocdfg
from footocel.ocel import OcelEvent, OcelLog, OcelObject
from footocel.render import RenderOptions, dfg_to_dot, spatial_instance_svg
from footocel.spatial import GridSpec

T0 = datetime(2020, 7, 1, 15, 0, 0, tzinfo=timezone.utc)


def small_dfg() -> OcDfg:
    return OcDfg(per_type={
        "player": DirectlyFollows(
            activity_counts=Counter({"Pass": 2, "Shot": 1}),
            edge_counts=Counter({("Pass", "Pass"): 1, ("Pass", "Shot"): 1}),
            start_counts=Counter({"Pass": 1}),
            end_counts=Counter({"Shot": 1}),
            n_objects=1,
        ),
        "ball": DirectlyFollows(
            activity_counts=Counter({"Pass": 2}),
            edge_counts=Counter({("Pass", "Pass"): 1}),
            start_counts=Counter({"Pass": 1}),
            end_counts=Counter({"Pass": 1}),
            n_objects=1,
        ),
    })


def test_dot_structure():
    dot = dfg_to_dot(small_dfg())
    lines = dot.splitlines()
    assert lines[0] == "digraph ocdfg {"
    assert lines[1] == "  rankdir=LR;"
    assert lines[-1] == "}"
    assert dot.endswith("}\n")
    # activities sorted: Pass -> n0, Shot -> n1
    assert '  n0 [label="Pass\\nball:2, player:2"];' in lines
    assert '  n1 [label="Shot\\nplayer:1"];' in lines
    assert '  n0 -> n0 [label="ball:1", color="#111111", fontcolor="#111111"];' in lines
    assert '  n0 -> n1 [label="player:1", color="#1b9e77", fontcolor="#1b9e77"];' in lines


def test_dot_label_options():
    bare = dfg_to_dot(small_dfg(), RenderOptions(node_labels=False, edge_labels=False))
    assert '  n1 [label="Shot"];' in bare
    assert "fontcolor" not in bare
    assert '  n0 -> n1 [color="#1b9e77"];' in bare


def test_dot_escapes_special_characters():
    dfg = OcDfg(per_type={"player": DirectlyFollows(
        activity_counts=Counter({'Say "hi"\\now': 1}),
        edge_counts=Counter(),
        start_counts=Counter({'Say "hi"\\now': 1}),
        end_counts=Counter({'Say "hi"\\now': 1}),
        n_objects=1,
    )})
    dot = dfg_to_dot(dfg, RenderOptions(node_labels=False))
    assert '[label="Say \\"hi\\"\\\\now"];' in dot


def test_dot_requires_distinct_colors():
    """Two types outside the color table would share the fallback color."""
    dfg = OcDfg(per_type={"referee": DirectlyFollows(), "coach": DirectlyFollows()})
    with pytest.raises(ValueError, match="distinct colors"):
        dfg_to_dot(dfg)


def test_dot_unknown_type_gets_fallback_color():
    dfg = OcDfg(per_type={"referee": DirectlyFollows(
        activity_counts=Counter({"A": 1}),
        edge_counts=Counter({("A", "A"): 2}),
        start_counts=Counter({"A": 1}),
        end_counts=Counter({"A": 1}),
        n_objects=1,
    )})
    assert 'color="#444444"' in dfg_to_dot(dfg)


def test_dot_byte_stable(log):
    dfg = discover_ocdfg(log, ["ball", "player", "team"])
    assert dfg_to_dot(dfg) == dfg_to_dot(dfg)


# --- SVG ---

def tiny_spatial_log() -> OcelLog:
    objects = [
        OcelObject("P1", "possession", {"team": "Home", "outcome": "goal"}),
        OcelObject("HomeP1", "player", {"side": "Home"}),
        OcelObject("ball", "ball", {}),
    ]
    events = [
        OcelEvent("e1", "Pass", T0, {"x": 0.1, "y": 0.5},
                  (("ball", "ball"), ("HomeP1", "executing_player"), ("P1", "possession"))),
        OcelEvent("e2", "Player changes position", T0,
                  {"to_cell": "D3", "from_cell": "C3"},
                  (("HomeP1", "executing_player"), ("P1", "possession"))),
        OcelEvent("e3", "Shot", T0, {"x": 0.9, "y": 0.5},
                  (("ball", "ball"), ("HomeP1", "executing_player"), ("P1", "possession"))),
        OcelEvent("e4", "Half time", T0, {},
                  (("P1", "possession"),)),  # no coordinates: not plotted
    ]
    return OcelLog(objects, events)


def test_svg_well_formed_and_byte_stable():
    log = tiny_spatial_log()
    svg = spatial_instance_svg(log, "P1", ["ball", "player"], GridSpec())
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg == spatial_instance_svg(log, "P1", ["ball", "player"], GridSpec())


def test_svg_header_title_and_grid_labels():
    svg = spatial_instance_svg(tiny_spatial_log(), "P1", ["ball"], GridSpec())
    assert 'width="880" height="500"' in svg
    assert "possession P1 (Home, goal)" in svg
    for label in ("A1", "A4", "F1", "F4", "D3"):
        assert f">{label}<" in svg


def test_svg_ball_style_and_legend():
    svg = spatial_instance_svg(tiny_spatial_log(), "P1", ["ball", "player"], GridSpec())
    assert 'stroke-dasharray="7 4"' in svg
    assert ">ball<" in svg
    assert ">HomeP1<" in svg
    # ball first in the legend and marker defs: one marker per trace
    assert svg.count("<marker id=") == 2
    assert svg.index(">ball<") < svg.index(">HomeP1<")


def test_svg_coordinate_precedence():
    """Events with raw coordinates plot there; cell-only events use the center."""
    spec = GridSpec()
    svg = spatial_instance_svg(tiny_spatial_log(), "P1", ["player"], spec)
    # e1 at (0.1, 0.5): x = 30 + 0.1*660 = 96, y = 46 + 0.5*438 = 265
    assert '<circle cx="96.00" cy="265.00"' in svg
    # e2 has only cells; to_cell D3 -> column D center x=(3.5/6), row 3 -> y=(1.5/4)
    ex = 30 + (3.5 / 6) * 660
    ey = 46 + (1.5 / 4) * 438
    assert f'<circle cx="{ex:.2f}" cy="{ey:.2f}"' in svg


def test_svg_excludes_unrelated_and_unplottable_events():
    log = tiny_spatial_log()
    svg = spatial_instance_svg(log, "P1", ["ball"], GridSpec())
    # three plottable event points for the ball? e1 and e3 only (e2 has no ball)
    assert svg.count("<circle") == 2


def test_svg_error_cases():
    log = tiny_spatial_log()
    with pytest.raises(QueryError, match="unknown possession id"):
        spatial_instance_svg(log, "nope", ["ball"], GridSpec())
    with pytest.raises(QueryError, match="unknown possession id"):
        spatial_instance_svg(log, "ball", ["ball"], GridSpec())  # wrong type
    with pytest.raises(QueryError, match="at least one object type"):
        spatial_instance_svg(log, "P1", [], GridSpec())


def test_svg_on_converted_log(log, spans):
    goal_spans = [s for s in spans if s.outcome == "goal"]
    assert goal_spans
    pid = goal_spans[0].span_id
    svg = spatial_instance_svg(log, pid, ["ball", "player"], GridSpec())
    ET.fromstring(svg)
    assert f"possession {pid} " in svg
    assert svg == spatial_instance_svg(log, pid, ["ball", "player"], GridSpec())


def test_svg_trace_follows_possession_membership(log, spans):
    """Rendering a possession only draws events related to that possession."""
    pid = spans[0].span_id
    svg = spatial_instance_svg(log, pid, ["ball"], GridSpec())
    ball_id = next(o.oid for o in log.objects if o.otype == "ball")
    n_ball_points = sum(
        1 for e in log.events
        if {pid, ball_id} <= {oid for oid, _ in e.relations}
        and ("x" in e.attrs or "to_cell" in e.attrs or "cell" in e.attrs)
    )
    assert n_ball_points > 0
    assert svg.count('r="5.0"') == n_ball_points
