"""DOT and SVG emitters: structure, escaping, determinism."""

import dataclasses
import xml.etree.ElementTree as ET
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest

from footocel.cli import main
from footocel.errors import QueryError
from footocel.mining import DirectlyFollows, OcDfg, discover_ocdfg
from footocel.ocel import OcelEvent, OcelLog, OcelObject, write_ocel_json
from footocel.render import _grid_drawing, dfg_to_dot, spatial_instance_svg
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
    bare = dfg_to_dot(small_dfg(), node_labels=False, edge_labels=False)
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
    dot = dfg_to_dot(dfg, node_labels=False)
    assert '[label="Say \\"hi\\"\\\\now"];' in dot


def test_dot_foreign_types_take_free_palette_colors(tmp_path, capsys):
    """Types outside the color table take, in sorted order, the palette colors
    no table entry uses; the dfg command draws a log of two such types."""
    dfg = OcDfg(per_type={t: DirectlyFollows(
        activity_counts=Counter({"A": 1}),
        edge_counts=Counter({("A", "A"): 1}),
    ) for t in ("referee", "coach", "ball")})
    edges = [line for line in dfg_to_dot(dfg).splitlines() if " -> " in line]
    assert [line.split('color="')[1][:7] for line in edges] == ["#111111", "#e7298a", "#66a61e"]

    objects = [OcelObject("o1", "order", {}), OcelObject("i1", "item", {})]
    events = [OcelEvent(f"e{i}", "Ship", T0 + timedelta(seconds=i), {},
                        (("o1", "match"), ("i1", "ball"))) for i in range(2)]
    path = tmp_path / "foreign.json"
    write_ocel_json(OcelLog(objects, events), path)
    assert main(["dfg", "--ocel", str(path), "--types", "order,item"]) == 0
    dot = capsys.readouterr().out
    assert '[label="item:1", color="#e7298a", fontcolor="#e7298a"];' in dot
    assert '[label="order:1", color="#66a61e", fontcolor="#66a61e"];' in dot


def test_dot_unknown_type_gets_fallback_color():
    dfg = OcDfg(per_type={"referee": DirectlyFollows(
        activity_counts=Counter({"A": 1}),
        edge_counts=Counter({("A", "A"): 2}),
        start_counts=Counter({"A": 1}),
        end_counts=Counter({"A": 1}),
        n_objects=1,
    )})
    assert 'color="#e7298a"' in dfg_to_dot(dfg)


def test_dot_byte_stable(log):
    dfg = discover_ocdfg(log, ["ball", "player", "team"])
    assert dfg_to_dot(dfg) == dfg_to_dot(dfg)


# --- SVG ---

def tiny_spatial_log() -> OcelLog:
    objects = [
        OcelObject("P1", "possession", {"team": "Home", "outcome": "goal"}),
        OcelObject("HomeP1", "player", {"side": "Home"}),
        OcelObject("ball", "ball", {}),
        OcelObject("HomeP2", "player", {"side": "Home"}),  # only in unplotted e4: not drawn
    ]
    events = [
        OcelEvent("e1", "Pass", T0, {"x": 0.1, "y": 0.5},
                  (("ball", "ball"), ("HomeP1", "executing_player"),
                   ("HomeP1", "receiving_player"), ("P1", "possession"))),
        OcelEvent("e2", "Player changes position", T0,
                  {"to_cell": "D3", "from_cell": "C3"},
                  (("HomeP1", "executing_player"), ("P1", "possession"))),
        OcelEvent("e3", "Shot", T0, {"x": 0.9, "y": 0.5},
                  (("ball", "ball"), ("HomeP1", "executing_player"), ("P1", "possession"))),
        OcelEvent("e4", "Half time", T0, {},  # no coordinates: not plotted
                  (("HomeP2", "executing_player"), ("P1", "possession"))),
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
    # e1..e3 once each, though two qualifiers tie HomeP1 to e1
    assert svg.count("<circle") == 3


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
    # a malformed cell fails the query even on an event no drawn object relates to
    bad_cell = OcelEvent("e5", "Half time", T0, {"cell": "Z9"}, (("P1", "possession"),))
    with pytest.raises(QueryError, match="e5"):
        spatial_instance_svg(OcelLog(log.objects, [*log.events, bad_cell]), "P1", ["ball"],
                             GridSpec())


def test_svg_cell_outside_a_smaller_grid_names_its_event():
    """A label that is not one of the grid's cells is still checked."""
    log = OcelLog(
        [OcelObject("P1", "possession", {}), OcelObject("HomeP1", "player", {})],
        [OcelEvent("e1", "Player changes position", T0, {"to_cell": "E3"},
                   (("HomeP1", "executing_player"), ("P1", "possession")))],
    )
    assert spatial_instance_svg(log, "P1", ["player"], GridSpec()).count("<circle") == 1
    with pytest.raises(QueryError) as err:
        spatial_instance_svg(log, "P1", ["player"], GridSpec(cols=3, rows=2))
    assert str(err.value) == "event 'e1': cell label 'E3' outside the 3x2 grid"


def test_svg_lowercase_cell_plots_at_its_cell_center():
    log = tiny_spatial_log()
    e2 = dataclasses.replace(log.events[1], attrs={"to_cell": "d3", "from_cell": "C3"})
    lowered = dataclasses.replace(log, events=(log.events[0], e2, *log.events[2:]))
    svg = spatial_instance_svg(lowered, "P1", ["player"], GridSpec())
    assert f'<circle cx="{30 + (3.5 / 6) * 660:.2f}" cy="{46 + (1.5 / 4) * 438:.2f}"' in svg
    assert svg == spatial_instance_svg(log, "P1", ["player"], GridSpec())


def test_svg_skips_a_relation_to_an_object_the_log_lacks():
    log = tiny_spatial_log()
    e1 = log.events[0]
    ghosted = dataclasses.replace(e1, relations=(*e1.relations, ("ghost", "executing_player")))
    with_ghost = dataclasses.replace(log, events=(ghosted, *log.events[1:]))
    for types in (["ball", "player"], ["player"]):
        assert (spatial_instance_svg(with_ghost, "P1", types, GridSpec())
                == spatial_instance_svg(log, "P1", types, GridSpec()))


def test_svg_grids_drawn_in_turn_each_give_their_own_bytes(log):
    pid = next(o.oid for o in log.objects if o.otype == "possession")
    default, wide = GridSpec(), GridSpec(cols=7, rows=5)
    cold = {}  # each grid drawn with no grid cached
    for spec in (default, wide):
        _grid_drawing.cache_clear()
        cold[spec] = spatial_instance_svg(log, pid, ["ball", "player"], spec)
    assert ">F4<" in cold[default] and ">G5<" not in cold[default]
    assert ">G5<" in cold[wide]
    for spec in (default, wide, default):
        assert spatial_instance_svg(log, pid, ["ball", "player"], spec) == cold[spec]


def test_replaced_log_builds_its_own_object_index():
    log = tiny_spatial_log()
    assert "possession P1 (Home, goal)" in spatial_instance_svg(log, "P1", ["ball"], GridSpec())
    away = OcelObject("P1", "possession", {"team": "Away", "outcome": "lost"})
    replaced = dataclasses.replace(log, objects=(away, *log.objects[1:]))
    assert replaced.object_index["P1"] is away
    assert "possession P1 (Away, lost)" in spatial_instance_svg(replaced, "P1", ["ball"],
                                                                GridSpec())
    assert log.object_index["P1"].attrs["team"] == "Home"


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


def scanned_possession_log(log: OcelLog, pid: str) -> OcelLog:
    """The log cut to the events related to pid, found by a brute-force scan."""
    return OcelLog(log.objects, [e for e in log.events
                                 if pid in {oid for oid, _ in e.relations}])


def interleaved_possessions_log() -> OcelLog:
    """Two possessions whose events alternate; e3 relates to P1 under two qualifiers."""
    objects = [
        OcelObject("P1", "possession", {"team": "Home", "outcome": "lost"}),
        OcelObject("P2", "possession", {"team": "Away", "outcome": "shot"}),
        OcelObject("ball", "ball", {}),
        OcelObject("HomeP1", "player", {"side": "Home"}),
        OcelObject("AwayP1", "player", {"side": "Away"}),
    ]
    events = [
        OcelEvent("e1", "Pass", T0, {"x": 0.1, "y": 0.5},
                  (("ball", "ball"), ("HomeP1", "executing_player"), ("P1", "possession"))),
        OcelEvent("e2", "Pass", T0, {"x": 0.3, "y": 0.2},
                  (("ball", "ball"), ("AwayP1", "executing_player"), ("P2", "possession"))),
        OcelEvent("e3", "Pass", T0, {"x": 0.5, "y": 0.5},
                  (("P1", "possession"), ("ball", "ball"), ("HomeP1", "executing_player"),
                   ("P1", "match"))),
        OcelEvent("e4", "Player changes position", T0, {"to_cell": "C2"},
                  (("AwayP1", "executing_player"), ("P2", "possession"))),
        OcelEvent("e5", "Player changes position", T0, {"to_cell": "D3"},
                  (("HomeP1", "executing_player"), ("P1", "possession"))),
    ]
    return OcelLog(objects, events)


def test_svg_equals_the_svg_of_its_scanned_events(log):
    """Each possession draws as the log of only its events, found by a scan, draws."""
    grid = GridSpec()
    micro = interleaved_possessions_log()
    cases = [(micro, "P1"), (micro, "P2")]
    cases += [(log, o.oid) for o in log.objects if o.otype == "possession"]
    assert len(cases) > 10
    for source, pid in cases:
        svg = spatial_instance_svg(source, pid, ["ball", "player"], grid)
        assert svg == spatial_instance_svg(scanned_possession_log(source, pid), pid,
                                           ["ball", "player"], grid)
    # P1: the ball at e1 and e3, HomeP1 at e1, e3 and e5; e3 once though tied twice
    assert spatial_instance_svg(micro, "P1", ["ball", "player"], grid).count("<circle") == 5
