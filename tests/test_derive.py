"""Event decomposition, movement detection, stream merging and enrichment."""

import json
import math
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from footocel.derive import (
    BALL,
    ActivityEvent,
    GAME_BASED,
    POSITION_BASED,
    MOVEMENT_ACTIVITY,
    decompose_events,
    default_activity_mapping,
    detect_movement_events,
    enrich,
    load_activity_mapping,
    snap_to_pitch,
)
from footocel.errors import ConsistencyError, ParseError
from footocel.ingest import RawEventRecord, Tracking, TrackingFrame, normalize_direction
from footocel.ocel import EPOCH_BASE, IdentityScope, build_objects, concat_logs, events_to_ocel
from footocel.possession import segment_possessions
from footocel.spatial import GridSpec, Point, cell_label, cell_of, metric_distance
from oracles import path_length

SPEC = GridSpec()


def raw(team="Home", etype="PASS", subtype=None, period=1, start=1.0, end=2.0,
        from_player="Player1", to_player=None, start_pos=None, end_pos=None):
    return RawEventRecord(
        team=team, event_type=etype, subtype=subtype, period=period,
        start_frame=int(start * 25), start_time_s=start,
        end_frame=int(end * 25), end_time_s=end,
        from_player=from_player, to_player=to_player,
        start_pos=start_pos, end_pos=end_pos,
    )


def test_default_mapping_covers_the_provider_vocabulary():
    mapping = default_activity_mapping()
    assert mapping["PASS"].activity == "Pass"
    assert mapping["PASS"].end_activity == "Pass received"
    assert mapping["SHOT"].goal_end_activity == "Goal"
    assert mapping["BALL OUT"].at_end is True
    for game_type in ("CHALLENGE", "CARD", "FAULT RECEIVED"):
        assert mapping[game_type].event_class == GAME_BASED
    for ball_type in ("SET PIECE", "PASS", "SHOT", "RECOVERY", "BALL LOST", "BALL OUT"):
        assert mapping[ball_type].event_class == BALL


@pytest.mark.parametrize("payload, message", [
    ([], "must be a JSON object"),
    ({"X": []}, "must be an object"),
    ({"X": {"activity": "A", "bogus": 1}}, "unknown keys"),
    ({"X": {"end_activity": "B"}}, "needs a string 'activity'"),
    ({"X": {"activity": "A", "class": "position_based"}}, "game_based or ball"),
])
def test_activity_map_validation(tmp_path, payload, message):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match=message):
        load_activity_mapping(path)


def test_pass_decomposes_into_pass_and_receipt():
    record = raw(etype="PASS", to_player="Player2",
                 start_pos=Point(0.2, 0.5), end_pos=Point(0.4, 0.5))
    first, second = decompose_events([record], SPEC)
    assert first.activity == "Pass" and second.activity == "Pass received"
    assert first.time_s == 1.0 and second.time_s == 2.0
    assert first.players == ("HomePlayer1", "HomePlayer2")
    assert first.roles == ("executing_player", "receiving_player")
    assert second.players == ("HomePlayer2",)
    assert second.roles == ("receiving_player",)
    assert first.position == Point(0.2, 0.5) and second.position == Point(0.4, 0.5)
    assert first.cell == cell_of(Point(0.2, 0.5), SPEC)
    expected = metric_distance(Point(0.2, 0.5), Point(0.4, 0.5), SPEC)
    assert first.attrs["distance_m"] == pytest.approx(expected)
    assert first.attrs["duration_s"] == pytest.approx(1.0)
    assert second.attrs["duration_s"] == pytest.approx(1.0)


def test_pass_without_receiver_has_no_receipt():
    events = decompose_events([raw(etype="PASS", to_player=None)], SPEC)
    assert [e.activity for e in events] == ["Pass"]


def test_goal_marked_shot_emits_goal():
    events = decompose_events(
        [raw(etype="SHOT", subtype="ON TARGET-GOAL", end_pos=Point(0.99, 0.5))], SPEC)
    assert [e.activity for e in events] == ["Shot", "Goal"]
    goal = events[1]
    assert goal.time_s == 2.0
    assert goal.players == ("HomePlayer1",)
    assert goal.attrs["subtype"] == "ON TARGET-GOAL"


@pytest.mark.parametrize("subtype", [None, "ON TARGET", "OFF TARGET", "OWN GOAL"])
def test_unmarked_shot_emits_no_goal(subtype):
    events = decompose_events([raw(etype="SHOT", subtype=subtype)], SPEC)
    assert [e.activity for e in events] == ["Shot"]


def test_ball_out_is_a_single_event_at_the_end_fields():
    record = raw(etype="BALL OUT", start=3.0, end=3.4,
                 start_pos=Point(0.9, 0.5), end_pos=Point(1.02, 0.52))
    event, = decompose_events([record], SPEC)
    assert event.activity == "Ball out"
    assert event.time_s == 3.4
    assert event.position == Point(1.02, 0.52)   # raw value preserved
    assert event.cell == cell_of(snap_to_pitch(Point(1.02, 0.52)), SPEC)
    assert cell_label(event.cell).startswith("F")


def test_ball_out_falls_back_to_start_fields():
    event, = decompose_events(
        [raw(etype="BALL OUT", start=3.0, end=3.4, start_pos=Point(0.9, 0.5))], SPEC)
    assert event.time_s == 3.4
    assert event.position == Point(0.9, 0.5)


def test_positionless_events_have_no_cell():
    event, = decompose_events([raw(etype="RECOVERY")], SPEC)
    assert event.position is None and event.cell is None
    assert "distance_m" not in event.attrs


def test_game_based_classes_pass_through():
    event, = decompose_events([raw(etype="CHALLENGE", subtype="GROUND-WON")], SPEC)
    assert event.event_class == GAME_BASED


def test_unknown_types_reject_by_default():
    with pytest.raises(ConsistencyError, match="unknown event type 'WEATHER'"):
        decompose_events([raw(etype="WEATHER")], SPEC)


def test_unknown_types_can_pass_through():
    event, = decompose_events([raw(etype="WEATHER")], SPEC, on_unknown="pass")
    assert event.activity == "Other:WEATHER"
    assert event.event_class == GAME_BASED
    with pytest.raises(ValueError):
        decompose_events([], SPEC, on_unknown="maybe")


def test_decomposition_is_time_ordered():
    records = [
        raw(etype="PASS", start=5.0, end=9.0, to_player="Player2"),
        raw(etype="RECOVERY", start=6.0, end=6.0),
    ]
    events = decompose_events(records, SPEC)
    assert [e.activity for e in events] == ["Pass", "Recovery", "Pass received"]
    assert [e.time_s for e in events] == [5.0, 6.0, 9.0]


def tracking_of(rows):
    """The columnar Tracking of TrackingFrame rows; a label a row lacks is untracked there."""
    labels = sorted({label for row in rows for label in row.positions})

    def column(points, axis):
        return array("d", [math.nan if p is None else p[axis] for p in points])

    def pair(points):
        return column(points, 0), column(points, 1)

    return Tracking(
        array("q", [row.period for row in rows]),
        array("q", [row.frame for row in rows]),
        array("d", [row.time_s for row in rows]),
        {label: pair([row.positions.get(label) for row in rows]) for label in labels},
        pair([row.ball for row in rows]),
    )


def frames_from_walk(points, period=1, label="HomePlayer1", start_frame=1, rate=25.0):
    return tracking_of([
        TrackingFrame(period, start_frame + i, (start_frame + i) / rate,
                      {label: p}, None)
        for i, p in enumerate(points)
    ])


def test_first_observation_emits_nothing():
    frames = frames_from_walk([Point(0.1, 0.1), Point(0.11, 0.1)])
    assert detect_movement_events(frames, SPEC) == []


def test_cell_crossing_fires_at_first_frame_inside():
    frames = frames_from_walk([Point(0.1, 0.5), Point(0.15, 0.5), Point(0.2, 0.5)])
    event, = detect_movement_events(frames, SPEC)
    assert event.activity == MOVEMENT_ACTIVITY
    assert event.event_class == POSITION_BASED
    assert event.attrs["from_cell"] == "A3" and event.attrs["to_cell"] == "B3"
    assert event.time_s == pytest.approx(3 / 25)
    assert event.attrs["duration_s"] == pytest.approx(2 / 25)
    walked = (metric_distance(Point(0.1, 0.5), Point(0.15, 0.5), SPEC)
              + metric_distance(Point(0.15, 0.5), Point(0.2, 0.5), SPEC))
    assert event.attrs["distance_m"] == pytest.approx(walked)
    assert event.players == ("HomePlayer1",)
    assert event.team is None  # attached later by enrichment


def test_gap_reappearing_in_same_cell_continues_residence():
    pts = [Point(0.1, 0.5), None, Point(0.12, 0.5), Point(0.2, 0.5)]
    event, = detect_movement_events(frames_from_walk(pts), SPEC)
    # the bridge across the gap counts toward the walked distance
    walked = (metric_distance(Point(0.1, 0.5), Point(0.12, 0.5), SPEC)
              + metric_distance(Point(0.12, 0.5), Point(0.2, 0.5), SPEC))
    assert event.attrs["distance_m"] == pytest.approx(walked)
    assert event.attrs["duration_s"] == pytest.approx(3 / 25)


def test_gap_reappearing_elsewhere_resets_silently():
    pts = [Point(0.1, 0.5), None, Point(0.5, 0.5), Point(0.52, 0.5)]
    assert detect_movement_events(frames_from_walk(pts), SPEC) == []
    # and the next real crossing measures from the reappearance only
    pts += [Point(0.7, 0.5)]
    event, = detect_movement_events(frames_from_walk(pts), SPEC)
    assert event.attrs["from_cell"] == "D3" and event.attrs["to_cell"] == "E3"
    walked = (metric_distance(Point(0.5, 0.5), Point(0.52, 0.5), SPEC)
              + metric_distance(Point(0.52, 0.5), Point(0.7, 0.5), SPEC))
    assert event.attrs["distance_m"] == pytest.approx(walked)


def test_period_boundary_resets_state():
    frames = tracking_of(
        list(frames_from_walk([Point(0.1, 0.5)], period=1, start_frame=1))
        + list(frames_from_walk([Point(0.9, 0.5), Point(0.9, 0.45)],
                                period=2, start_frame=100)))
    assert detect_movement_events(frames, SPEC) == []


def test_min_dwell_debounces_border_jitter():
    # one frame across the border and back: no event once dwell > one frame
    jitter = [Point(0.16, 0.5), Point(0.168, 0.5), Point(0.16, 0.5), Point(0.16, 0.5)]
    assert detect_movement_events(frames_from_walk(jitter), SPEC, min_dwell_s=0.1) == []
    assert len(detect_movement_events(frames_from_walk(jitter), SPEC)) == 2

    # a sustained move still fires, stamped at the first frame inside
    sustained = [Point(0.16, 0.5)] + [Point(0.2, 0.5)] * 5
    event, = detect_movement_events(frames_from_walk(sustained), SPEC, min_dwell_s=0.1)
    assert event.time_s == pytest.approx(2 / 25)
    with pytest.raises(ValueError):
        detect_movement_events([], SPEC, min_dwell_s=-1)


def test_dwell_switching_cells_restarts_the_clock():
    # B3 for one frame, then C3: the dwell clock restarts at C3
    pts = [Point(0.1, 0.5), Point(0.2, 0.5), Point(0.35, 0.5),
           Point(0.35, 0.5), Point(0.35, 0.5)]
    events = detect_movement_events(frames_from_walk(pts), SPEC, min_dwell_s=0.05)
    assert [e.attrs["to_cell"] for e in events] == ["C3"]
    assert events[0].attrs["from_cell"] == "A3"
    assert events[0].time_s == pytest.approx(3 / 25)


def reference_movement_nogaps(points, spec, rate=25.0):
    """Dwell-free reference for a single uninterrupted walk."""
    cells = [cell_of(snap_to_pitch(p), spec) for p in points]
    out = []
    entry = 0
    for i in range(1, len(points)):
        if cells[i] != cells[i - 1]:
            dist = sum(
                metric_distance(points[j - 1], points[j], spec)
                for j in range(entry + 1, i + 1)
            )
            out.append((
                (i + 1) / rate,
                cell_label(cells[i - 1]),
                cell_label(cells[i]),
                (i - entry) / rate,
                dist,
            ))
            entry = i
    return out


def test_movement_matches_reference_on_random_walks():
    rng = random.Random(99)
    for _ in range(40):
        pts = []
        x, y = rng.random(), rng.random()
        for _ in range(rng.randint(2, 120)):
            x = min(max(x + rng.uniform(-0.08, 0.08), 0.0), 1.0)
            y = min(max(y + rng.uniform(-0.08, 0.08), 0.0), 1.0)
            pts.append(Point(x, y))
        got = [
            (e.time_s, e.attrs["from_cell"], e.attrs["to_cell"],
             pytest.approx(e.attrs["duration_s"]), pytest.approx(e.attrs["distance_m"]))
            for e in detect_movement_events(frames_from_walk(pts), SPEC)
        ]
        assert got == reference_movement_nogaps(pts, SPEC)


def reference_movement_events(frames, spec, min_dwell_s=0.0):
    """Row-by-row movement detection over TrackingFrame dicts, as footocel
    did before tracking became columnar: the oracle the columnar detector
    must equal exactly."""
    labels = sorted({label for f in frames for label in f.positions})
    events = []

    for label in labels:
        confirmed = None
        entry_time = 0.0
        acc = 0.0
        last_point = None
        prev_present = False
        last_period = None
        tentative = None  # cell, t0, acc snapshot

        for f in frames:
            if f.period != last_period:
                confirmed = None
                tentative = None
                last_point = None
                prev_present = False
                acc = 0.0
                last_period = f.period
            p = f.positions.get(label)
            if p is None:
                prev_present = False
                continue
            cell = cell_of(snap_to_pitch(p), spec)

            if confirmed is None:
                confirmed, entry_time, acc, tentative = cell, f.time_s, 0.0, None
            elif not prev_present:
                tentative = None
                if cell == confirmed:
                    acc += metric_distance(last_point, p, spec)
                else:
                    confirmed, entry_time, acc = cell, f.time_s, 0.0
            else:
                acc += metric_distance(last_point, p, spec)
                if cell == confirmed:
                    tentative = None
                else:
                    if tentative is None or cell != tentative[0]:
                        tentative = (cell, f.time_s, acc)
                    if f.time_s - tentative[1] >= min_dwell_s:
                        new_cell, t0, dist = tentative
                        events.append(ActivityEvent(
                            activity=MOVEMENT_ACTIVITY,
                            event_class=POSITION_BASED,
                            time_s=t0,
                            period=f.period,
                            team=None,
                            players=(label,),
                            roles=("executing_player",),
                            position=None,
                            cell=None,
                            attrs={
                                "from_cell": cell_label(confirmed),
                                "to_cell": cell_label(new_cell),
                                "duration_s": t0 - entry_time,
                                "distance_m": dist,
                            },
                        ))
                        confirmed, entry_time = new_cell, t0
                        acc -= dist
                        tentative = None
            last_point = p
            prev_present = True

    events.sort(key=lambda e: (e.period, e.time_s, e.players[0]))
    return events


@st.composite
def multi_player_walks(draw):
    """Rows of 1-3 players walking in small steps, on and off the pitch,
    with tracking gaps, labels absent from some rows and period changes."""
    n = draw(st.integers(1, 80))
    labels = draw(st.lists(st.sampled_from(["AwayPlayer9", "HomePlayer1", "HomePlayer2"]),
                           min_size=1, max_size=3, unique=True))
    step = st.floats(-0.06, 0.06, allow_nan=False)
    tracks = {}
    for label in labels:
        x, y = draw(st.floats(-0.2, 1.2)), draw(st.floats(-0.2, 1.2))
        points = []
        for _ in range(n):
            x, y = x + draw(step), y + draw(step)
            points.append(None if draw(st.integers(0, 9)) == 0 else Point(x, y))
        tracks[label] = points
    period, frame, rows = 1, 0, []
    for i in range(n):
        if draw(st.integers(0, 29)) == 0:
            period += draw(st.sampled_from([-1, 1])) if period > 1 else 1
        frame += draw(st.integers(1, 3))
        positions = {label: points[i] for label, points in tracks.items()
                     if points[i] is not None or draw(st.booleans())}
        rows.append(TrackingFrame(period, frame, frame / 25.0, positions, None))
    return rows


@settings(max_examples=300, deadline=None)
@given(multi_player_walks(), st.sampled_from([0.0, 0.5, 1.0]))
def test_movement_equals_row_reference_on_walks(rows, min_dwell_s):
    got = detect_movement_events(tracking_of(rows), SPEC, min_dwell_s)
    assert got == reference_movement_events(rows, SPEC, min_dwell_s)


@pytest.mark.parametrize("min_dwell_s", [0.0, 0.5, 1.0])
def test_movement_equals_row_reference_on_synthetic_match(bundle, min_dwell_s):
    tracking, _ = normalize_direction(bundle.frames, [])
    for t in (bundle.frames, tracking):
        got = detect_movement_events(t, SPEC, min_dwell_s)
        assert got and got == reference_movement_events(list(t), SPEC, min_dwell_s)


def test_movement_chains_are_continuous_and_distance_bounded(bundle):
    events = detect_movement_events(bundle.frames, SPEC)
    per_player: dict = {}
    for e in events:
        per_player.setdefault(e.players[0], []).append(e)
    assert per_player, "synthetic match players must move between cells"
    for label, chain in per_player.items():
        for a, b in zip(chain, chain[1:]):
            if a.period == b.period:
                assert a.attrs["to_cell"] == b.attrs["from_cell"]
        total = sum(e.attrs["distance_m"] for e in chain)
        walked = 0.0
        by_period: dict = {}
        for f in bundle.frames:
            by_period.setdefault(f.period, []).append(f.positions.get(label))
        for pts in by_period.values():
            walked += path_length(pts, SPEC)
        assert total <= walked + 1e-9


def test_merge_orders_and_numbers_events():
    game = decompose_events(
        [raw(etype="PASS", start=1.0, end=1.0, to_player="Player2",
             start_pos=Point(0.5, 0.5), end_pos=Point(0.6, 0.5))], SPEC)
    movement = detect_movement_events(
        frames_from_walk([Point(0.1, 0.5), Point(0.2, 0.5)],
                         start_frame=25), SPEC)
    assert movement[0].time_s == 1.04
    moved_first = detect_movement_events(
        frames_from_walk([Point(0.1, 0.5), Point(0.2, 0.5)],
                         start_frame=24), SPEC)
    assert moved_first[0].time_s == 1.0

    merged = enrich(game, moved_first, [])
    # tie at t=1.0: ball events precede position-based ones
    assert [e.activity for e in merged] == [
        "Pass", "Pass received", MOVEMENT_ACTIVITY,
    ]
    wired = events_to_ocel(merged, "m1", EPOCH_BASE, IdentityScope.GLOBAL,
                           first=0, total=len(merged))
    log = concat_logs(build_objects([("m1", {"Home": ("HomePlayer1", "HomePlayer2")})],
                                    {}, SPEC), [wired])
    assert [e.etype for e in log.events] == [e.activity for e in merged]
    assert [e.eid for e in log.events] == ["e000001", "e000002", "e000003"]


def test_merge_tie_breaks_by_player_label():
    walk_a = frames_from_walk([Point(0.1, 0.5), Point(0.2, 0.5)], label="AwayPlayer9")
    walk_b = frames_from_walk([Point(0.1, 0.5), Point(0.2, 0.5)], label="HomePlayer2")
    merged = enrich([], detect_movement_events(walk_a, SPEC)
                    + detect_movement_events(walk_b, SPEC), [])
    assert [e.players[0] for e in merged] == ["AwayPlayer9", "HomePlayer2"]


def test_enrich_scores_count_goals_strictly_before():
    records = [
        raw(etype="SET PIECE", subtype="KICK OFF", start=0.0, end=0.0),
        raw(etype="SHOT", subtype="ON TARGET-GOAL", start=2.0, end=3.0,
            start_pos=Point(0.8, 0.5), end_pos=Point(1.0, 0.5)),
        raw(team="Away", etype="SET PIECE", subtype="KICK OFF", start=5.0, end=5.0,
            from_player="Player21"),
    ]
    spans = segment_possessions(records)
    enriched = enrich(decompose_events(records, SPEC), [], spans)
    by_activity = {e.activity: e for e in enriched if e.team == "Home"}
    assert by_activity["Set piece"].attrs["score_home"] == 0
    assert by_activity["Shot"].attrs["score_home"] == 0
    assert by_activity["Goal"].attrs["score_home"] == 0      # pre-goal score
    kickoff_after = [e for e in enriched if e.team == "Away"][0]
    assert kickoff_after.attrs["score_home"] == 1
    assert kickoff_after.attrs["score_away"] == 0


def test_enrich_attaches_possessions_and_movement_teams():
    records = [
        raw(etype="SET PIECE", subtype="KICK OFF", start=0.0, end=0.0),
        raw(etype="PASS", start=1.0, end=2.0, to_player="Player2"),
    ]
    spans = segment_possessions(records)
    movement = detect_movement_events(
        frames_from_walk([Point(0.1, 0.5), Point(0.2, 0.5)], start_frame=25,
                         label="AwayPlayer9"), SPEC)
    enriched = enrich(decompose_events(records, SPEC), movement, spans)
    for e in enriched:
        assert e.attrs["possession_id"] == spans[0].span_id
    mover = [e for e in enriched if e.activity == MOVEMENT_ACTIVITY][0]
    assert mover.team == "Away"
