"""Raw CSV readers: tracking headers, event rows, merging and round-trips."""

import csv
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from footocel.errors import ConsistencyError, ParseError
from footocel.ingest import (
    EVENTS_HEADER,
    FLOAT_TOLERANCE,
    SIDES,
    TRACKING_TITLE_PREFIX,
    RawEventRecord,
    Tracking,
    TrackingFrame,
    _opt_pair,
    _req_float,
    _req_int,
    load_match,
    merge_tracking,
    normalize_direction,
    parse_events,
    parse_tracking,
    qualify_player,
)
from footocel.spatial import Point


def tracking_lines(side="Home", tokens=("Player1", "Player2"), rows=()):
    titles = ["Period", "Frame", "Time [s]"]
    for t in tokens:
        titles += [t, ""]
    titles += ["Ball", ""]
    lines = [
        f"{side} roster" + "," * (len(titles) - 1),
        "jerseys" + "," * (len(titles) - 1),
        ",".join(titles),
    ]
    lines.extend(rows)
    return [line + "\n" for line in lines]


GOOD_ROWS = [
    "1,1,0.04,0.45,0.5,0.6,0.55,0.5,0.5",
    "1,2,0.08,0.46,0.51,,,0.51,0.5",
    "2,3,0.12,0.47,0.52,0.62,0.57,,",
]


def test_parse_tracking_happy_path():
    frames = parse_tracking(tracking_lines(rows=GOOD_ROWS), "Home")
    assert [f.frame for f in frames] == [1, 2, 3]
    assert [f.period for f in frames] == [1, 1, 2]
    assert frames[0].positions == {
        "HomePlayer1": Point(0.45, 0.5),
        "HomePlayer2": Point(0.6, 0.55),
    }
    assert frames[1].positions["HomePlayer2"] is None  # blank pair = untracked
    assert frames[0].ball == Point(0.5, 0.5)
    assert frames[2].ball is None
    # columnar layout: NaN in both columns marks the untracked sample
    assert isinstance(frames, Tracking) and len(frames) == 3
    x, y = frames.players["HomePlayer2"]
    assert list(x[:1]) == [0.6] and math.isnan(x[1]) and math.isnan(y[1])


def test_parse_tracking_skips_blank_lines():
    rows = GOOD_ROWS[:1] + [""] + GOOD_ROWS[1:2]
    frames = parse_tracking(tracking_lines(rows=rows), "Home")
    assert len(frames) == 2


def test_parse_tracking_rejects_bad_side():
    with pytest.raises(ValueError):
        parse_tracking(tracking_lines(), "Neutral")


@pytest.mark.parametrize("mutate, message", [
    (lambda t: t[:2], "truncated header"),
    (lambda t: t[:2] + ["Frame,Period,Time [s],Player1,,Ball,\n"], "column-title row"),
    (lambda t: t[:2] + ["Period,Frame,Time [s],Player1,,Ball\n"], "odd coordinate"),
    (lambda t: t[:2] + ["Period,Frame,Time [s]\n"], "no coordinate columns"),
    (lambda t: t[:2] + ["Period,Frame,Time [s],Player1,,Player2,\n"], "titled Ball"),
    (lambda t: t[:2] + ["Period,Frame,Time [s],,,Ball,\n"], "unnamed player"),
])
def test_parse_tracking_header_errors(mutate, message):
    with pytest.raises(ParseError, match=message):
        parse_tracking(mutate(tracking_lines()), "Home")


@pytest.mark.parametrize("row, message", [
    ("1,1,0.04,0.5,0.5", "expected 9 fields"),
    ("0,1,0.04,0.4,0.5,0.6,0.5,0.5,0.5", "period must be"),
    ("1,x,0.04,0.4,0.5,0.6,0.5,0.5,0.5", "non-numeric frame"),
    ("1,1,0.2,0.4,0.5,0.6,0.5,0.5,0.5", "inconsistent with frame"),
    ("1,1,0.04,0.4,,0.6,0.5,0.5,0.5", "half-present coordinate pair"),
    ("1,1,0.04,0.4,0.5,0.6,0.5,inf,0.5", "non-finite"),
    # frame numbers a 64-bit frame column cannot hold, one with a matching
    # time and one too large to divide into a float time
    ("1,9223372036854775808,3.6893488147419104e+17,0.4,0.5,0.6,0.5,0.5,0.5", "out of range"),
    ("1,1" + "0" * 400 + ",0.04,0.4,0.5,0.6,0.5,0.5,0.5", "out of range"),
])
def test_parse_tracking_row_errors(row, message):
    with pytest.raises(ParseError, match=message):
        parse_tracking(tracking_lines(rows=[row]), "Home")


def test_parse_tracking_requires_increasing_frames():
    rows = [GOOD_ROWS[0], GOOD_ROWS[0]]
    with pytest.raises(ParseError, match="not greater than previous"):
        parse_tracking(tracking_lines(rows=rows), "Home")


def test_parse_error_carries_source_and_line():
    with pytest.raises(ParseError) as err:
        parse_tracking(tracking_lines(rows=["1,1,0.04,bad,0.5,0.6,0.5,0.5,0.5"]),
                       "Home", source="home.csv")
    assert str(err.value).startswith("home.csv:4:")


def test_parse_tracking_obeys_sample_rate():
    rows = ["1,1,0.1,0.4,0.5,0.5,0.5"]
    frames = parse_tracking(tracking_lines(tokens=("P1",), rows=rows), "Home", sample_rate=10.0)
    assert frames[0].time_s == pytest.approx(0.1)
    with pytest.raises(ParseError, match="inconsistent"):
        parse_tracking(tracking_lines(tokens=("P1",), rows=rows), "Home", sample_rate=25.0)


def reference_parse_tracking(lines, side, sample_rate=25.0, source="<tracking>"):
    """Row-by-row parser building one TrackingFrame per row, as footocel did
    before tracking became columnar: the oracle parse_tracking must equal,
    rows and error messages alike."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    reader = csv.reader(lines)
    header = []
    for row in reader:
        header.append(row)
        if len(header) == 3:
            break
    if len(header) < 3:
        raise ParseError("truncated header: expected 3 header lines", source=source,
                         line=len(header))
    titles = [t.strip() for t in header[2]]
    if tuple(titles[:3]) != TRACKING_TITLE_PREFIX:
        raise ParseError(
            f"column-title row must start with {','.join(TRACKING_TITLE_PREFIX)}",
            source=source, line=3,
        )
    if (len(titles) - 3) % 2 != 0:
        raise ParseError("odd coordinate column count", source=source, line=3)
    n_pairs = (len(titles) - 3) // 2
    if n_pairs < 1:
        raise ParseError("no coordinate columns (not even a ball pair)", source=source, line=3)
    pair_tokens = [titles[3 + 2 * k] for k in range(n_pairs)]
    if pair_tokens[-1].lower() != "ball":
        raise ParseError(
            f"last coordinate pair must be titled Ball, got {pair_tokens[-1]!r}",
            source=source, line=3,
        )
    for token in pair_tokens[:-1]:
        if not token:
            raise ParseError("unnamed player coordinate pair", source=source, line=3)
    labels = [qualify_player(side, token) for token in pair_tokens[:-1]]

    frames = []
    width = len(titles)
    prev_frame = None
    for row in reader:
        line = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}", source=source, line=line)
        period = _req_int(row[0], source=source, line=line, what="period")
        if period < 1:
            raise ParseError(f"period must be >= 1, got {period}", source=source, line=line)
        frame = _req_int(row[1], source=source, line=line, what="frame")
        time_s = _req_float(row[2], source=source, line=line, what="time")
        if prev_frame is not None and frame <= prev_frame:
            raise ParseError(
                f"frame {frame} not greater than previous frame {prev_frame}",
                source=source, line=line,
            )
        prev_frame = frame
        if abs(time_s - frame / sample_rate) > FLOAT_TOLERANCE:
            raise ParseError(
                f"time {time_s} inconsistent with frame {frame} at {sample_rate} Hz",
                source=source, line=line,
            )
        positions = {}
        for k, label in enumerate(labels):
            positions[label] = _opt_pair(
                row[3 + 2 * k], row[4 + 2 * k], source=source, line=line, what=label,
            )
        ball = _opt_pair(row[width - 2], row[width - 1], source=source, line=line, what="ball")
        frames.append(TrackingFrame(period, frame, time_s, positions, ball))
    return frames


_number = st.floats(-2, 3, allow_nan=False).map(repr) | st.just(" 0.5 ")
_absent = st.sampled_from(["", "  ", "nan", "NaN"])
_clean_pair = st.tuples(_number, _number) | st.tuples(_absent, _absent)
_any_token = _number | _absent | st.sampled_from(["inf", "-inf", "1e999", "x"])
_any_pair = st.tuples(_any_token, _any_token) | st.tuples(_number, _absent)


@st.composite
def _tracking_rows(draw):
    """Rows for tracking_lines' two players plus the ball: present and absent
    pairs in every spelling, and in some rows one pair that may be
    half-present, non-finite or not a number."""
    rows = []
    frame = 0
    for _ in range(draw(st.integers(0, 6))):
        frame += draw(st.integers(1, 3))
        period = 1 if frame < 8 else 2
        pairs = [draw(_clean_pair) for _ in range(3)]
        if draw(st.integers(0, 3)) == 0:
            pairs[draw(st.integers(0, 2))] = draw(_any_pair)
        rows.append(",".join([str(period), str(frame), repr(frame / 25.0),
                              *(token for pair in pairs for token in pair)]))
    return rows


def _outcome(parse, rows):
    try:
        return list(parse(tracking_lines(rows=rows), "Home", source="h.csv"))
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(_tracking_rows())
def test_parse_tracking_equals_row_reference(rows):
    assert _outcome(parse_tracking, rows) == _outcome(reference_parse_tracking, rows)


def _side_frames(side, rows, tokens=("Player1",)):
    return parse_tracking(tracking_lines(side=side, tokens=tokens, rows=rows), side)


def test_merge_tracking_combines_sides():
    home = _side_frames("Home", ["1,1,0.04,0.4,0.5,0.5,0.5"])
    away = _side_frames("Away", ["1,1,0.04,0.7,0.6,,"])
    merged = merge_tracking(home, away)
    assert merged[0].positions == {
        "HomePlayer1": Point(0.4, 0.5),
        "AwayPlayer1": Point(0.7, 0.6),
    }
    assert merged[0].ball == Point(0.5, 0.5)  # away file may omit the ball


def test_merge_tracking_ball_from_away_only():
    home = _side_frames("Home", ["1,1,0.04,0.4,0.5,,"])
    away = _side_frames("Away", ["1,1,0.04,0.7,0.6,0.52,0.5"])
    assert merge_tracking(home, away)[0].ball == Point(0.52, 0.5)


_AGREED = ["1,1,0.04,0.4,0.5,0.5,0.5", "1,2,0.08,0.4,0.5,0.5,0.5"]


@pytest.mark.parametrize("home_rows, away_rows, message", [
    (["1,1,0.04,0.4,0.5,,"], ["1,2,0.08,0.7,0.6,,"], "frame mismatch"),
    (["1,1,0.04,0.4,0.5,,"], ["2,1,0.04,0.7,0.6,,"], "period mismatch"),
    (["1,1,0.04,0.4,0.5,,"], [], "missing from away"),
    ([], ["1,1,0.04,0.7,0.6,,"], "missing from home"),
    (["1,1,0.04,0.4,0.5,0.5,0.5"], ["1,1,0.04,0.7,0.6,0.9,0.5"], "ball position disagreement"),
    (["1,1,0.0399991,0.4,0.5,,"], ["1,1,0.0400009,0.7,0.6,,"], "time mismatch at frame 1$"),
    # divergence after agreed frames: the first diverging frame is named
    (_AGREED + ["1,3,0.12,0.4,0.5,,"], _AGREED + ["1,4,0.16,0.7,0.6,,"],
     "frame mismatch: home has 3, away has 4$"),
    (_AGREED + ["1,3,0.12,0.4,0.5,,"], _AGREED + ["2,3,0.12,0.7,0.6,,"],
     "period mismatch at frame 3$"),
    (_AGREED + ["1,3,0.1199991,0.4,0.5,,"], _AGREED + ["1,3,0.1200009,0.7,0.6,,"],
     "time mismatch at frame 3$"),
    (_AGREED + ["1,3,0.12,0.4,0.5,,"], _AGREED, "frame 3 missing from away"),
    (_AGREED, _AGREED + ["1,3,0.12,0.7,0.6,,"], "frame 3 missing from home"),
    (_AGREED + ["1,3,0.12,0.4,0.5,0.5,0.5"], _AGREED + ["1,3,0.12,0.7,0.6,0.5,0.9"],
     "ball position disagreement at frame 3$"),
    # an earlier ball disagreement wins over a later frame mismatch ...
    (["1,1,0.04,0.4,0.5,0.5,0.5", "1,2,0.08,0.4,0.5,,"],
     ["1,1,0.04,0.4,0.5,0.1,0.5", "1,3,0.12,0.4,0.5,,"],
     "ball position disagreement at frame 1$"),
    # ... and within one frame the frame check comes before the ball check
    (_AGREED[:1] + ["1,2,0.08,0.4,0.5,0.5,0.5"], _AGREED[:1] + ["1,3,0.12,0.4,0.5,0.1,0.5"],
     "frame mismatch: home has 2, away has 3$"),
])
def test_merge_tracking_mismatches(home_rows, away_rows, message):
    with pytest.raises(ConsistencyError, match=message):
        merge_tracking(_side_frames("Home", home_rows), _side_frames("Away", away_rows))


def test_merge_tracking_rejects_duplicate_labels():
    home = _side_frames("Home", ["1,1,0.04,0.4,0.5,,"])
    clone = _side_frames("Home", ["1,1,0.04,0.6,0.5,,"])
    with pytest.raises(ConsistencyError, match="duplicate player labels"):
        merge_tracking(home, clone)


def events_lines(rows):
    return [",".join(EVENTS_HEADER) + "\n"] + [r + "\n" for r in rows]


def test_parse_events_happy_path():
    records = parse_events(events_lines([
        "Home,PASS,,1,10,0.4,20,0.8,Player1,Player2,0.3,0.4,0.5,0.6",
        "Away,SHOT,ON TARGET-GOAL,1,5,0.2,8,0.32,Player21,,0.8,0.5,,",
    ]))
    # rows come back sorted by start time
    assert [r.event_type for r in records] == ["SHOT", "PASS"]
    shot, pss = records
    assert shot.subtype == "ON TARGET-GOAL"
    assert shot.to_player is None and shot.end_pos is None
    assert pss.start_pos == Point(0.3, 0.4) and pss.end_pos == Point(0.5, 0.6)


def test_parse_events_nan_coordinates_mean_absent():
    rec, = parse_events(events_lines([
        "Home,CARRY,,1,10,0.4,20,0.8,Player1,,NaN,NaN,,",
    ]))
    assert rec.start_pos is None


@pytest.mark.parametrize("row, message", [
    ("Home,PASS,,1,10,0.4,20,0.8,P,Q,0.3,0.4,0.5", "expected 14 fields"),
    ("Nobody,PASS,,1,10,0.4,20,0.8,P,Q,0.3,0.4,0.5,0.6", "unknown team"),
    ("Home,,,1,10,0.4,20,0.8,P,Q,0.3,0.4,0.5,0.6", "missing event type"),
    ("Home,PASS,,0,10,0.4,20,0.8,P,Q,0.3,0.4,0.5,0.6", "period must be"),
    ("Home,PASS,,1,10,0.8,20,0.4,P,Q,0.3,0.4,0.5,0.6", "end time .* before start"),
    ("Home,PASS,,1,10,0.4,20,0.8,P,Q,0.3,,0.5,0.6", "half-present"),
])
def test_parse_events_row_errors(row, message):
    with pytest.raises(ParseError, match=message):
        parse_events(events_lines([row]))


def test_parse_events_rejects_foreign_header():
    with pytest.raises(ParseError, match="unexpected header"):
        parse_events(["Team,Type,Subtype\n"])
    with pytest.raises(ParseError, match="missing header"):
        parse_events([])


def _fmt_opt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def events_to_csv(records) -> str:
    """Serialize records back to the provider layout (field-lossless)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EVENTS_HEADER)
    for r in records:
        writer.writerow([
            r.team, r.event_type, _fmt_opt(r.subtype), r.period,
            r.start_frame, _fmt_opt(r.start_time_s), r.end_frame, _fmt_opt(r.end_time_s),
            _fmt_opt(r.from_player), _fmt_opt(r.to_player),
            _fmt_opt(r.start_pos.x if r.start_pos else None),
            _fmt_opt(r.start_pos.y if r.start_pos else None),
            _fmt_opt(r.end_pos.x if r.end_pos else None),
            _fmt_opt(r.end_pos.y if r.end_pos else None),
        ])
    return buf.getvalue()


def test_events_round_trip_hand_rolled():
    rows = [
        "Home,PASS,,1,10,0.4,20,0.8,Player1,Player2,0.3,0.4,0.5,0.6",
        "Away,BALL OUT,,1,30,1.2,35,1.4,Player21,,0.9,0.5,1.02,0.5",
    ]
    records = parse_events(events_lines(rows))
    again = parse_events(io.StringIO(events_to_csv(records)))
    assert again == records


_token = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
    min_size=1, max_size=10,
)
_time = st.floats(0, 1e5, allow_nan=False, allow_infinity=False)
_coord = st.floats(-2, 3, allow_nan=False, allow_infinity=False)
_maybe_point = st.none() | st.builds(Point, _coord, _coord)


@st.composite
def _records(draw):
    start = draw(_time)
    return RawEventRecord(
        team=draw(st.sampled_from(("Home", "Away"))),
        event_type=draw(_token),
        subtype=draw(st.none() | _token),
        period=draw(st.integers(1, 2)),
        start_frame=draw(st.integers(0, 10 ** 6)),
        start_time_s=start,
        end_frame=draw(st.integers(0, 10 ** 6)),
        end_time_s=start + draw(st.floats(0, 100, allow_nan=False)),
        from_player=draw(st.none() | _token),
        to_player=draw(st.none() | _token),
        start_pos=draw(_maybe_point),
        end_pos=draw(_maybe_point),
    )


@given(st.lists(_records(), max_size=12))
def test_events_round_trip_any_records(records):
    records = sorted(records, key=lambda r: r.start_time_s)
    assert parse_events(io.StringIO(events_to_csv(records))) == records


def test_load_match_builds_rosters(tmp_path):
    home = tmp_path / "h.csv"
    away = tmp_path / "a.csv"
    events = tmp_path / "e.csv"
    home.write_text("".join(tracking_lines("Home", ("Player1",), ["1,1,0.04,0.4,0.5,0.5,0.5"])))
    away.write_text("".join(tracking_lines("Away", ("Player21",), ["1,1,0.04,0.7,0.6,,"])))
    events.write_text("".join(events_lines([
        "Home,PASS,,1,1,0.04,2,0.08,Player1,Player9,0.3,0.4,0.5,0.6",
    ])))
    bundle = load_match(home, away, events, match_id="m1")
    # Player9 only appears in the event file yet still joins the roster
    assert bundle.rosters["Home"] == ("HomePlayer1", "HomePlayer9")
    assert bundle.rosters["Away"] == ("AwayPlayer21",)


def test_qualify_player():
    assert qualify_player("Home", "Player9") == "HomePlayer9"


def test_normalize_direction_flips_second_period_only():
    frames = parse_tracking(tracking_lines(tokens=("P1",), rows=[
        "1,1,0.04,0.2,0.3,0.1,0.1",
        "2,2,0.08,0.2,0.3,,",
    ]), "Home")
    events = parse_events(events_lines([
        "Home,PASS,,1,1,0.04,2,0.08,P1,P1,0.2,0.3,0.4,0.5",
        "Home,PASS,,2,3,0.12,4,0.16,P1,P1,0.2,0.3,0.4,0.5",
    ]))
    out_frames, out_events = normalize_direction(frames, events)
    assert out_frames[0].positions["HomeP1"] == Point(0.2, 0.3)
    assert out_frames[1].positions["HomeP1"] == Point(0.8, 0.7)
    assert out_frames[1].ball is None
    assert out_events[0].start_pos == Point(0.2, 0.3)
    assert out_events[1].start_pos == Point(0.8, 0.7)
    assert out_events[1].end_pos == Point(1.0 - 0.4, 0.5)
