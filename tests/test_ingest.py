"""Raw CSV readers: tracking headers, event rows, merging and round-trips."""

import csv
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

import footocel.ingest as ingest_module
from footocel.errors import ConsistencyError, ParseError
from footocel.ingest import (
    CHUNK_ROWS,
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
from footocel.synth import write_synth_match


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
    frames, (ball_x, ball_y) = parse_tracking(tracking_lines(rows=GOOD_ROWS), "Home")
    assert [f.frame for f in frames] == [1, 2, 3]
    assert [f.period for f in frames] == [1, 1, 2]
    assert frames[0].positions == {
        "HomePlayer1": Point(0.45, 0.5),
        "HomePlayer2": Point(0.6, 0.55),
    }
    assert frames[1].positions["HomePlayer2"] is None  # blank pair = untracked
    assert (ball_x[0], ball_y[0]) == (0.5, 0.5)
    assert math.isnan(ball_x[2]) and math.isnan(ball_y[2])
    # columnar layout: NaN in both columns marks the untracked sample
    assert isinstance(frames, Tracking) and len(frames) == 3
    x, y = frames.players["HomePlayer2"]
    assert list(x[:1]) == [0.6] and math.isnan(x[1]) and math.isnan(y[1])


def test_parse_tracking_skips_blank_lines():
    rows = GOOD_ROWS[:1] + [""] + GOOD_ROWS[1:2]
    frames, _ = parse_tracking(tracking_lines(rows=rows), "Home")
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
    (lambda t: t[:2] + ["Period,Frame,Time [s],Player1,,Player1,,Ball,\n"],
     "repeated player column 'Player1'"),
])
def test_parse_tracking_header_errors(mutate, message):
    with pytest.raises(ParseError, match=message):
        parse_tracking(mutate(tracking_lines()), "Home")


@pytest.mark.parametrize("lines, message", [
    (tracking_lines()[:1], "h.csv:1: truncated header: expected 3 header lines"),
    (tracking_lines()[:2], "h.csv:2: truncated header: expected 3 header lines"),
    (tracking_lines()[:2] + ["Period,Frame,Time [s],Player1,,Ball\n"],
     "h.csv:3: odd coordinate column count"),
    ([], "h.csv:1: truncated header: expected 3 header lines"),
    (tracking_lines()[:2] + ["Period,Frame,Time [s],Player1,,Player1,,Ball,\n"],
     "h.csv:3: repeated player column 'Player1'"),
])
def test_parse_tracking_header_errors_are_located(lines, message):
    with pytest.raises(ParseError) as err:
        parse_tracking(lines, "Home", source="h.csv")
    assert str(err.value) == message


def test_oversize_csv_field_is_a_located_parse_error():
    # the csv module's own error, raised while it reads line 4, is located too
    row = "1,1,0.04," + "9" * (csv.field_size_limit() + 1) + ",0.5,0.6,0.5,0.5,0.5"
    with pytest.raises(ParseError) as err:
        parse_tracking(tracking_lines(rows=[row]), "Home", source="h.csv")
    assert str(err.value) == f"h.csv:4: field larger than field limit ({csv.field_size_limit()})"
    with pytest.raises(ParseError) as err:
        parse_events(events_lines(["x" * (csv.field_size_limit() + 1)]), source="e.csv")
    assert str(err.value) == f"e.csv:2: field larger than field limit ({csv.field_size_limit()})"


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
    """Tracking is read at the provider's 25 Hz: a 10 Hz row fails where it stands."""
    rows = ["1,1,0.1,0.4,0.5,0.5,0.5"]
    with pytest.raises(ParseError) as err:
        parse_tracking(tracking_lines(tokens=("P1",), rows=rows), "Home", source="h.csv")
    assert str(err.value) == "h.csv:4: time 0.1 inconsistent with frame 1 at 25.0 Hz"


def reference_parse_tracking(lines, side, sample_rate=25.0, source="<tracking>"):
    """Row-by-row parser building one TrackingFrame per row, as footocel did
    before tracking became columnar, and the ball's x and y lists: the
    oracle parse_tracking must equal, rows, ball and error messages alike."""
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

    def at(line, parse, *args):  # the library's field parsers raise unlocated errors
        try:
            return parse(*args)
        except ParseError as exc:
            raise ParseError(str(exc), source=source, line=line) from None

    frames, ball_x, ball_y = [], [], []
    width = len(titles)
    prev_frame = None
    for row in reader:
        line = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}", source=source, line=line)
        period = at(line, _req_int, row[0], "period")
        if period < 1:
            raise ParseError(f"period must be >= 1, got {period}", source=source, line=line)
        frame = at(line, _req_int, row[1], "frame")
        time_s = at(line, _req_float, row[2], "time")
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
            positions[label] = at(line, _opt_pair, row[3 + 2 * k], row[4 + 2 * k], label)
        ball = at(line, _opt_pair, row[width - 2], row[width - 1], "ball")
        frames.append(TrackingFrame(period, frame, time_s, positions))
        ball_x.append(math.nan if ball is None else ball.x)
        ball_y.append(math.nan if ball is None else ball.y)
    return frames, (ball_x, ball_y)


# huge magnitudes overflow a chunk's sum of a pair while every value is finite
_number = (st.floats(-2, 3, allow_nan=False).map(repr) | st.just(" 0.5 ")
           | st.sampled_from(["1.7e308", "-1.7976931348623157e+308"]))
_absent = st.sampled_from(["", "  ", "nan", "NaN"])
_clean_pair = st.tuples(_number, _number) | st.tuples(_absent, _absent)
_any_token = _number | _absent | st.sampled_from(["inf", "-inf", "1e999", "x"])
_any_pair = st.tuples(_any_token, _any_token) | st.tuples(_number, _absent)
# pairs a whole chunk of can pass the parser's bulk checks: no blank-looking
# token holds spaces
_bulk_pair = st.tuples(_number, _number) | st.tuples(*[st.sampled_from(["", "nan", "NaN"])] * 2)


_row_fault = st.sampled_from(["pair", "spaced", "inf", "blank", "frame", "period", "time"])
_infinite = st.sampled_from(["inf", "-Infinity", "1e999"])


@st.composite
def _tracking_rows(draw):
    """Rows for tracking_lines' two players plus the ball: present and absent
    pairs in every spelling, and in some rows one pair that may be
    half-present, non-finite or not a number.  Some draws run past one or
    two parse chunks: their rows repeat three drawn ones that the bulk
    checks pass, and up to two rows anywhere are blank, spell an absent
    pair with spaces, hold an infinite x beside a finite y or hold a fault
    of the pairs, the frame order, the period or the time."""
    n = draw(st.integers(0, 6) | st.integers(CHUNK_ROWS - 2, 2 * CHUNK_ROWS + 2))
    long = n > 6
    clean = [[draw(_bulk_pair) for _ in range(3)] for _ in range(3 if long else 0)]
    faults = {draw(st.integers(0, n - 1)): draw(_row_fault)
              for _ in range(draw(st.integers(0, 2)) if long else 0)}
    switch = draw(st.integers(1, 3 * n + 3))  # the first frame of period 2
    rows = []
    frame = 0
    for i in range(n):
        fault = faults.get(i)
        if fault == "blank":
            rows.append("")
            continue
        frame += 0 if fault == "frame" else draw(st.integers(1, 3))
        period = 0 if fault == "period" else 1 if frame < switch else 2
        time_s = frame / 25.0 + (0.01 if fault == "time" else 0.0)
        if long:
            pairs = list(clean[i % 3])
            if fault in ("pair", "spaced", "inf"):
                pairs[draw(st.integers(0, 2))] = (
                    draw(_any_pair) if fault == "pair" else ("  ", "") if fault == "spaced"
                    else (draw(_infinite), "0.5"))
        else:
            pairs = [draw(_clean_pair) for _ in range(3)]
            if draw(st.integers(0, 3)) == 0:
                pairs[draw(st.integers(0, 2))] = draw(_any_pair)
        rows.append(",".join([str(period), str(frame), repr(time_s),
                              *(token for pair in pairs for token in pair)]))
    return rows


def _outcome(parse, rows):
    """The rows and ball positions parse reads, or its error message."""
    return _lines_outcome(parse, tracking_lines(rows=rows))


def _lines_outcome(parse, lines):
    try:
        frames, ball = parse(lines, "Home", source="h.csv")
    except ParseError as exc:
        return str(exc)
    return list(frames), [None if x != x else Point(x, y) for x, y in zip(*ball)]


@settings(max_examples=400, deadline=None)
@given(_tracking_rows())
def test_parse_tracking_equals_row_reference(rows):
    assert _outcome(parse_tracking, rows) == _outcome(reference_parse_tracking, rows)


def _good_rows(n, first_frame=1):
    return [f"1,{f},{f / 25.0!r},0.4,0.5,,,0.5,0.5" for f in range(first_frame, first_frame + n)]


def test_a_fault_past_the_first_chunk_names_its_own_line():
    rows = _good_rows(250)
    rows[199] = rows[199].replace(",0.4,", ",bad,")
    with pytest.raises(ParseError) as err:
        parse_tracking(tracking_lines(rows=rows), "Home", source="h.csv")
    assert str(err.value) == "h.csv:203: non-numeric HomePlayer1 x 'bad'"
    assert CHUNK_ROWS < 200 <= 2 * CHUNK_ROWS  # the row lies in the second chunk


def test_a_csv_error_in_a_chunk_loses_to_an_earlier_faulty_row():
    oversize = "1,150,6.0," + "9" * (csv.field_size_limit() + 1) + ",0.5,,,0.5,0.5"
    rows = _good_rows(149) + [oversize] + _good_rows(5, 151)
    with pytest.raises(ParseError) as err:
        parse_tracking(tracking_lines(rows=rows), "Home", source="h.csv")
    assert str(err.value) == f"h.csv:153: field larger than field limit ({csv.field_size_limit()})"
    rows[139] = rows[139].replace("1,140,", "0,140,")
    with pytest.raises(ParseError) as err:
        parse_tracking(tracking_lines(rows=rows), "Home", source="h.csv")
    assert str(err.value) == "h.csv:143: period must be >= 1, got 0"


def _columns(tracking_and_ball):
    tracking, ball = tracking_and_ball
    return ([tracking.period, tracking.frame, tracking.time_s],
            {label: [x.tobytes(), y.tobytes()] for label, (x, y) in tracking.players.items()},
            [column.tobytes() for column in ball])


def test_blank_lines_and_crlf_across_chunks_give_the_same_columns():
    rows = [f"{1 + f // 200},{f},{f / 25.0!r},{f / 400},0.5,,,0.5,{f / 400}"
            for f in range(1, 400)]
    expected = _columns(parse_tracking(tracking_lines(rows=rows), "Home"))
    spaced = list(rows)
    for at in (300, 256, 129, 128, 127, 0):  # around and inside the chunk edges
        spaced.insert(at, "")
    crlf = [line.replace("\n", "\r\n") for line in tracking_lines(rows=spaced)]
    assert _columns(parse_tracking(crlf, "Home")) == expected
    assert _columns(parse_tracking(tracking_lines(rows=spaced), "Home")) == expected


def _quoted(lines):
    """lines written again with every field quoted."""
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(csv.reader(lines))
    return out.getvalue().splitlines(keepends=True)


def test_split_chunks_and_the_hand_over_read_as_the_csv_reader():
    rows = [f"{1 + f // 200},{f},{f / 25.0!r},{f / 400},0.5,,,0.5,{f / 400}"
            for f in range(1, 400)]
    lines = tracking_lines(rows=rows)
    expected = _columns(parse_tracking(lines, "Home"))
    late = 3 + 300  # row 301, in the third chunk
    quoted_late = list(lines)
    quoted_late[late] = quoted_late[late].replace(",0.5,", ',"0.5",', 1)
    spanning = list(lines)  # a quoted field ends on the line after the one it starts on
    spanning[late] = spanning[late].replace(",0.5,", ',"0.5\n",', 1)
    unended = "".join(lines)[:-1]
    for text in ("".join(_quoted(lines)), "".join(quoted_late), "".join(spanning), unended):
        assert _columns(parse_tracking(io.StringIO(text, newline=""), "Home")) == expected
    # a file read line by line and a list of lines alike
    for same in (_quoted(lines), quoted_late, spanning, lines[:-1] + [lines[-1][:-1]]):
        assert _columns(parse_tracking(same, "Home")) == expected

    # past the quoted field that spans two lines every row ends a line later
    faulty = list(spanning)
    faulty[late + 40] = faulty[late + 40].replace(",0.5,", ",bad,", 1)
    faulty = io.StringIO("".join(faulty), newline="").readlines()
    message = f"h.csv:{late + 42}: non-numeric HomePlayer1 y 'bad'"
    assert _lines_outcome(parse_tracking, faulty) == message
    assert _lines_outcome(reference_parse_tracking, faulty) == message
    # a NUL: the csv module of Python 3.10 refuses it, later ones keep it
    nul = list(lines)
    nul[late] = nul[late].replace(",0.5,", ",0.5\0,", 1)
    with pytest.raises(ParseError) as err:
        parse_tracking(nul, "Home", source="h.csv")
    assert str(err.value) in (f"h.csv:{late + 1}: line contains NUL",
                              f"h.csv:{late + 1}: non-numeric HomePlayer1 y '0.5\\x00'")
    # a carriage return inside a line, and one item holding two lines: the
    # csv module refuses them
    cr = list(lines)
    cr[late] = cr[late].replace(",0.5,", ",0.5\r,", 1)
    joined = lines[:late] + [lines[late] + lines[late + 1]] + lines[late + 2:]
    unterminated = lines[:late] + [lines[late] + lines[late + 1][:-1]] + lines[late + 2:]
    for merged in (cr, joined, unterminated):
        with pytest.raises(ParseError) as err:
            parse_tracking(merged, "Home", source="h.csv")
        assert str(err.value).startswith(f"h.csv:{late + 1}: new-line character seen")


def _row_checks_refused(*args):
    raise AssertionError("a chunk failed the bulk check")


def test_a_generated_match_reads_in_bulk(tmp_path, monkeypatch):
    # the substitute's pair is blank in every row of the first half, and one
    # player's in a dropout; plain, CRLF and quoted copies alike pass the
    # bulk check in every chunk, the short last one too
    home, _, _ = write_synth_match(tmp_path, prefix="m", period_s=20)
    text = home.read_text(encoding="utf-8")
    assert (text.count("\n") - 3) % CHUNK_ROWS != 0
    lines = io.StringIO(text, newline="").readlines()
    parsed = parse_tracking(lines, "Home")
    assert any(map(math.isnan, parsed[0].players["HomePlayer5"][0]))
    expected = _columns(parsed)
    monkeypatch.setattr(ingest_module, "_checked_rows", _row_checks_refused)
    crlf = [line.replace("\n", "\r\n") for line in lines]
    for same in (lines, crlf, _quoted(lines)):
        assert _columns(parse_tracking(same, "Home")) == expected


@pytest.mark.parametrize("pair", [
    ("inf", "inf"), ("-Infinity", "1e999"), ("inf", "nan"), ("nan", "-inf"),
    ("0.4", "nan"), ("", "0.5"),
])
def test_a_non_finite_or_half_present_pair_in_a_clean_chunk_names_its_row(pair):
    rows = _good_rows(250)
    rows[149] = rows[149].replace(",0.4,0.5,", f",{pair[0]},{pair[1]},", 1)
    lines = tracking_lines(rows=rows)
    message = _lines_outcome(reference_parse_tracking, lines)
    assert message.startswith("h.csv:153: ")
    assert _lines_outcome(parse_tracking, lines) == message


def test_finite_pairs_whose_chunk_sum_overflows_read_in_bulk(monkeypatch):
    rows = [f"1,{f},{f / 25.0!r},1.7e308,-1.7e308,,,-1.7e308,{f / 400}" for f in range(1, 300)]
    monkeypatch.setattr(ingest_module, "_checked_rows", _row_checks_refused)
    tracking, (ball_x, ball_y) = parse_tracking(tracking_lines(rows=rows), "Home")
    x, y = tracking.players["HomePlayer1"]
    assert list(x) == [1.7e308] * 299 and list(y) == [-1.7e308] * 299
    assert list(ball_x) == [-1.7e308] * 299 and list(ball_y) == [f / 400 for f in range(1, 300)]


def test_absent_pairs_in_every_spelling_read_in_bulk_as_nan(monkeypatch):
    spellings = [("", ""), ("nan", "nan"), ("NaN", "nan"), ("", "NaN"), ("0.3", "0.7")]
    rows = []
    for f in range(1, 300):
        x, y = spellings[f % len(spellings)]
        rows.append(f"1,{f},{f / 25.0!r},{x},{y},{y},{x},0.5,0.5")
    monkeypatch.setattr(ingest_module, "_checked_rows", _row_checks_refused)
    tracking, _ = parse_tracking(tracking_lines(rows=rows), "Home")
    for label in ("HomePlayer1", "HomePlayer2"):
        for f, x, y in zip(range(1, 300), *tracking.players[label]):
            if f % len(spellings) == 4:
                assert {x, y} == {0.3, 0.7}
            else:
                assert math.isnan(x) and math.isnan(y)


def test_chunk_size_does_not_change_what_is_read(monkeypatch):
    rows = [f"{1 + f // 200},{f},{f / 25.0!r},{f / 400},0.5,,,0.5,{f / 400}"
            for f in range(1, 401)]
    for at in (300, 256, 129, 128, 127, 0):  # blank lines around and inside 128's chunk edges
        rows.insert(at, "")
    lines = tracking_lines(rows=rows)
    lines[3 + 380] = lines[3 + 380].replace(",0.5,", ',"0.5",', 1)  # the csv path from here
    assert '"' in lines[3 + 380]
    faulty = {}
    for at in (200, 395):  # one row read by str.split, one by the csv reader
        faulty[at] = list(lines)
        faulty[at][3 + at] = faulty[at][3 + at].replace(",0.5,", ",bad,", 1)
    expected = _columns(parse_tracking(lines, "Home"))
    messages = {at: _lines_outcome(parse_tracking, faulty[at]) for at in faulty}
    assert messages == {200: "h.csv:204: non-numeric HomePlayer1 y 'bad'",
                        395: "h.csv:399: non-numeric HomePlayer1 y 'bad'"}
    for size in (1, 2, 127, 128, 1000):
        monkeypatch.setattr(ingest_module, "CHUNK_ROWS", size)
        assert _columns(parse_tracking(lines, "Home")) == expected
        assert {at: _lines_outcome(parse_tracking, faulty[at]) for at in faulty} == messages


def _side_frames(side, rows, tokens=("Player1",)):
    return parse_tracking(tracking_lines(side=side, tokens=tokens, rows=rows), side)


def test_merge_tracking_combines_sides():
    home = _side_frames("Home", ["1,1,0.04,0.4,0.5,0.5,0.5"])
    away = _side_frames("Away", ["1,1,0.04,0.7,0.6,,"])  # the away file may omit the ball
    merged = merge_tracking(home, away)
    assert merged[0].positions == {
        "HomePlayer1": Point(0.4, 0.5),
        "AwayPlayer1": Point(0.7, 0.6),
    }


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


def test_merge_tracking_checks_the_balls_in_bulk(monkeypatch):
    # a ball absent from one file, or off by less than the tolerance, passes
    # without the per-frame check, and the merged players are the same
    rows = [f"1,{f},{f / 25.0!r},0.4,{f / 400},{f / 400},0.5" for f in range(1, 300)]
    home = _side_frames("Home", rows)
    blanked = [row.rsplit(",", 2)[0] + ",," for row in rows]
    nudged = [row[:-3] + "0.5000001" for row in rows]
    expected = merge_tracking(home, _side_frames("Away", rows))

    def per_frame(*sides):
        raise AssertionError("took the per-frame check")
    monkeypatch.setattr(ingest_module, "_check_alignment", per_frame)
    for away_rows in (blanked, nudged, blanked[:100] + nudged[100:]):
        merged = merge_tracking(home, _side_frames("Away", away_rows))
        assert merged.frame == expected.frame and merged.time_s == expected.time_s
        assert {label: (x.tobytes(), y.tobytes()) for label, (x, y) in merged.players.items()} \
            == {label: (x.tobytes(), y.tobytes()) for label, (x, y) in expected.players.items()}
    monkeypatch.undo()
    # a disagreement still goes to the per-frame check, which names its frame
    for k in (1, 150, 299):
        moved = list(blanked)
        moved[k - 1] = moved[k - 1][:-2] + f",{k / 400},0.6"
        with pytest.raises(ConsistencyError, match=f"^ball position disagreement at frame {k}$"):
            merge_tracking(home, _side_frames("Away", moved))


def test_merge_tracking_rejects_duplicate_labels():
    home = _side_frames("Home", ["1,1,0.04,0.4,0.5,,"])
    clone = _side_frames("Home", ["1,1,0.04,0.6,0.5,,"])
    with pytest.raises(ConsistencyError, match="duplicate player labels"):
        merge_tracking(home, clone)
    # header-only fragments have no frame to compare, yet still collide
    with pytest.raises(ConsistencyError, match=r"duplicate player labels .*'HomePlayer1'"):
        merge_tracking(_side_frames("Home", []), _side_frames("Home", []))


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
    # both are located at line 1, an empty file's missing header too
    with pytest.raises(ParseError) as err:
        parse_events(["Team,Type,Subtype\n", "Home,PASS,\n"], source="e.csv")
    assert str(err.value) == f"e.csv:1: unexpected header: expected {','.join(EVENTS_HEADER)}"
    with pytest.raises(ParseError) as err:
        parse_events([], source="e.csv")
    assert str(err.value) == "e.csv:1: empty file: missing header"


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
    bundle = load_match(home, away, events)
    # Player9 only appears in the event file yet still joins the roster
    assert bundle.rosters["Home"] == ("HomePlayer1", "HomePlayer9")
    assert bundle.rosters["Away"] == ("AwayPlayer21",)


def test_qualify_player():
    assert qualify_player("Home", "Player9") == "HomePlayer9"


def test_normalize_direction_flips_second_period_only():
    frames, _ = parse_tracking(tracking_lines(tokens=("P1",), rows=[
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
    assert out_events[0].start_pos == Point(0.2, 0.3)
    assert out_events[1].start_pos == Point(0.8, 0.7)
    assert out_events[1].end_pos == Point(1.0 - 0.4, 0.5)


def test_normalize_direction_flips_every_period_from_the_second():
    frames, _ = parse_tracking(tracking_lines(tokens=("P1",), rows=[
        "1,1,0.04,0.2,0.3,0.1,0.1",
        "2,2,0.08,0.2,0.3,0.1,0.1",
        "3,3,0.12,0.2,0.3,0.1,0.1",
    ]), "Home")
    events = parse_events(events_lines([
        "Home,PASS,,1,1,0.04,2,0.08,P1,P1,0.2,0.3,0.4,0.5",
        "Home,PASS,,3,3,0.12,4,0.16,P1,P1,0.2,0.3,0.4,0.5",
    ]))
    out_frames, out_events = normalize_direction(frames, events)
    assert out_frames[0].positions["HomeP1"] == Point(0.2, 0.3)
    assert out_frames[1].positions["HomeP1"] == Point(0.8, 0.7)
    assert out_frames[2].positions["HomeP1"] == Point(0.8, 0.7)
    assert out_events[0].start_pos == Point(0.2, 0.3)
    assert out_events[1].start_pos == Point(0.8, 0.7)
