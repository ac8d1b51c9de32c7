"""Readers for the provider's raw match files.

A match arrives as three CSVs: one tracking file per side plus one shared
event file.  Tracking files carry a 3-line header (team name row, jersey
row, column-title row) followed by frames at SAMPLE_RATE_HZ (25 Hz); every
player contributes an x/y column pair and the final pair is the ball.  Event
rows are discrete on-ball/game actions with start/end frames, times and
positions.

Player identity: tracking column titles and event From/To fields use bare
tokens like "Player9" that are only unique within a side, so every label is
qualified with its side ("HomePlayer9") as soon as it leaves the raw record.

load_match parses a match's two tracking files at once: the away file in
a child made with os.fork, the home file in the caller.  A child that
fails in any way only makes the caller parse the away file itself, and a
process without os.fork, whose fork fails or that runs more than one
thread parses it in process, so the errors are always those of the
sequential parse.
"""

from __future__ import annotations

import csv
import marshal
import math
import os
from array import array
from dataclasses import dataclass, replace
from itertools import chain, groupby, islice, repeat
from operator import lt, sub, truediv
from struct import pack
from typing import BinaryIO, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ConsistencyError, ParseError, shown
from .spatial import Point

SIDES = ("Home", "Away")

# tracking frames per second; time = frame / SAMPLE_RATE_HZ in every row
SAMPLE_RATE_HZ = 25.0

TRACKING_TITLE_PREFIX = ("Period", "Frame", "Time [s]")

EVENTS_HEADER = [
    "Team", "Type", "Subtype", "Period",
    "Start Frame", "Start Time [s]", "End Frame", "End Time [s]",
    "From", "To", "Start X", "Start Y", "End X", "End Y",
]

# agreement tolerance for values that two files must both report
FLOAT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TrackingFrame:
    """One tracking snapshot of the players: qualified label -> position (None = not tracked)."""

    period: int
    frame: int
    time_s: float
    positions: Mapping[str, Optional[Point]]


@dataclass(eq=False)
class Tracking:
    """Player tracking as columns, one entry per frame in every array.

    period, frame and time_s are shared by all players.  Each player label
    maps to its (x, y) float columns; NaN in both columns of a pair means
    "not tracked" (a pair is never half-present).  The ball is not held:
    no output reads its track, so the files' ball columns are only checked.
    Indexing and iteration yield TrackingFrame rows built on demand.
    """

    period: array
    frame: array
    time_s: array
    players: dict[str, tuple[array, array]]

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, i: int) -> TrackingFrame:
        return TrackingFrame(self.period[i], self.frame[i], self.time_s[i], {
            label: None if x[i] != x[i] else Point(x[i], y[i])
            for label, (x, y) in self.players.items()
        })

    def __iter__(self) -> Iterator[TrackingFrame]:
        return map(self.__getitem__, range(len(self)))


# one side's players, and its ball's (x, y) columns for merge_tracking to check
SideTracking = tuple[Tracking, tuple[array, array]]


@dataclass(frozen=True)
class RawEventRecord:
    """One provider event row, values preserved verbatim (players unqualified)."""

    team: str
    event_type: str
    subtype: Optional[str]
    period: int
    start_frame: int
    start_time_s: float
    end_frame: int
    end_time_s: float
    from_player: Optional[str]
    to_player: Optional[str]
    start_pos: Optional[Point]
    end_pos: Optional[Point]


@dataclass
class MatchBundle:
    """Everything read from one match's three files, merged; the match id
    travels apart, in pipeline.MatchPaths."""

    frames: Tracking
    events: list[RawEventRecord]
    rosters: dict[str, tuple[str, ...]]


def qualify_player(side: str, token: str) -> str:
    """Side-qualified player label, e.g. ("Home", "Player9") -> "HomePlayer9"."""
    return f"{side}{token}"


def _opt_float(token: str, what: str) -> Optional[float]:
    """Parse an optional numeric field: blank or NaN mean absent."""
    token = token.strip()
    if not token:
        return None
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"non-numeric {what} {shown(token)}") from None
    if math.isnan(value):
        return None
    if math.isinf(value):
        raise ParseError(f"non-finite {what} {shown(token)}")
    return value


def _req_int(token: str, what: str) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise ParseError(f"non-numeric {what} {shown(token)}") from None


def _req_float(token: str, what: str) -> float:
    value = _opt_float(token, what)
    if value is None:
        raise ParseError(f"missing {what}")
    return value


def _opt_pair(xs: str, ys: str, what: str) -> Optional[Point]:
    x = _opt_float(xs, f"{what} x")
    y = _opt_float(ys, f"{what} y")
    if (x is None) != (y is None):
        raise ParseError(f"half-present coordinate pair for {what}")
    if x is None:
        return None
    return Point(x, y)


def parse_tracking(lines: Iterable[str], side: str, source: str = "<tracking>") -> SideTracking:
    """Parse one side's tracking file into a columnar fragment and its ball columns.

    The fragment holds this side's players (labels already qualified); the
    ball's columns (NaN = absent) are for merge_tracking to check.  The
    header is validated structurally and every data row is checked for
    field count, numeric sanity, strictly increasing frame numbers and
    time = frame / SAMPLE_RATE_HZ.  Errors, the csv module's own too, name
    source and the line of the row at fault (the reader's line for the
    header and for the csv module's errors).

    The header is read with csv.reader and the data rows CHUNK_ROWS at a
    time, each chunk as one flat list of its fields (_data_chunks).  Every
    field is read as a float in one pass and each check runs over the
    whole chunk (_bulk_rows).  A chunk that fails a bulk check is checked
    again row by row, so an error names its own row's line, and an earlier
    faulty row beats the row of another width or the csv error that cut its
    chunk short.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {shown(side)}")
    lines = iter(lines)  # the header's reader and the data chunks pull from one iterator
    reader = csv.reader(lines)
    try:
        return _tracking_rows(lines, reader, side)
    except _RowFault as fault:
        message, line = fault.args
        raise ParseError(message, source=source, line=line) from None
    except (ParseError, csv.Error) as exc:  # an empty file has read no line: its header is line 1
        raise ParseError(str(exc), source=source, line=reader.line_num or 1) from None


class _RowFault(Exception):
    """A data row's fault, raised as _RowFault(message, line the row ended on)."""


# data rows read and checked at a time; a chunk that fails a bulk check is
# checked again row by row
CHUNK_ROWS = 128

# the columns of one chunk: periods, frames, and every field of each row as
# a float, row-major (the times and coordinates are sliced from it)
_Chunk = tuple[array, array, array]

# one chunk of data rows: their fields row-major, the line each row ends on,
# and the (message, line) of a fault that cut the chunk short, or None
_RowChunk = tuple[list[str], Sequence[int], Optional[tuple[str, int]]]


def _tracking_rows(lines: Iterator[str], reader, side: str) -> SideTracking:
    header = list(islice(reader, 3))
    if len(header) < 3:
        raise ParseError("truncated header: expected 3 header lines")
    titles = [t.strip() for t in header[2]]
    if tuple(titles[:3]) != TRACKING_TITLE_PREFIX:
        raise ParseError(f"column-title row must start with {','.join(TRACKING_TITLE_PREFIX)}")
    if (len(titles) - 3) % 2 != 0:
        raise ParseError("odd coordinate column count")
    n_pairs = (len(titles) - 3) // 2
    if n_pairs < 1:
        raise ParseError("no coordinate columns (not even a ball pair)")
    pair_tokens = [titles[3 + 2 * k] for k in range(n_pairs)]
    if pair_tokens[-1].lower() != "ball":
        raise ParseError(f"last coordinate pair must be titled Ball, got {shown(pair_tokens[-1])}")
    for k, token in enumerate(pair_tokens[:-1]):
        if not token:
            raise ParseError("unnamed player coordinate pair")
        if token in pair_tokens[:k]:
            raise ParseError(f"repeated player column {shown(token)}")
    labels = [qualify_player(side, token) for token in pair_tokens[:-1]]

    width = len(titles)
    periods, frames, times = array("q"), array("q"), array("d")
    columns = [array("d") for _ in range(width - 3)]  # x, y of each player, then of the ball
    prev_frame = -math.inf  # below every frame: none read yet
    for flat, ends, fault in _data_chunks(lines, reader.line_num, width):
        chunk_periods, chunk_frames, values = (
            _bulk_rows(flat, width, prev_frame)
            or _checked_rows(flat, ends, width, labels, prev_frame))
        periods += chunk_periods
        frames += chunk_frames
        times += values[2::width]
        for k, column in enumerate(columns, 3):
            column += values[k::width]
        if chunk_frames:
            prev_frame = chunk_frames[-1]
        if fault is not None:
            raise _RowFault(*fault)
    players = {label: (columns[2 * k], columns[2 * k + 1]) for k, label in enumerate(labels)}
    return Tracking(periods, frames, times, players), (columns[-2], columns[-1])


def _data_chunks(lines: Iterator[str], base: int, width: int) -> Iterator[_RowChunk]:
    """The data rows after the header's base lines, CHUNK_ROWS at a time.

    Each comes as its fields row-major, width to a row, with the line each
    row ends on and, when a fault cut it short, that fault's (message,
    line); such a chunk is the last.

    A clean chunk is split with str.split, which gives the csv module's
    fields: its lines hold no double quote, carriage return or NUL, each
    ends in one newline and holds width - 1 commas, and none is longer than
    csv.field_size_limit().  The first other chunk hands itself and the
    rest of the file to csv.reader (a quoted field may span lines), which
    skips blank lines and cuts a chunk at a csv error or a row of another width.
    """
    limit = csv.field_size_limit()
    while True:
        chunk = list(islice(lines, CHUNK_ROWS))
        if not chunk:
            return
        text = "".join(chunk)
        # what str.split would read otherwise than the csv module: quotes, line
        # ends, NUL (which Python 3.10's refuses), a newline before a line's
        # end and over-long fields; and any blank line or row of another width
        if ('"' in text or "\r" in text or "\0" in text
                or not all(map(str.endswith, chunk, repeat("\n")))
                or text.count("\n") != len(chunk)
                or len(text) > limit and max(map(len, chunk)) > limit
                or not all(map((width - 1).__eq__, map(str.count, chunk, repeat(","))))):
            break
        yield text[:-1].replace("\n", ",").split(","), range(base + 1, base + 1 + len(chunk)), None
        base += len(chunk)
        if len(chunk) < CHUNK_ROWS:
            return
    reader = csv.reader(chain(chunk, lines))
    while True:
        flat: list[str] = []
        ends: list[int] = []
        fault = None
        try:
            for row in reader:
                if len(row) == width:
                    flat += row
                    ends.append(base + reader.line_num)
                    if len(ends) == CHUNK_ROWS:
                        break
                elif row and (len(row) > 1 or row[0].strip()):  # not a blank line
                    fault = (f"expected {width} fields, got {len(row)}", base + reader.line_num)
                    break
        except csv.Error as exc:  # raised once the rows read before it have passed
            fault = (str(exc), base + reader.line_num)
        yield flat, ends, fault
        if len(ends) < CHUNK_ROWS:  # the file's end, or a fault
            return


def _bulk_rows(flat: list[str], width: int, prev_frame) -> Optional[_Chunk]:
    """The chunk's columns if every row would pass _checked_rows, else None.

    flat holds the rows' fields row-major, width to a row.  One pass reads
    each field as a float, blank and NaN tokens as NaN; each check then runs
    over the whole chunk at once and accepts exactly what the row checks
    accept, with the same values.  A coordinate pair whose two sums over
    the chunk add up to a finite number holds no NaN and no infinity (one
    leaves sum() non-finite, the compensated sum of Python 3.12 and later
    too), so only a pair with an absent sample, or whose sum overflows, is
    scanned for infinities and half-present samples.
    """
    try:
        values = [float(token or "nan") for token in flat]
        periods = array("q", map(int, flat[0::width]))
        frames = array("q", map(int, flat[1::width]))
    except (ValueError, OverflowError):  # not a number, or beyond a 64-bit frame column
        return None
    if not (all(map((1).__le__, periods))
            and all(map(lt, chain((prev_frame,), frames), frames))
            # >= is False for a NaN time, which the row checks call missing
            and all(map(FLOAT_TOLERANCE.__ge__, map(abs, map(
                sub, values[2::width], map(truediv, frames, repeat(SAMPLE_RATE_HZ))))))):
        return None
    for k in range(3, width, 2):
        x, y = values[k::width], values[k + 1::width]
        if not math.isfinite(sum(x) + sum(y)) and (
                math.inf in x or -math.inf in x or math.inf in y or -math.inf in y
                or bytes(map(math.isnan, x)) != bytes(map(math.isnan, y))):  # half-present
            return None
    # packed first: the array constructor converts a list item by item, at twice the cost
    return periods, frames, array("d", pack(f"{len(values)}d", *values))


def _checked_rows(flat: list[str], lines: Sequence[int], width: int,
                  labels: list[str], prev_frame) -> _Chunk:
    """The chunk's columns, each row of flat (width fields to a row) checked
    in turn; the first fault raises a _RowFault with the row's line."""
    periods, frames, values = array("q"), array("q"), array("d")
    rate = SAMPLE_RATE_HZ
    for row, line in zip(zip(*[iter(flat)] * width), lines):
        try:
            period = _req_int(row[0], "period")
            if period < 1:
                raise ParseError(f"period must be >= 1, got {shown(period)}")
            frame = _req_int(row[1], "frame")
            time_s = _req_float(row[2], "time")
            if frame <= prev_frame:
                raise ParseError(
                    f"frame {shown(frame)} not greater than previous frame {prev_frame}")
            prev_frame = frame
            try:
                periods.append(period)
                frames.append(frame)
            except OverflowError:  # beyond 64 bits; frame / rate may not even be a float
                raise ParseError(
                    f"period {shown(period)} or frame {shown(frame)} out of range") from None
            if abs(time_s - frame / rate) > FLOAT_TOLERANCE:
                raise ParseError(f"time {time_s} inconsistent with frame {frame} at {rate} Hz")
            values.extend((period, frame, time_s))
            for k, what in enumerate([*labels, "ball"]):
                p = _opt_pair(row[3 + 2 * k], row[4 + 2 * k], what)
                values.extend((math.nan, math.nan) if p is None else p)
        except ParseError as exc:
            raise _RowFault(str(exc), line) from None
    return periods, frames, values


def _check_alignment(home_side: SideTracking, away_side: SideTracking) -> None:
    """Raise on the first frame where the two sides' fragments or balls disagree."""
    (home, (hx, hy)), (away, (ax, ay)) = home_side, away_side
    for i in range(max(len(home), len(away))):
        if i >= len(home):
            raise ConsistencyError(f"frame {away.frame[i]} missing from home tracking")
        if i >= len(away):
            raise ConsistencyError(f"frame {home.frame[i]} missing from away tracking")
        frame = home.frame[i]
        if frame != away.frame[i]:
            raise ConsistencyError(f"frame mismatch: home has {frame}, away has {away.frame[i]}")
        if home.period[i] != away.period[i]:
            raise ConsistencyError(f"period mismatch at frame {frame}")
        if abs(home.time_s[i] - away.time_s[i]) > FLOAT_TOLERANCE:
            raise ConsistencyError(f"time mismatch at frame {frame}")
        if (hx[i] == hx[i] and ax[i] == ax[i]
                and (abs(hx[i] - ax[i]) > FLOAT_TOLERANCE or abs(hy[i] - ay[i]) > FLOAT_TOLERANCE)):
            raise ConsistencyError(f"ball position disagreement at frame {frame}")


def _balls_agree(home: array, away: array) -> bool:
    """Whether no frame's ball coordinates differ by more than FLOAT_TOLERANCE.
    A NaN fails the comparison, so a ball absent from one file never disagrees."""
    return not any(map(FLOAT_TOLERANCE.__lt__, map(abs, map(sub, home, away))))


def _same_bits(a: array, b: array) -> bool:
    """Whether two float columns hold the same bit patterns, so NaN equals NaN.
    They are compared in place as 64-bit words, which copies nothing."""
    return memoryview(a).cast("B").cast("Q") == memoryview(b).cast("B").cast("Q")


def merge_tracking(home_side: SideTracking, away_side: SideTracking) -> Tracking:
    """Join the two sides' fragments into one Tracking of every player.

    Both files must describe exactly the same frame sequence; the first
    diverging frame is reported.  A ball may be absent from either file and
    must agree where both report one; it is checked, then dropped.  The
    merged value shares the home fragment's frame columns.  A player label
    in both fragments is refused whatever their frame count.
    """
    (home, (hx, hy)), (away, (ax, ay)) = home_side, away_side
    overlap = home.players.keys() & away.players.keys()
    if overlap:
        raise ConsistencyError(f"duplicate player labels across sides: {sorted(overlap)}")
    if not (home.frame == away.frame and home.period == away.period
            and _same_bits(home.time_s, away.time_s)
            and (_same_bits(hx, ax) and _same_bits(hy, ay)
                 or _balls_agree(hx, ax) and _balls_agree(hy, ay))):
        _check_alignment(home_side, away_side)
    return Tracking(home.period, home.frame, home.time_s, {**home.players, **away.players})


def parse_events(lines: Iterable[str], source: str = "<events>") -> list[RawEventRecord]:
    """Parse the shared event file.

    The 14-column header is matched exactly.  Rows come back stably sorted
    by start time (file order preserved among ties); values are kept
    verbatim, so writing the records back in the provider layout
    reproduces every field.  Errors, the csv module's own too, name source
    and the reader's line.
    """
    reader = csv.reader(lines)
    try:
        records = _event_rows(reader)
    except (ParseError, csv.Error) as exc:  # an empty file has read no line: its header is line 1
        raise ParseError(str(exc), source=source, line=reader.line_num or 1) from None
    records.sort(key=lambda r: r.start_time_s)  # stable: file order breaks ties
    return records


def _event_rows(reader) -> list[RawEventRecord]:
    header = next(reader, None)
    if header is None:
        raise ParseError("empty file: missing header")
    if [h.strip() for h in header] != EVENTS_HEADER:
        raise ParseError(f"unexpected header: expected {','.join(EVENTS_HEADER)}")
    records: list[RawEventRecord] = []
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(EVENTS_HEADER):
            raise ParseError(f"expected {len(EVENTS_HEADER)} fields, got {len(row)}")
        team = row[0].strip()
        if team not in SIDES:
            raise ParseError(f"unknown team {shown(team)}")
        event_type = row[1].strip()
        if not event_type:
            raise ParseError("missing event type")
        subtype = row[2].strip() or None
        period = _req_int(row[3], "period")
        if period < 1:
            raise ParseError(f"period must be >= 1, got {shown(period)}")
        start_frame = _req_int(row[4], "start frame")
        start_time = _req_float(row[5], "start time")
        end_frame = _req_int(row[6], "end frame")
        end_time = _req_float(row[7], "end time")
        if end_time < start_time:
            raise ParseError(f"end time {end_time} before start time {start_time}")
        from_player = row[8].strip() or None
        to_player = row[9].strip() or None
        start_pos = _opt_pair(row[10], row[11], "start position")
        end_pos = _opt_pair(row[12], row[13], "end position")
        records.append(RawEventRecord(
            team, event_type, subtype, period,
            start_frame, start_time, end_frame, end_time,
            from_player, to_player, start_pos, end_pos,
        ))
    return records


def _read_csv(path, parse, *args):
    """parse(fh, *args, source=path) over the UTF-8 text of a CSV file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return parse(fh, *args, source=str(path))
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})", source=str(path),
        ) from None


def _fork_away(path) -> Optional[tuple[int, BinaryIO]]:
    """Start a child that parses the away tracking file at path: its pid and
    the read end of the pipe it writes to, or None where this process has
    no os.fork, its fork fails, or it runs more than one thread (forking
    it may deadlock).

    The child writes a marshal header, (labels, frame count), then the raw
    bytes of the period, frame and time columns, of each player's x and y
    and of the ball's x and y; a child that fails stops writing, and what
    it wrote is short.  It leaves through os._exit, never returning into
    the caller's stack or flushing its stdio.
    """
    import threading  # here, not at module level: importing footocel costs what it did
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller parses the file itself
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    try:
        os.close(r)
        with open(w, "wb") as pipe:
            tracking, ball = _read_csv(path, parse_tracking, "Away")
            pipe.write(marshal.dumps((list(tracking.players), len(tracking))))
            pipe.writelines([tracking.period, tracking.frame, tracking.time_s,
                             *chain.from_iterable(tracking.players.values()), *ball])
    finally:  # raised or not, the child ends here
        os._exit(0)


def _received(pipe: BinaryIO) -> Optional[SideTracking]:
    """The away side a _fork_away child wrote down pipe, read straight into
    columns of the right length; None if it failed, died or wrote short."""
    try:
        labels, n = marshal.load(pipe)
    except (EOFError, ValueError):  # the child wrote no whole header
        return None
    period, frame, time_s, *coordinates = columns = [
        array("q", [0]) * n, array("q", [0]) * n,
        *(array("d", [0.0]) * n for _ in range(2 * len(labels) + 3))]
    for column in columns:
        if pipe.readinto(memoryview(column).cast("B")) != 8 * n:
            return None
    players = {label: (coordinates[2 * k], coordinates[2 * k + 1])
               for k, label in enumerate(labels)}
    return Tracking(period, frame, time_s, players), (coordinates[-2], coordinates[-1])


def load_match(home_tracking_path, away_tracking_path, events_path) -> MatchBundle:
    """Load and merge one match's three files, given by path.

    The two tracking files are parsed at once: a forked child parses the
    away file (_fork_away) while this process parses the home file, then
    reads the child's columns.  If the child fails in any way, this process
    parses the away file itself, which raises what the child met; where
    there is no os.fork, a fork fails or more than one thread runs, it
    parses the away file after the home file.  Either way the errors and
    their precedence are those of parsing home, then away, then aligning
    them, then the event file.  A home fault kills the child; every path
    reaps it.

    Rosters start from the tracking column titles and are extended by any
    player label an event references (tolerates event-only data slices).
    """
    child = _fork_away(away_tracking_path)
    try:
        home = _read_csv(home_tracking_path, parse_tracking, "Home")
        away = (child and _received(child[1])
                or _read_csv(away_tracking_path, parse_tracking, "Away"))
    except BaseException:
        if child:
            import signal
            os.kill(child[0], signal.SIGKILL)
        raise
    finally:
        if child:
            child[1].close()
            os.waitpid(child[0], 0)
    frames = merge_tracking(home, away)
    events = _read_csv(events_path, parse_events)

    rosters: dict[str, set[str]] = {
        side: set(fragment.players if len(fragment) else ())
        for side, (fragment, _) in zip(SIDES, (home, away))
    }
    for record in events:
        for token in (record.from_player, record.to_player):
            if token is not None:
                rosters[record.team].add(qualify_player(record.team, token))
    return MatchBundle(
        frames=frames,
        events=events,
        rosters={side: tuple(sorted(labels)) for side, labels in rosters.items()},
    )


def period_runs(tracking: Tracking) -> list[tuple[int, int, int]]:
    """(period, start, stop) of each run of consecutive frames of one period."""
    runs = []
    start = 0
    for period, group in groupby(tracking.period):
        stop = start + sum(1 for _ in group)
        runs.append((period, start, stop))
        start = stop
    return runs


def normalize_direction(
    tracking: Tracking, events: list[RawEventRecord]
) -> tuple[Tracking, list[RawEventRecord]]:
    """Flip every position (x,y) -> (1-x, 1-y) of period 2 and every later period.

    Sides swap ends at half time while raw coordinates stay absolute; the
    flip applies to every player and every event position at once so each
    team attacks a constant direction and relative geometry is preserved.
    Player columns come back as copies with the slices of period 2 and
    every later period flipped; frame columns are shared.
    """
    runs = [(start, stop) for period, start, stop in period_runs(tracking) if period >= 2]

    def flip_column(column: array) -> array:
        out = array("d", column)
        for start, stop in runs:
            out[start:stop] = array("d", [1.0 - v for v in column[start:stop]])
        return out

    def flip(p: Optional[Point]) -> Optional[Point]:
        return None if p is None else Point(1.0 - p.x, 1.0 - p.y)

    out_tracking = Tracking(
        tracking.period, tracking.frame, tracking.time_s,
        {label: (flip_column(x), flip_column(y)) for label, (x, y) in tracking.players.items()},
    )
    out_events = [
        e if e.period < 2 else replace(e, start_pos=flip(e.start_pos), end_pos=flip(e.end_pos))
        for e in events
    ]
    return out_tracking, out_events
