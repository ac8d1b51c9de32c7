"""Readers for the provider's raw match files.

A match arrives as three CSVs: one tracking file per side plus one shared
event file.  Tracking files carry a 3-line header (team name row, jersey
row, column-title row) followed by 25 Hz frames; every player contributes
an x/y column pair and the final pair is the ball.  Event rows are discrete
on-ball/game actions with start/end frames, times and positions.

Player identity: tracking column titles and event From/To fields use bare
tokens like "Player9" that are only unique within a side, so every label is
qualified with its side ("HomePlayer9") as soon as it leaves the raw record.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Iterable, Iterator, Mapping, Optional

from .errors import ConsistencyError, ParseError
from .spatial import Point

SIDES = ("Home", "Away")

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
    """One 25 Hz snapshot: qualified player label -> position (None = not tracked)."""

    period: int
    frame: int
    time_s: float
    positions: Mapping[str, Optional[Point]]
    ball: Optional[Point]


def _point(x: float, y: float) -> Optional[Point]:
    return None if x != x else Point(x, y)


@dataclass(eq=False)
class Tracking:
    """Tracking data as columns, one entry per frame in every array.

    period, frame and time_s are shared by all objects.  Each player label
    maps to its (x, y) float columns, and ball holds the ball's; NaN in both
    columns of a pair means "not tracked" (a pair is never half-present).
    Indexing and iteration yield TrackingFrame rows built on demand.
    """

    period: array
    frame: array
    time_s: array
    players: dict[str, tuple[array, array]]
    ball: tuple[array, array]

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, i: int) -> TrackingFrame:
        bx, by = self.ball
        return TrackingFrame(
            self.period[i], self.frame[i], self.time_s[i],
            {label: _point(x[i], y[i]) for label, (x, y) in self.players.items()},
            _point(bx[i], by[i]),
        )

    def __iter__(self) -> Iterator[TrackingFrame]:
        return map(self.__getitem__, range(len(self)))


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
    """Everything known about one match after loading and merging."""

    match_id: str
    frames: Tracking
    events: list[RawEventRecord]
    rosters: dict[str, tuple[str, ...]] = field(default_factory=dict)


def qualify_player(side: str, token: str) -> str:
    """Side-qualified player label, e.g. ("Home", "Player9") -> "HomePlayer9"."""
    return f"{side}{token}"


def _opt_float(token: str, *, source: str, line: int, what: str) -> Optional[float]:
    """Parse an optional numeric field: blank or NaN mean absent."""
    token = token.strip()
    if not token:
        return None
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"non-numeric {what} {token!r}", source=source, line=line) from None
    if math.isnan(value):
        return None
    if math.isinf(value):
        raise ParseError(f"non-finite {what} {token!r}", source=source, line=line)
    return value


def _req_int(token: str, *, source: str, line: int, what: str) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise ParseError(f"non-numeric {what} {token!r}", source=source, line=line) from None


def _req_float(token: str, *, source: str, line: int, what: str) -> float:
    value = _opt_float(token, source=source, line=line, what=what)
    if value is None:
        raise ParseError(f"missing {what}", source=source, line=line)
    return value


def _opt_pair(xs: str, ys: str, *, source: str, line: int, what: str) -> Optional[Point]:
    x = _opt_float(xs, source=source, line=line, what=f"{what} x")
    y = _opt_float(ys, source=source, line=line, what=f"{what} y")
    if (x is None) != (y is None):
        raise ParseError(f"half-present coordinate pair for {what}", source=source, line=line)
    if x is None:
        return None
    return Point(x, y)


def parse_tracking(
    lines: Iterable[str],
    side: str,
    sample_rate: float = 25.0,
    source: str = "<tracking>",
) -> Tracking:
    """Parse one side's tracking file into a columnar fragment.

    Fragments hold only this side's players (labels already qualified) plus
    the ball; merge_tracking joins the two sides.  The header is validated
    structurally and every data row is checked for field count, numeric
    sanity, strictly increasing frame numbers and time = frame / sample_rate.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    reader = csv.reader(lines)
    header = []
    for row in reader:
        header.append(row)
        if len(header) == 3:
            break
    if len(header) < 3:
        raise ParseError("truncated header: expected 3 header lines", source=source, line=len(header))
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

    periods, frames, times = array("q"), array("q"), array("d")
    coords = array("d")  # row-major: x, y of each player, then of the ball
    width = len(titles)
    prev_frame: Optional[int] = None
    for row in reader:
        line = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # stray blank line
        if len(row) != width:
            raise ParseError(
                f"expected {width} fields, got {len(row)}", source=source, line=line,
            )
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
        try:
            periods.append(period)
            frames.append(frame)
        except OverflowError:  # beyond 64 bits; frame / sample_rate may not even be a float
            raise ParseError(
                f"period {period} or frame {frame} out of range", source=source, line=line,
            ) from None
        if abs(time_s - frame / sample_rate) > FLOAT_TOLERANCE:
            raise ParseError(
                f"time {time_s} inconsistent with frame {frame} at {sample_rate} Hz",
                source=source, line=line,
            )
        # blank and NaN tokens both read as NaN; a row that holds any other
        # non-number, an infinity or a half-present pair is converted again
        # pair by pair, which raises the located error for its first bad pair
        try:
            values = [float(token or "nan") for token in row[3:]]
        except ValueError:
            values = None
        if (values is None or math.inf in values or -math.inf in values
                or list(map(math.isnan, values[0::2])) != list(map(math.isnan, values[1::2]))):
            values = _checked_coords(row, labels, source, line)
        times.append(time_s)
        coords.extend(values)
    n = width - 3
    players = {
        label: (coords[2 * k::n], coords[2 * k + 1::n]) for k, label in enumerate(labels)
    }
    return Tracking(periods, frames, times, players, (coords[n - 2::n], coords[n - 1::n]))


def _checked_coords(row: list[str], labels: list[str], source: str, line: int) -> list[float]:
    """One row's coordinates, validated pair by pair; NaN marks an absent pair."""
    values: list[float] = []
    for k, what in enumerate([*labels, "ball"]):
        p = _opt_pair(row[3 + 2 * k], row[4 + 2 * k], source=source, line=line, what=what)
        values += (math.nan, math.nan) if p is None else p
    return values


def _check_alignment(home: Tracking, away: Tracking) -> None:
    """Raise on the first frame where the two sides' fragments disagree."""
    overlap = home.players.keys() & away.players.keys()
    (hx, hy), (ax, ay) = home.ball, away.ball
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
        if overlap:
            raise ConsistencyError(f"duplicate player labels across sides: {sorted(overlap)}")
        if (hx[i] == hx[i] and ax[i] == ax[i]
                and (abs(hx[i] - ax[i]) > FLOAT_TOLERANCE or abs(hy[i] - ay[i]) > FLOAT_TOLERANCE)):
            raise ConsistencyError(f"ball position disagreement at frame {frame}")


def merge_tracking(home: Tracking, away: Tracking) -> Tracking:
    """Join the two sides' fragments into full frames.

    Both files must describe exactly the same frame sequence; the first
    diverging frame is reported.  Ball positions may come from either file
    and must agree where both report one.  The merged value shares the
    home fragment's frame columns.
    """
    (hx, hy), (ax, ay) = home.ball, away.ball
    same_ball = hx.tobytes() == ax.tobytes() and hy.tobytes() == ay.tobytes()
    if not (home.frame == away.frame and home.period == away.period
            and home.time_s.tobytes() == away.time_s.tobytes() and same_ball
            and (not len(home) or home.players.keys().isdisjoint(away.players))):
        _check_alignment(home, away)
    ball = home.ball
    if not same_ball:  # take the away file's ball where the home file has none
        ball = (array("d", [a if h != h else h for h, a in zip(hx, ax)]),
                array("d", [a if h != h else y for h, y, a in zip(hx, hy, ay)]))
    return Tracking(home.period, home.frame, home.time_s,
                    {**home.players, **away.players}, ball)


def parse_events(lines: Iterable[str], source: str = "<events>") -> list[RawEventRecord]:
    """Parse the shared event file.

    The 14-column header is matched exactly.  Rows come back stably sorted
    by start time (file order preserved among ties); values are kept
    verbatim, so writing the records back in the provider layout
    reproduces every field.
    """
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file: missing header", source=source, line=1) from None
    if [h.strip() for h in header] != EVENTS_HEADER:
        raise ParseError(
            f"unexpected header: expected {','.join(EVENTS_HEADER)}", source=source, line=1,
        )
    records: list[RawEventRecord] = []
    for row in reader:
        line = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(EVENTS_HEADER):
            raise ParseError(
                f"expected {len(EVENTS_HEADER)} fields, got {len(row)}", source=source, line=line,
            )
        team = row[0].strip()
        if team not in SIDES:
            raise ParseError(f"unknown team {team!r}", source=source, line=line)
        event_type = row[1].strip()
        if not event_type:
            raise ParseError("missing event type", source=source, line=line)
        subtype = row[2].strip() or None
        period = _req_int(row[3], source=source, line=line, what="period")
        if period < 1:
            raise ParseError(f"period must be >= 1, got {period}", source=source, line=line)
        start_frame = _req_int(row[4], source=source, line=line, what="start frame")
        start_time = _req_float(row[5], source=source, line=line, what="start time")
        end_frame = _req_int(row[6], source=source, line=line, what="end frame")
        end_time = _req_float(row[7], source=source, line=line, what="end time")
        if end_time < start_time:
            raise ParseError(
                f"end time {end_time} before start time {start_time}", source=source, line=line,
            )
        from_player = row[8].strip() or None
        to_player = row[9].strip() or None
        start_pos = _opt_pair(row[10], row[11], source=source, line=line, what="start position")
        end_pos = _opt_pair(row[12], row[13], source=source, line=line, what="end position")
        records.append(RawEventRecord(
            team, event_type, subtype, period,
            start_frame, start_time, end_frame, end_time,
            from_player, to_player, start_pos, end_pos,
        ))
    records.sort(key=lambda r: r.start_time_s)  # stable: file order breaks ties
    return records


def load_match(
    home_tracking_path,
    away_tracking_path,
    events_path,
    match_id: str,
    sample_rate: float = 25.0,
) -> MatchBundle:
    """Load and merge one match's three files.

    Rosters start from the tracking column titles and are extended by any
    player label an event references (tolerates event-only data slices).
    """
    with open(home_tracking_path, newline="") as fh:
        home = parse_tracking(fh, "Home", sample_rate, source=str(home_tracking_path))
    with open(away_tracking_path, newline="") as fh:
        away = parse_tracking(fh, "Away", sample_rate, source=str(away_tracking_path))
    frames = merge_tracking(home, away)
    with open(events_path, newline="") as fh:
        events = parse_events(fh, source=str(events_path))

    rosters: dict[str, set[str]] = {side: set() for side in SIDES}
    if len(home):
        rosters["Home"].update(home.players)
    if len(away):
        rosters["Away"].update(away.players)
    for record in events:
        for token in (record.from_player, record.to_player):
            if token is not None:
                rosters[record.team].add(qualify_player(record.team, token))
    return MatchBundle(
        match_id=match_id,
        frames=frames,
        events=events,
        rosters={side: tuple(sorted(labels)) for side, labels in rosters.items()},
    )


def normalize_direction(
    tracking: Tracking, events: list[RawEventRecord]
) -> tuple[Tracking, list[RawEventRecord]]:
    """Flip every period-2 position (x,y) -> (1-x, 1-y).

    Sides swap ends at half time while raw coordinates stay absolute; the
    flip applies to all objects at once so each team attacks a constant
    direction and relative geometry is preserved.  Coordinate columns come
    back as copies with their period-2 slices flipped; frame columns are
    shared.
    """
    runs: list[tuple[int, int]] = []
    start = 0
    for second_half, group in groupby(tracking.period, key=(2).__le__):
        stop = start + sum(1 for _ in group)
        if second_half:
            runs.append((start, stop))
        start = stop

    def flip_column(column: array) -> array:
        out = array("d", column)
        for start, stop in runs:
            out[start:stop] = array("d", [1.0 - v for v in column[start:stop]])
        return out

    def flip_pair(xy: tuple[array, array]) -> tuple[array, array]:
        return flip_column(xy[0]), flip_column(xy[1])

    def flip(p: Optional[Point]) -> Optional[Point]:
        return None if p is None else Point(1.0 - p.x, 1.0 - p.y)

    out_tracking = Tracking(
        tracking.period, tracking.frame, tracking.time_s,
        {label: flip_pair(xy) for label, xy in tracking.players.items()},
        flip_pair(tracking.ball),
    )
    out_events = []
    for e in events:
        if e.period < 2:
            out_events.append(e)
        else:
            out_events.append(replace(e, start_pos=flip(e.start_pos), end_pos=flip(e.end_pos)))
    return out_tracking, out_events
