"""Turn raw records and tracking frames into a single activity-event stream.

Three event classes flow through the pipeline:

* game_based - off-ball game events (challenges, cards, fouls suffered)
* ball       - on-ball actions (passes, shots, set pieces, recoveries, ...)
* position_based - "Player changes position" events derived from tracking
  whenever a player crosses a grid-cell border

Raw provider rows map through a configurable activity table: each row emits
a primary event at its start, and rows that encode a distinct outcome add
an end event (a pass emits "Pass received" at its end position, a
goal-marked shot emits "Goal" at the shot's end time).  Ball-out rows emit
their single "Ball out" event at the end fields, where the ball actually
crossed the line.

Each event leaves this module with its final spatial context in attrs, in the
form the log stores: a game_based or ball event that has a position carries
its raw coordinates as "x" and "y" and the label of the grid cell it snaps
into as "cell"; a position_based event carries "from_cell" and "to_cell".
The team is set when the event is made: the record's side for a mapped
event, the side its label starts with for a movement event.  merge_streams
alone orders the events; neither stream is sorted where it is made.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from importlib import resources
from typing import Collection, Optional, Sequence

from .errors import ConsistencyError, ParseError, read_json, shown
from .ingest import SIDES, RawEventRecord, Tracking, period_runs, qualify_player
from .possession import PossessionSpan, goal_marked, possession_lookup
from .spatial import (
    GridSpec, cell_edges, cell_label, cell_of, cell_ranges, metric_distance, snap_to_pitch
)

GAME_BASED = "game_based"
BALL = "ball"
POSITION_BASED = "position_based"
EVENT_CLASSES = frozenset({GAME_BASED, BALL, POSITION_BASED})

MOVEMENT_ACTIVITY = "Player changes position"

EXECUTING = "executing_player"
RECEIVING = "receiving_player"

UNKNOWN_REJECT = "reject"
UNKNOWN_PASS = "pass"

# cell ranges no point lies in: movement detection's fast path is off
_NOWHERE = (math.inf, -math.inf, math.inf, -math.inf)


@dataclass(frozen=True)
class MappingEntry:
    """How one provider event type decomposes into activity events."""

    activity: str
    end_activity: Optional[str] = None
    goal_end_activity: Optional[str] = None
    event_class: str = BALL
    at_end: bool = False  # emit the (single) primary event at the end fields

    def __post_init__(self) -> None:
        if self.event_class not in (GAME_BASED, BALL):
            raise ValueError(
                f"mapped class must be game_based or ball, got {shown(self.event_class)}")


@dataclass(frozen=True)
class ActivityEvent:
    """One event of the unified stream (before or after enrichment).

    attrs is the event's own dict, shared with no other, and becomes the log
    event's.  A game_based or ball event has "duration_s", a "subtype" and a
    "distance_m" when its record gives them and, when it has a position, its
    raw "x" and "y" and the label of the grid "cell" that position snaps into.
    A position_based event has "from_cell", "to_cell", "duration_s" and
    "distance_m".  enrich adds "score_home", "score_away" and "possession_id",
    then ocel.events_to_ocel "period" and "event_class", each in place.
    team is set at creation and never changes; it is None only for a tracked
    label of neither side.
    """

    activity: str
    event_class: str
    time_s: float
    period: int
    team: Optional[str]
    players: tuple[str, ...]           # qualified labels, executor first
    roles: tuple[str, ...]             # parallel qualifiers for players
    attrs: dict


def default_activity_mapping() -> dict[str, MappingEntry]:
    """The packaged provider-type -> activity table."""
    packaged = resources.files("footocel").joinpath("data/activity_map.json")
    text = packaged.read_text(encoding="utf-8")
    return _mapping_from_dict(json.loads(text), source="<packaged activity map>")


def load_activity_mapping(path) -> dict[str, MappingEntry]:
    """Load a user-supplied activity table (same schema as the packaged one)."""
    return _mapping_from_dict(read_json(path), source=str(path))


_MAPPING_KEYS = {"activity", "end_activity", "goal_end_activity", "class", "at_end"}


def _mapping_from_dict(data, source: str) -> dict[str, MappingEntry]:
    if not isinstance(data, dict):
        raise ParseError("activity map must be a JSON object", source=source)
    mapping: dict[str, MappingEntry] = {}
    for provider_type, raw in data.items():
        try:
            if not isinstance(raw, dict):
                raise ValueError("must be an object")
            unknown = set(raw) - _MAPPING_KEYS
            if unknown:
                raise ValueError(f"has unknown keys {shown(sorted(unknown))}")
            if not isinstance(raw.get("activity"), str) or not raw["activity"]:
                raise ValueError("needs a string 'activity', not empty")
            for key, kind, what in (("end_activity", str, "a string"),
                                    ("goal_end_activity", str, "a string"),
                                    ("at_end", bool, "true or false")):
                if key in raw and not isinstance(raw[key], kind):
                    raise ValueError(f"{key} must be {what}, got {shown(raw[key])}")
                if raw.get(key) == "":
                    raise ValueError(f"{key} must not be empty")
            mapping[provider_type] = MappingEntry(
                activity=raw["activity"],
                end_activity=raw.get("end_activity"),
                goal_end_activity=raw.get("goal_end_activity"),
                event_class=raw.get("class", BALL),
                at_end=raw.get("at_end", False),
            )
        except ValueError as exc:
            raise ParseError(f"entry {shown(provider_type)}: {exc}", source=source) from None
    return mapping


def decompose_events(
    raw: Sequence[RawEventRecord],
    spec: GridSpec,
    mapping: Optional[dict[str, MappingEntry]] = None,
    on_unknown: str = UNKNOWN_REJECT,
) -> list[ActivityEvent]:
    """Map raw records to activity events (one or two per record).

    Unknown provider types either abort (default) or pass through with an
    "Other:<TYPE>" label, depending on on_unknown.  Output is in record
    order, each record's primary event before its end events.
    """
    if on_unknown not in (UNKNOWN_REJECT, UNKNOWN_PASS):
        raise ValueError(f"on_unknown must be 'reject' or 'pass', got {shown(on_unknown)}")
    if mapping is None:
        mapping = default_activity_mapping()

    out: list[ActivityEvent] = []
    for record in raw:
        entry = mapping.get(record.event_type)
        if entry is None:
            if on_unknown == UNKNOWN_REJECT:
                raise ConsistencyError(
                    f"unknown event type {shown(record.event_type)}"
                    " (extend the activity map or run with unknown events passed through)"
                )
            entry = MappingEntry(activity=f"Other:{record.event_type}", event_class=GAME_BASED)

        executor = (
            qualify_player(record.team, record.from_player) if record.from_player else None
        )
        receiver = (
            qualify_player(record.team, record.to_player) if record.to_player else None
        )

        common: dict = {}
        if record.subtype:
            common["subtype"] = record.subtype
        common["duration_s"] = record.end_time_s - record.start_time_s
        if record.start_pos is not None and record.end_pos is not None:
            common["distance_m"] = metric_distance(record.start_pos, record.end_pos, spec)

        def event(activity, time_s, pos, players, roles) -> ActivityEvent:
            attrs = dict(common)
            if pos is not None:
                attrs["x"], attrs["y"] = pos.x, pos.y
                attrs["cell"] = cell_label(cell_of(snap_to_pitch(pos), spec))
            return ActivityEvent(activity, entry.event_class, time_s, record.period,
                                 record.team, players, roles, attrs)

        if entry.at_end:
            time_s, pos = record.end_time_s, record.end_pos or record.start_pos
        else:
            time_s, pos = record.start_time_s, record.start_pos

        players: tuple[str, ...] = ()
        roles: tuple[str, ...] = ()
        if executor is not None:
            players += (executor,)
            roles += (EXECUTING,)
        if receiver is not None and entry.end_activity is not None:
            # the receiving side matters on the primary event too (a pass
            # connects both players)
            players += (receiver,)
            roles += (RECEIVING,)
        out.append(event(entry.activity, time_s, pos, players, roles))

        if entry.end_activity is not None and receiver is not None:
            out.append(event(entry.end_activity, record.end_time_s, record.end_pos,
                             (receiver,), (RECEIVING,)))
        if entry.goal_end_activity is not None and goal_marked(record.subtype):
            out.append(event(entry.goal_end_activity, record.end_time_s, record.end_pos,
                             (executor,) if executor else (), (EXECUTING,) if executor else ()))
    return out


def detect_movement_events(
    tracking: Tracking,
    spec: GridSpec,
    min_dwell_s: float = 0.0,
) -> list[ActivityEvent]:
    """Emit "Player changes position" events from cell-border crossings.

    An event fires at the first frame inside the new cell and carries the
    previous cell, the new cell, the dwell time in the previous cell and
    the metric path length walked since the previous change.  A player's
    first observed cell emits nothing, tracking gaps reset the cell memory
    only when the player reappears somewhere else, and state resets at
    period boundaries (sides switch ends at half time).

    min_dwell_s > 0 debounces border jitter: a crossing only counts once
    the player has stayed out of the old cell, inside one new cell, for at
    least that long; the event keeps the first-frame-in-new-cell timestamp.

    A sample's cell is the integer col * rows + row of the column and row
    whose exact edges (spatial.cell_edges) hold it, which is the cell
    snap_to_pitch + cell_of give, and path lengths are computed as
    metric_distance would, so the results equal a per-frame evaluation of
    those functions bit for bit.
    A sample inside the confirmed cell's exact ranges (spatial.cell_ranges),
    right after a tracked sample and with no candidate pending, only adds
    its step to the path length.
    Output lists players in label order, each one's events in frame order.
    """
    if not min_dwell_s >= 0:
        raise ValueError(f"min_dwell_s must be >= 0, got {shown(min_dwell_s)}")

    rows = spec.rows
    length_m, width_m = spec.pitch_length_m, spec.pitch_width_m
    cell_labels = [cell_label(cell) for cell in spec.all_cells()]  # by col * rows + row
    x_edges, y_edges = cell_edges(spec)
    ranges = cell_ranges(x_edges, y_edges)  # the same order
    hypot = math.hypot
    runs = period_runs(tracking)
    events: list[ActivityEvent] = []

    for label in sorted(tracking.players):
        xs, ys = tracking.players[label]
        team = next((side for side in SIDES if label.startswith(side)), None)
        entry_time = 0.0
        last_x = last_y = 0.0
        t0 = dist = 0.0                # a candidate's first frame time and acc snapshot

        for period, start, stop in runs:
            confirmed = -1             # cell index; -1 = none yet this period
            acc = 0.0                  # path length since entering `confirmed`
            prev_present = False
            tentative = -1             # candidate new cell while debouncing
            # the confirmed cell's ranges while the previous sample was
            # present and no candidate is pending, else ranges nothing lies in
            xlo, xhi, ylo, yhi = _NOWHERE

            for time_s, x, y in zip(tracking.time_s[start:stop], xs[start:stop], ys[start:stop]):
                if xlo <= x < xhi and ylo <= y < yhi:  # stays in the confirmed cell
                    acc += hypot((x - last_x) * length_m, (y - last_y) * width_m)
                    last_x, last_y = x, y
                    continue
                if x != x:  # not tracked
                    prev_present = False
                    xlo, xhi, ylo, yhi = _NOWHERE
                    continue
                cell = (bisect_right(x_edges, x) - 1) * rows + rows - bisect_right(y_edges, y)

                if confirmed < 0 or not (prev_present or cell == confirmed):
                    # first cell of the period, or back after a gap somewhere
                    # else: a new residence starts without an event
                    confirmed, entry_time, acc, tentative = cell, time_s, 0.0, -1
                else:
                    acc += hypot((x - last_x) * length_m, (y - last_y) * width_m)
                    if cell == confirmed:
                        tentative = -1
                    else:
                        if cell != tentative:
                            tentative, t0, dist = cell, time_s, acc
                        if time_s - t0 >= min_dwell_s:
                            events.append(ActivityEvent(
                                activity=MOVEMENT_ACTIVITY,
                                event_class=POSITION_BASED,
                                time_s=t0,
                                period=period,
                                team=team,
                                players=(label,),
                                roles=(EXECUTING,),
                                attrs={
                                    "from_cell": cell_labels[confirmed],
                                    "to_cell": cell_labels[tentative],
                                    "duration_s": t0 - entry_time,
                                    "distance_m": dist,
                                },
                            ))
                            confirmed, entry_time = tentative, t0
                            acc -= dist
                            tentative = -1
                last_x, last_y = x, y
                prev_present = True
                xlo, xhi, ylo, yhi = _NOWHERE if tentative >= 0 else ranges[confirmed]
    return events


def merge_streams(
    game_stream: Sequence[ActivityEvent], movement_stream: Sequence[ActivityEvent]
) -> list[ActivityEvent]:
    """Merge the decomposed and movement streams into one time-ordered stream
    (the only sort of either): one new list, sorted in place.

    Order: (period, time); ties put game/ball events before position-based
    ones, then sort by first player label, then keep input (record) order.
    """
    merged = [*game_stream, *movement_stream]
    merged.sort(key=lambda e: (
        e.period,
        e.time_s,
        1 if e.event_class == POSITION_BASED else 0,
        e.players[0] if e.players else "",
    ))
    return merged


def enrich(
    game_stream: Sequence[ActivityEvent],
    movement_stream: Sequence[ActivityEvent],
    spans: Sequence[PossessionSpan],
    goal_activities: Collection[str],
) -> list[ActivityEvent]:
    """Merge the two streams (merge_streams) and, in one pass over the
    result, add the running score and the possession id to each event's own
    attrs in place: the events returned are the ones passed in, merged.

    The score attributes count goals strictly before each event, so a goal
    event itself still carries the pre-goal score.  A goal is an event whose
    activity is in goal_activities: the goal_end_activity names of the
    activity map in use.  An event outside every possession span gets no
    possession_id.  Teams, cells and coordinates are left as derive made them.
    """
    span_at = possession_lookup(spans)
    score = dict.fromkeys(SIDES, 0)
    merged = merge_streams(game_stream, movement_stream)
    for e in merged:
        e.attrs["score_home"] = score["Home"]
        e.attrs["score_away"] = score["Away"]
        span = span_at(e.time_s, e.period)
        if span is not None:
            e.attrs["possession_id"] = span.span_id
        if e.activity in goal_activities and e.team in score:
            score[e.team] += 1
    return merged
