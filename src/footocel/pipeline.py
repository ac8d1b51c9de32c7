"""End-to-end conversion: raw match files in, object-centric log out.

Per match: load + merge the three CSVs, optionally normalize attack
direction, segment possessions, decompose events, derive movement events
from tracking, and merge and enrich the streams.  Once every match is
enriched, ocel builds the objects of every match and wires and names the
events of every match in one sequence, and the two make one log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

from . import ingest
from .derive import (
    UNKNOWN_PASS,
    UNKNOWN_REJECT,
    ActivityEvent,
    MappingEntry,
    decompose_events,
    default_activity_mapping,
    detect_movement_events,
    enrich,
    load_activity_mapping,
)
from .errors import ParseError, shown
from .ocel import IdentityScope, OcelLog, build_objects, concat_logs, events_to_ocel
from .possession import CONTROL_TYPES, PossessionSpan, match_prefix, segment_possessions
from .spatial import GridSpec


@dataclass(frozen=True)
class MatchPaths:
    home_tracking: str
    away_tracking: str
    events: str
    match_id: str


@dataclass(frozen=True)
class RunConfig:
    """Everything convert can be told; flags > config file > defaults.  Each
    field is a config key, read in the JSON form of its annotation."""

    grid: GridSpec = field(default_factory=GridSpec)
    scope: IdentityScope = IdentityScope.GLOBAL
    min_dwell_s: float = 0.0
    normalize_direction: bool = False
    activity_map_path: Optional[str] = None
    unknown_events: str = UNKNOWN_REJECT
    control_types: tuple[str, ...] = tuple(sorted(CONTROL_TYPES))

    def __post_init__(self) -> None:
        if not isinstance(self.scope, IdentityScope):
            raise ValueError(f"scope must be 'global' or 'per-match', got {shown(self.scope)}")
        if not self.min_dwell_s >= 0:
            raise ValueError(f"min_dwell_s must be >= 0, got {shown(self.min_dwell_s)}")
        if self.min_dwell_s == math.inf:
            raise ValueError("min_dwell_s must be finite, got inf")
        if self.unknown_events not in (UNKNOWN_REJECT, UNKNOWN_PASS):
            raise ValueError(
                f"unknown_events must be 'reject' or 'pass', got {shown(self.unknown_events)}")
        if not self.control_types:
            raise ValueError("control_types must not be empty")


def _number(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


# the JSON form of each field annotation of RunConfig and GridSpec: what a
# value must be, the test for it and its conversion to the field's type
_JSON_FORMS = {
    "int": ("an integer", lambda v: type(v) is int, int),
    "float": ("a number", lambda v: type(v) in (int, float), _number),
    "bool": ("true or false", lambda v: type(v) is bool, bool),
    "str": ("a string", lambda v: type(v) is str, str),
    "Optional[str]": ("a string or null", lambda v: v is None or type(v) is str, lambda v: v),
    "tuple[str, ...]": ("an array of strings",
                        lambda v: type(v) is list and all(type(t) is str for t in v), tuple),
    "IdentityScope": ("a string", lambda v: type(v) is str,  # RunConfig checks the name
                      lambda v: {s.value: s for s in IdentityScope}.get(v, v)),
}


def _checked(cls, data, source: Optional[str], prefix: str = "", base=None):
    """An instance of cls (RunConfig or GridSpec) from data, its fields by name;
    given a base instance, a copy of it with those fields replaced."""
    if not isinstance(data, dict):
        raise ParseError(f"{prefix.rstrip('.') or 'config'} must be a JSON object", source=source)
    annotations = {f.name: f.type for f in fields(cls)}
    values = {}
    for key, value in data.items():
        if key not in annotations:
            raise ParseError(f"unknown config key {shown(prefix + key)}", source=source)
        if annotations[key] == "GridSpec":
            values[key] = _checked(GridSpec, value, source, f"{key}.",
                                   None if base is None else base.grid)
            continue
        what, fits, convert = _JSON_FORMS[annotations[key]]
        if not fits(value):
            raise ParseError(f"{prefix}{key} must be {what}, got {shown(value)}", source=source)
        values[key] = convert(value)
    return cls(**values) if base is None else replace(base, **values)


def config_from_dict(data, source: str = "<config>", overrides: Optional[dict] = None) -> RunConfig:
    """A RunConfig from a parsed config file; overrides (e.g. flags, same keys)
    then replace its values, grid's key by key.  The file is checked alone
    first, so a flag never hides a fault of the file.  A wrong key or JSON
    type raises ParseError naming the key and source, an out-of-range value
    ValueError; either names the source when the fault is the file's, and
    neither does when it is an override's."""
    try:
        config = _checked(RunConfig, data, source)
    except ParseError:
        raise
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return _checked(RunConfig, overrides or {}, None, base=config)


def convert_one(
    paths: MatchPaths, match_index: int, config: RunConfig,
    mapping: dict[str, MappingEntry], goals: set[str],
) -> tuple[tuple[str, dict[str, tuple[str, ...]], list[PossessionSpan]],
           tuple[str, list[ActivityEvent]]]:
    """One match's (match_id, rosters, spans) for ocel.build_objects and its
    (match_id, enriched events) for ocel.events_to_ocel."""
    bundle = ingest.load_match(paths.home_tracking, paths.away_tracking, paths.events)
    frames, events = bundle.frames, bundle.events
    if config.normalize_direction:
        frames, events = ingest.normalize_direction(frames, events)

    spans = segment_possessions(
        events, match_prefix(match_index), frozenset(config.control_types),
    )
    game_stream = decompose_events(events, config.grid, mapping, config.unknown_events)
    movement_stream = detect_movement_events(frames, config.grid, config.min_dwell_s)
    enriched = enrich(game_stream, movement_stream, spans, goals)
    return (paths.match_id, bundle.rosters, spans), (paths.match_id, enriched)


def convert_matches(
    matches: Sequence[MatchPaths], config: Optional[RunConfig] = None
) -> OcelLog:
    """Convert a set of matches into one object-centric log: convert_one's
    two products of every match go to ocel.build_objects and
    ocel.events_to_ocel.  Each match lies a day after the one before it, so
    it must begin after that one ends; events_to_ocel checks this as it
    wires the events."""
    config = config or RunConfig()
    if not matches:
        raise ValueError("at least one match is required")
    ids = [m.match_id for m in matches]
    if "" in ids:
        raise ValueError(f"match ids must not be empty: {shown(ids)}")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate match ids: {shown(ids)}")

    # one activity map and its goal activities for every match, read before
    # any match file
    mapping = (
        default_activity_mapping() if config.activity_map_path is None
        else load_activity_mapping(config.activity_map_path)
    )
    goals = {m.goal_end_activity for m in mapping.values() if m.goal_end_activity is not None}
    rosters_and_spans, events = zip(
        *(convert_one(m, i, config, mapping, goals) for i, m in enumerate(matches)))
    objects = build_objects(rosters_and_spans, config.grid, config.scope)
    return concat_logs(objects, events_to_ocel(events, config.scope))
