"""Object-centric event log model plus its JSON serialization.

The on-disk format follows the object-centric event log JSON layout: four
top-level arrays (objectTypes, eventTypes, objects, events); every event
carries qualified relationships [{objectId, qualifier}]; timestamps are
ISO-8601 UTC with millisecond precision.  Reading back a written log
reproduces the in-memory value exactly.

Object universe per converted match bundle: the match itself, both teams,
all rostered players, one ball, every grid cell and one object per
possession span.  Team/player/ball/grid identities are either shared
across matches (global scope, the default) or namespaced per match.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Sequence

from .derive import BALL, EVENT_CLASSES, POSITION_BASED, ActivityEvent
from .errors import ConsistencyError, ParseError
from .possession import PossessionSpan
from .spatial import GridSpec, cell_label

OBJECT_TYPE_MATCH = "match"
OBJECT_TYPE_TEAM = "team"
OBJECT_TYPE_PLAYER = "player"
OBJECT_TYPE_POSSESSION = "possession"
OBJECT_TYPE_GRID = "grid_position"
OBJECT_TYPE_BALL = "ball"

OBJECT_TYPES = frozenset({
    OBJECT_TYPE_MATCH, OBJECT_TYPE_TEAM, OBJECT_TYPE_PLAYER,
    OBJECT_TYPE_POSSESSION, OBJECT_TYPE_GRID, OBJECT_TYPE_BALL,
})

QUALIFIERS = frozenset({
    "match", "team", "executing_player", "receiving_player",
    "possession", "at_cell", "from_cell", "to_cell", "ball",
})

# synthetic kickoff instant of the first match; successive matches shift by
# one day so multi-match logs stay chronologically separated
EPOCH_BASE = datetime(2020, 7, 1, 15, 0, 0, tzinfo=timezone.utc)


class IdentityScope(Enum):
    """Whether team/player/ball/grid objects are shared across matches."""

    GLOBAL = "global"
    PER_MATCH = "per-match"


@dataclass(frozen=True)
class OcelObject:
    oid: str
    otype: str
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OcelEvent:
    eid: str
    etype: str                          # the activity name
    time: datetime
    attrs: dict
    relations: tuple[tuple[str, str], ...]  # (object id, qualifier)


@dataclass
class OcelLog:
    objects: list[OcelObject]
    events: list[OcelEvent]

    def object_index(self) -> dict[str, OcelObject]:
        return {o.oid: o for o in self.objects}


def match_epoch(match_index: int) -> datetime:
    return EPOCH_BASE + timedelta(days=match_index)


def event_time(epoch: datetime, time_s: float) -> datetime:
    """Absolute UTC instant of a match-clock offset, quantized to 1 ms."""
    dt = epoch + timedelta(seconds=time_s)
    ms = round(dt.microsecond / 1000)
    return dt.replace(microsecond=0) + timedelta(milliseconds=ms)


def format_time(dt: datetime) -> str:
    if dt.tzinfo is None or dt.utcoffset() != timedelta(0):
        raise ConsistencyError(f"event times must be UTC, got {dt!r}")
    return f"{dt:%Y-%m-%dT%H:%M:%S}.{dt.microsecond // 1000:03d}Z"


def parse_time(text: str, path: str) -> datetime:
    normalized = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        dt = datetime.fromisoformat(normalized)
    except ValueError:
        raise ParseError(f"{path}: invalid ISO-8601 time {text!r}") from None
    if dt.tzinfo is None:
        raise ParseError(f"{path}: time {text!r} lacks a UTC offset")
    return dt.astimezone(timezone.utc)


def scoped_id(scope: IdentityScope, match_id: str, base: str) -> str:
    return base if scope is IdentityScope.GLOBAL else f"{match_id}:{base}"


def build_objects(
    bundles_rosters: Sequence[tuple[str, dict[str, tuple[str, ...]]]],
    spans_by_match: dict[str, Sequence[PossessionSpan]],
    spec: GridSpec,
    scope: IdentityScope = IdentityScope.GLOBAL,
) -> list[OcelObject]:
    """Materialize the object universe for a set of matches.

    bundles_rosters pairs each match id with its side -> labels roster, in
    load order (the order fixes each match's synthetic kickoff date).
    """
    objects: dict[str, OcelObject] = {}

    def add(obj: OcelObject) -> None:
        existing = objects.get(obj.oid)
        if existing is not None:
            if existing != obj:
                raise ConsistencyError(f"conflicting definitions for object {obj.oid!r}")
            return
        objects[obj.oid] = obj

    for index, (match_id, rosters) in enumerate(bundles_rosters):
        add(OcelObject(match_id, OBJECT_TYPE_MATCH, {
            "kickoff": format_time(match_epoch(index)),
        }))
        for side in sorted(rosters):
            team_attrs = {"side": side}
            player_extra = {}
            if scope is IdentityScope.PER_MATCH:
                team_attrs["match"] = match_id
                player_extra = {"match": match_id}
            add(OcelObject(scoped_id(scope, match_id, side), OBJECT_TYPE_TEAM, team_attrs))
            for label in rosters[side]:
                add(OcelObject(
                    scoped_id(scope, match_id, label), OBJECT_TYPE_PLAYER,
                    {"side": side, **player_extra},
                ))
        ball_attrs = {"match": match_id} if scope is IdentityScope.PER_MATCH else {}
        add(OcelObject(scoped_id(scope, match_id, "ball"), OBJECT_TYPE_BALL, ball_attrs))
        for cell in spec.all_cells():
            label = cell_label(cell)
            cell_attrs = {"column": label[0], "row": cell.row + 1}
            if scope is IdentityScope.PER_MATCH:
                cell_attrs["match"] = match_id
            add(OcelObject(scoped_id(scope, match_id, label), OBJECT_TYPE_GRID, cell_attrs))
        for span in spans_by_match.get(match_id, ()):
            add(OcelObject(span.span_id, OBJECT_TYPE_POSSESSION, {
                "team": span.team,
                "outcome": span.outcome,
                "period": span.period,
                "start_time_s": span.start_time_s,
                "end_time_s": span.end_time_s,
                "match": match_id,
            }))

    return sorted(objects.values(), key=lambda o: (o.otype, o.oid))


def events_to_ocel(
    events: Sequence[ActivityEvent],
    match_id: str,
    epoch: datetime,
    scope: IdentityScope,
    *,
    first: int,
    total: int,
) -> list[OcelEvent]:
    """Wire enriched activity events to their objects and name them.

    Every event relates to its match; team, players (with their role
    qualifier), possession and grid cell(s) follow when known; ball-class
    events additionally relate to the ball object.  The events keep their
    input order.  This is the one place events are named: the log's events
    form one zero-padded sequence, so this group's ids start after the
    `first` events before it and pad to the width of the log's `total`
    events; reruns over identical input produce identical ids.
    """
    width = max(6, len(str(total)))
    out: list[OcelEvent] = []
    for seq, e in enumerate(events, start=first + 1):
        if e.event_class not in EVENT_CLASSES:
            raise ConsistencyError(f"unknown event class {e.event_class!r}")
        rels: list[tuple[str, str]] = [(match_id, "match")]
        if e.team is not None:
            rels.append((scoped_id(scope, match_id, e.team), "team"))
        for player, role in zip(e.players, e.roles):
            rels.append((scoped_id(scope, match_id, player), role))
        possession_id = e.attrs.get("possession_id")
        if possession_id is not None:
            rels.append((possession_id, "possession"))
        if e.event_class == POSITION_BASED:
            rels.append((scoped_id(scope, match_id, e.attrs["from_cell"]), "from_cell"))
            rels.append((scoped_id(scope, match_id, e.attrs["to_cell"]), "to_cell"))
        elif e.cell is not None:
            rels.append((scoped_id(scope, match_id, cell_label(e.cell)), "at_cell"))
        if e.event_class == BALL:
            rels.append((scoped_id(scope, match_id, "ball"), "ball"))

        attrs = dict(e.attrs)
        attrs["period"] = e.period
        attrs["event_class"] = e.event_class
        if e.cell is not None:
            attrs["cell"] = cell_label(e.cell)
        if e.position is not None:
            attrs["x"] = e.position.x
            attrs["y"] = e.position.y
        out.append(OcelEvent(
            eid=f"e{seq:0{width}d}",
            etype=e.activity,
            time=event_time(epoch, e.time_s),
            attrs=attrs,
            relations=tuple(rels),
        ))
    return out


def concat_logs(objects: list[OcelObject], event_groups: Sequence[list[OcelEvent]]) -> OcelLog:
    """Assemble the final log from the objects and the named event groups, in order."""
    log = OcelLog(objects=objects, events=[e for group in event_groups for e in group])
    validate_log(log)
    return log


def validate_log(log: OcelLog) -> None:
    """Check referential integrity and ordering invariants; raise on violation."""
    seen_objects: set[str] = set()
    for o in log.objects:
        if o.oid in seen_objects:
            raise ConsistencyError(f"duplicate object id {o.oid!r}")
        seen_objects.add(o.oid)
        if o.otype not in OBJECT_TYPES:
            raise ConsistencyError(f"object {o.oid!r} has unknown type {o.otype!r}")
    seen_events: set[str] = set()
    prev_key = None
    for e in log.events:
        if e.eid in seen_events:
            raise ConsistencyError(f"duplicate event id {e.eid!r}")
        seen_events.add(e.eid)
        key = (e.time, e.eid)
        if prev_key is not None and key < prev_key:
            raise ConsistencyError(f"event {e.eid!r} breaks (time, id) ordering")
        prev_key = key
        if not e.relations:
            raise ConsistencyError(f"event {e.eid!r} relates to no objects")
        for oid, qualifier in e.relations:
            if oid not in seen_objects:
                raise ConsistencyError(f"event {e.eid!r} references unknown object {oid!r}")
            if qualifier not in QUALIFIERS:
                raise ConsistencyError(f"event {e.eid!r} uses unknown qualifier {qualifier!r}")


def _json_type(name: str, value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        if not math.isfinite(value):  # NaN and infinities are not JSON
            raise ConsistencyError(f"attribute {name!r} has non-finite value {value!r}")
        return "float"
    if isinstance(value, str):
        return "string"
    raise ConsistencyError(f"attribute {name!r} has unsupported value {value!r}")


def _attr_schema(rows: Sequence[tuple[str, dict]]) -> dict[str, dict[str, str]]:
    """Per type: attribute name -> JSON type, ints promoting to float on mix."""
    schema: dict[str, dict[str, str]] = {}
    for type_name, attrs in rows:
        bucket = schema.setdefault(type_name, {})
        for name, value in attrs.items():
            jt = _json_type(name, value)
            prev = bucket.get(name)
            if prev is None or prev == jt:
                bucket[name] = jt
            elif {prev, jt} == {"integer", "float"}:
                bucket[name] = "float"
            else:
                raise ConsistencyError(
                    f"attribute {name!r} of {type_name!r} mixes {prev} and {jt} values"
                )
    return schema


def ocel_to_dict(log: OcelLog) -> dict:
    """The JSON-ready structure (deterministic: everything is sorted)."""
    object_schema = _attr_schema([(o.otype, o.attrs) for o in log.objects])
    event_schema = _attr_schema([(e.etype, e.attrs) for e in log.events])

    def type_entries(schema: dict[str, dict[str, str]]) -> list[dict]:
        return [
            {
                "name": name,
                "attributes": [
                    {"name": a, "type": t} for a, t in sorted(schema[name].items())
                ],
            }
            for name in sorted(schema)
        ]

    return {
        "objectTypes": type_entries(object_schema),
        "eventTypes": type_entries(event_schema),
        "objects": [
            {
                "id": o.oid,
                "type": o.otype,
                "attributes": [
                    {"name": k, "value": v} for k, v in sorted(o.attrs.items())
                ],
            }
            for o in log.objects
        ],
        "events": [
            {
                "id": e.eid,
                "type": e.etype,
                "time": format_time(e.time),
                "attributes": [
                    {"name": k, "value": v} for k, v in sorted(e.attrs.items())
                ],
                "relationships": [
                    {"objectId": oid, "qualifier": q} for oid, q in e.relations
                ],
            }
            for e in log.events
        ],
    }


def write_ocel_json(log: OcelLog, path) -> None:
    """Write the log as JSON; a log that cannot be written leaves path untouched."""
    tree = ocel_to_dict(log)  # raises before the file is opened and truncated
    with open(path, "w") as fh:
        json.dump(tree, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def _expect_keys(obj: dict, keys: set[str], path: str) -> None:
    missing = keys - obj.keys()
    extra = obj.keys() - keys
    if missing:
        raise ParseError(f"{path}: missing key(s) {sorted(missing)}")
    if extra:
        raise ParseError(f"{path}: unexpected key(s) {sorted(extra)}")


def _read_type_section(data, key: str) -> dict[str, dict[str, str]]:
    section = data[key]
    if not isinstance(section, list):
        raise ParseError(f"$.{key}: expected an array")
    schema: dict[str, dict[str, str]] = {}
    for i, entry in enumerate(section):
        path = f"$.{key}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: expected an object")
        _expect_keys(entry, {"name", "attributes"}, path)
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise ParseError(f"{path}.name: expected a non-empty string")
        if name in schema:
            raise ParseError(f"{path}.name: duplicate type {name!r}")
        attrs: dict[str, str] = {}
        if not isinstance(entry["attributes"], list):
            raise ParseError(f"{path}.attributes: expected an array")
        for j, attr in enumerate(entry["attributes"]):
            apath = f"{path}.attributes[{j}]"
            if not isinstance(attr, dict):
                raise ParseError(f"{apath}: expected an object")
            _expect_keys(attr, {"name", "type"}, apath)
            if not isinstance(attr["name"], str):
                raise ParseError(f"{apath}.name: expected a string")
            if attr["type"] not in ("string", "integer", "float", "boolean"):
                raise ParseError(f"{apath}.type: unsupported type {attr['type']!r}")
            attrs[attr["name"]] = attr["type"]
        schema[name] = attrs
    return schema


def _read_attributes(entries, schema: dict[str, str], path: str) -> dict:
    if not isinstance(entries, list):
        raise ParseError(f"{path}: expected an array")
    attrs: dict = {}
    for j, attr in enumerate(entries):
        apath = f"{path}[{j}]"
        if not isinstance(attr, dict):
            raise ParseError(f"{apath}: expected an object")
        _expect_keys(attr, {"name", "value"}, apath)
        name, value = attr["name"], attr["value"]
        if not isinstance(name, str) or name not in schema:
            raise ParseError(f"{apath}.name: undeclared attribute {name!r}")
        declared = schema[name]
        try:
            actual = _json_type(name, value) if isinstance(value, (bool, int, float, str)) else None
        except ConsistencyError:  # a number beyond the float range reads as inf
            actual = None
        if actual is None or (actual != declared and not (actual == "integer" and declared == "float")):
            raise ParseError(f"{apath}.value: expected {declared}, got {value!r}")
        if name in attrs:
            raise ParseError(f"{apath}.name: duplicate attribute {name!r}")
        attrs[name] = value
    return attrs


def _reject_constant(token: str):
    raise ParseError(f"$: {token} is not a JSON number")


def read_ocel_json(path) -> OcelLog:
    """Load and validate a log; violations name the file and carry a JSON path."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_constant)
        return _log_from_dict(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"$: invalid JSON: {exc}", source=str(path)) from None
    except ParseError as exc:
        raise ParseError(str(exc), source=str(path)) from None


def _log_from_dict(data) -> OcelLog:
    if not isinstance(data, dict):
        raise ParseError("$: expected a top-level object")
    _expect_keys(data, {"objectTypes", "eventTypes", "objects", "events"}, "$")
    object_schema = _read_type_section(data, "objectTypes")
    event_schema = _read_type_section(data, "eventTypes")

    if not isinstance(data["objects"], list):
        raise ParseError("$.objects: expected an array")
    objects: list[OcelObject] = []
    oids: set[str] = set()
    for i, entry in enumerate(data["objects"]):
        path = f"$.objects[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: expected an object")
        _expect_keys(entry, {"id", "type", "attributes"}, path)
        oid, otype = entry["id"], entry["type"]
        if not isinstance(oid, str) or not oid:
            raise ParseError(f"{path}.id: expected a non-empty string")
        if oid in oids:
            raise ParseError(f"{path}.id: duplicate object id {oid!r}")
        if not isinstance(otype, str) or otype not in object_schema:
            raise ParseError(f"{path}.type: undeclared object type {otype!r}")
        attrs = _read_attributes(entry["attributes"], object_schema[otype], f"{path}.attributes")
        objects.append(OcelObject(oid, otype, attrs))
        oids.add(oid)

    if not isinstance(data["events"], list):
        raise ParseError("$.events: expected an array")
    events: list[OcelEvent] = []
    eids: set[str] = set()
    prev_key = None
    for i, entry in enumerate(data["events"]):
        path = f"$.events[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: expected an object")
        _expect_keys(entry, {"id", "type", "time", "attributes", "relationships"}, path)
        eid, etype = entry["id"], entry["type"]
        if not isinstance(eid, str) or not eid:
            raise ParseError(f"{path}.id: expected a non-empty string")
        if eid in eids:
            raise ParseError(f"{path}.id: duplicate event id {eid!r}")
        if not isinstance(etype, str) or etype not in event_schema:
            raise ParseError(f"{path}.type: undeclared event type {etype!r}")
        time = parse_time(entry["time"], f"{path}.time") if isinstance(entry["time"], str) \
            else None
        if time is None:
            raise ParseError(f"{path}.time: expected a string")
        attrs = _read_attributes(entry["attributes"], event_schema[etype], f"{path}.attributes")
        if not isinstance(entry["relationships"], list):
            raise ParseError(f"{path}.relationships: expected an array")
        rels: list[tuple[str, str]] = []
        for j, rel in enumerate(entry["relationships"]):
            rpath = f"{path}.relationships[{j}]"
            if not isinstance(rel, dict):
                raise ParseError(f"{rpath}: expected an object")
            _expect_keys(rel, {"objectId", "qualifier"}, rpath)
            oid, qualifier = rel["objectId"], rel["qualifier"]
            if not isinstance(oid, str) or oid not in oids:
                raise ParseError(f"{rpath}.objectId: unknown object {oid!r}")
            if not isinstance(qualifier, str) or qualifier not in QUALIFIERS:
                raise ParseError(f"{rpath}.qualifier: unknown qualifier {qualifier!r}")
            rels.append((oid, qualifier))
        key = (time, eid)
        if prev_key is not None and key < prev_key:
            raise ParseError(f"{path}: events not sorted by (time, id)")
        prev_key = key
        events.append(OcelEvent(eid, etype, time, attrs, tuple(rels)))
        eids.add(eid)

    return OcelLog(objects=objects, events=events)


@dataclass(frozen=True)
class OcelStats:
    """Size and composition summary of a log."""

    n_events: int
    n_objects: int
    events_by_class: dict
    events_by_activity: dict
    objects_by_type: dict
    n_possessions: int
    n_matches: int
    n_end_events: int      # decomposed end events (receipts, goals)
    n_primary_events: int  # everything else

    def to_text(self) -> str:
        lines = [
            f"events            {self.n_events}",
            f"  primary         {self.n_primary_events}",
            f"  decomposed ends {self.n_end_events}",
        ]
        for cls in sorted(self.events_by_class):
            lines.append(f"  class {cls:<15} {self.events_by_class[cls]}")
        for act in sorted(self.events_by_activity):
            lines.append(f"  activity {act:<24} {self.events_by_activity[act]}")
        lines.append(f"objects           {self.n_objects}")
        for t in sorted(self.objects_by_type):
            lines.append(f"  type {t:<15} {self.objects_by_type[t]}")
        lines.append(f"possessions       {self.n_possessions}")
        lines.append(f"matches           {self.n_matches}")
        return "\n".join(lines)


# the activities that close a decomposed provider row (receipts, goals)
END_ACTIVITIES = frozenset({"Pass received", "Goal"})


def stats(log: OcelLog) -> OcelStats:
    """Count events/objects per kind; an empty log yields all zeroes."""
    by_class: Counter = Counter()
    by_activity: Counter = Counter()
    n_end = 0
    for e in log.events:
        by_activity[e.etype] += 1
        by_class[e.attrs.get("event_class", "unknown")] += 1
        if e.etype in END_ACTIVITIES:
            n_end += 1
    by_type: Counter = Counter(o.otype for o in log.objects)
    return OcelStats(
        n_events=len(log.events),
        n_objects=len(log.objects),
        events_by_class=dict(by_class),
        events_by_activity=dict(by_activity),
        objects_by_type=dict(by_type),
        n_possessions=by_type.get(OBJECT_TYPE_POSSESSION, 0),
        n_matches=by_type.get(OBJECT_TYPE_MATCH, 0),
        n_end_events=n_end,
        n_primary_events=len(log.events) - n_end,
    )
