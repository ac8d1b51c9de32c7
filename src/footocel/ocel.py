"""Object-centric event log model plus its JSON serialization.

The on-disk format follows the object-centric event log JSON layout: four
top-level arrays (objectTypes, eventTypes, objects, events); every event
carries qualified relationships [{objectId, qualifier}]; timestamps are
ISO-8601 UTC with millisecond precision.  Reading back a written log
reproduces the in-memory value exactly.

Logs are read and written as UTF-8.  The writer formats the indent-2 text
itself, the bytes json.dump(indent=2, ensure_ascii=False) would give, and
streams it one object or event at a time rather than building a tree of the
whole log.  It formats each repeated fragment once per call: a relationship,
a non-float attribute, and a float attribute's text up to its value.  Nothing
is kept between calls.  Every check of a write runs before the file is opened,
so a log that cannot be written leaves an existing file as it was.

The reader holds the file text and the log it builds, but no JSON tree: it
decodes the three small sections whole, then reads the events one at a time,
each checked and converted before the next is decoded.  The log shares
repeated values: one relation tuple per (object id, qualifier) on the object's
own id string, the schema's string for each event type, and one string per
distinct attribute name and string value.  Any other top-level layout, and
any error (bad UTF-8 or JSON, NaN, nesting too deep, a failed check), takes
the whole-tree path: json.load, then the same checks.  So every message, and
which one wins, is that of a whole-document parse: a JSON syntax error
anywhere beats every check.

The reader checks the JSON in document order.  Every array entry
must be an object with exactly its layout's keys, ids and type names must be
non-empty and unique, attribute values must match their declared type (an
integer of any size is a valid float; a float literal beyond the float
range, such as 1e999, is not),
relationships must name a known object and qualifier, and events must be
sorted by (time, id).  Each rule of an object or event entry is checked
once, and a JSON path is formatted only for the violation raised.  An
attributes or relationships array is checked in bulk; one that fails is
walked again check by check, which raises its first violation with its path.

A log is a frozen value: its objects and events are tuples, and every
event's relations a tuple.  On first use it builds its object index and
its trace index, each object id's related events in log order, which
object_traces, the one trace builder, makes; mining's filters and graphs
read that index, and render's possession view runs object_traces on
its plotted events.  A log made from another by dataclasses.replace is a
new value and builds its own indexes.

Object universe per converted match bundle: the match itself, both teams,
all rostered players, one ball, every grid cell and one object per
possession span.  Team/player/ball/grid identities are either shared
across matches (global scope, the default) or namespaced per match, with a
"match" attribute.  grid_from_log reads the grid back from the grid
objects' column and row.

build_objects and events_to_ocel each take every match at once, in load
order.  events_to_ocel places match i at match_epoch(i), a day after match
i - 1, names the events of all matches in one sequence, and refuses an
event earlier than the one wired before it, from whichever match.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import cached_property
from typing import Sequence

from .derive import BALL, EVENT_CLASSES, ActivityEvent
from .errors import ConsistencyError, ParseError, QueryError, read_json, shown
from .possession import PossessionSpan
from .spatial import MAX_GRID_ROWS, GridSpec, cell_label

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


@dataclass(frozen=True)
class OcelLog:
    """An immutable log: objects and events are tuples, so the object and
    trace indexes built on first use stay true for the log's lifetime."""

    objects: tuple[OcelObject, ...]
    events: tuple[OcelEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "events", tuple(self.events))

    @cached_property
    def object_index(self) -> dict[str, OcelObject]:
        """Object id -> object."""
        return {o.oid: o for o in self.objects}

    @cached_property
    def traces(self) -> dict[str, tuple[OcelEvent, ...]]:
        """Object id -> its trace (object_traces of the log's events)."""
        return object_traces(self.events)


def object_traces(events: Sequence[OcelEvent]) -> dict[str, tuple[OcelEvent, ...]]:
    """Object id -> its related events in the given order, each event once
    however many qualifiers tie it to the object; keys in order of first event."""
    traces: dict[str, list[OcelEvent]] = {}
    for e in events:
        for oid, _ in e.relations:
            trace = traces.get(oid)
            if trace is None:
                traces[oid] = [e]
            elif trace[-1] is not e:  # a second qualifier of the same event
                trace.append(e)
    return {oid: tuple(trace) for oid, trace in traces.items()}


def match_epoch(match_index: int) -> datetime:
    return EPOCH_BASE + timedelta(days=match_index)


def event_time(epoch: datetime, time_s: float) -> datetime:
    """Absolute UTC instant of a match-clock offset, quantized to 1 ms."""
    dt = epoch + timedelta(seconds=time_s)
    ms = round(dt.microsecond / 1000)
    return dt.replace(microsecond=0) + timedelta(milliseconds=ms)


def format_time(dt: datetime) -> str:
    # isoformat writes a zero offset as "+00:00" and no offset for a naive
    # time or a None offset, so the suffix is the UTC check
    text = dt.isoformat(timespec="milliseconds")
    if not text.endswith("+00:00"):
        raise ConsistencyError(f"event times must be UTC, got {shown(dt)}")
    return text[:-6] + "Z"


def parse_time(text: str) -> datetime:
    """The UTC instant of an ISO-8601 time with an offset; errors carry no location."""
    normalized = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        dt = datetime.fromisoformat(normalized)
    except ValueError:
        raise ParseError(f"invalid ISO-8601 time {shown(text)}") from None
    if dt.tzinfo is None:
        raise ParseError(f"time {shown(text)} lacks a UTC offset")
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:  # a UTC instant before year 1 or after year 9999
        raise ParseError(f"time {shown(text)} out of range") from None


def scoped_id(scope: IdentityScope, match_id: str, base: str) -> str:
    return base if scope is IdentityScope.GLOBAL else f"{match_id}:{base}"


def build_objects(
    matches: Sequence[tuple[str, dict[str, tuple[str, ...]], Sequence[PossessionSpan]]],
    spec: GridSpec,
    scope: IdentityScope = IdentityScope.GLOBAL,
) -> list[OcelObject]:
    """Materialize the object universe of a set of matches: (match id, its
    side -> labels roster, its possession spans) triples in load order, the
    order that fixes each match's synthetic kickoff date."""
    objects: dict[str, OcelObject] = {}

    def add(obj: OcelObject) -> None:
        existing = objects.get(obj.oid)
        if existing is not None:
            if existing != obj:
                if OBJECT_TYPE_MATCH in (existing.otype, obj.otype):
                    other = existing.otype if obj.otype == OBJECT_TYPE_MATCH else obj.otype
                    raise ConsistencyError(
                        f"match id {shown(obj.oid)} is also the id of a {other} object"
                    )
                raise ConsistencyError(f"conflicting definitions for object {shown(obj.oid)}")
            return
        objects[obj.oid] = obj

    def add_scoped(match_id: str, base: str, otype: str, attrs: dict) -> None:
        """A team, player, ball or grid object; a per-match one also names its match."""
        if scope is IdentityScope.PER_MATCH:
            attrs["match"] = match_id
        add(OcelObject(scoped_id(scope, match_id, base), otype, attrs))

    for index, (match_id, rosters, spans) in enumerate(matches):
        add(OcelObject(match_id, OBJECT_TYPE_MATCH, {
            "kickoff": format_time(match_epoch(index)),
        }))
        for side in sorted(rosters):
            add_scoped(match_id, side, OBJECT_TYPE_TEAM, {"side": side})
            for label in rosters[side]:
                add_scoped(match_id, label, OBJECT_TYPE_PLAYER, {"side": side})
        add_scoped(match_id, "ball", OBJECT_TYPE_BALL, {})
        for cell in spec.all_cells():
            label = cell_label(cell)
            add_scoped(match_id, label, OBJECT_TYPE_GRID, {"column": label[0], "row": cell.row + 1})
        for span in spans:
            add(OcelObject(span.span_id, OBJECT_TYPE_POSSESSION, {
                "team": span.team,
                "outcome": span.outcome,
                "period": span.period,
                "start_time_s": span.start_time_s,
                "end_time_s": span.end_time_s,
                "match": match_id,
            }))

    return sorted(objects.values(), key=lambda o: (o.otype, o.oid))


def grid_from_log(log: OcelLog) -> GridSpec:
    """The grid of the log's grid objects' column and row (default grid if none)."""
    cols = rows = 0
    for o in log.objects:
        if o.otype == OBJECT_TYPE_GRID:
            column, row = o.attrs.get("column", "A"), o.attrs.get("row", 1)
            if not (isinstance(column, str) and len(column) == 1 and "A" <= column <= "Z"
                    and type(row) is int and 1 <= row <= MAX_GRID_ROWS):
                raise QueryError(f"grid object {shown(o.oid)} has no grid address "
                                 f"(column {shown(column)}, row {shown(row)})")
            cols = max(cols, ord(column) - ord("A") + 1)
            rows = max(rows, row)
    return GridSpec(cols=cols, rows=rows) if cols and rows else GridSpec()


# the attrs key each cell relation's label is read from, in relation order
_CELL_RELATIONS = (("cell", "at_cell"), ("from_cell", "from_cell"), ("to_cell", "to_cell"))


def events_to_ocel(
    matches: Sequence[tuple[str, Sequence[ActivityEvent]]],
    scope: IdentityScope,
) -> list[OcelEvent]:
    """Wire every match's enriched activity events to their objects and name them.

    matches pairs each match id with its enriched events, in load order;
    match i is placed at match_epoch(i).  Every event relates to its match;
    team, players (with their role qualifier), possession and grid cell(s)
    follow when known; ball-class events additionally relate to the ball
    object.  The events keep their input order.  This is the one place
    events are named: the log's events form one sequence, zero-padded to the
    width of their total; reruns over identical input produce identical ids.
    Once an event passes its checks, "period" and "event_class" go into its
    own attrs dict, which its OcelEvent takes: a refused event is unchanged.

    Each event is checked in turn, and the first failure raises
    ConsistencyError: an unknown event class; a time out of the calendar's
    range or a non-finite float attribute, naming the match, period, time,
    activity and executing player; an event earlier than the one wired
    before it, naming both.  Within a match that is a period's clock that
    restarts; across matches, a match that does not end before the next,
    a day later, begins.
    """
    width = max(6, len(str(sum(len(events) for _, events in matches))))
    out: list[OcelEvent] = []
    for index, (match_id, events) in enumerate(matches):
        epoch = match_epoch(index)
        for e in events:
            if e.event_class not in EVENT_CLASSES:
                raise ConsistencyError(f"unknown event class {shown(e.event_class)}")
            rels: list[tuple[str, str]] = [(match_id, "match")]
            if e.team is not None:
                rels.append((scoped_id(scope, match_id, e.team), "team"))
            for player, role in zip(e.players, e.roles):
                rels.append((scoped_id(scope, match_id, player), role))
            possession_id = e.attrs.get("possession_id")
            if possession_id is not None:
                rels.append((possession_id, "possession"))
            for key, qualifier in _CELL_RELATIONS:
                label = e.attrs.get(key)
                if label is not None:
                    rels.append((scoped_id(scope, match_id, label), qualifier))
            if e.event_class == BALL:
                rels.append((scoped_id(scope, match_id, "ball"), "ball"))

            try:
                time = event_time(epoch, e.time_s)
            except OverflowError:
                problem = "time out of the calendar's range"
            else:
                problem = next((f"attribute {shown(name)} has non-finite value {shown(value)}"
                                for name, value in e.attrs.items()
                                if isinstance(value, float) and not math.isfinite(value)), None)
            if problem is not None:
                who = f" by {shown(e.players[0])}" if e.players else ""
                raise ConsistencyError(
                    f"match {shown(match_id)}: period {e.period} time {e.time_s} s: "
                    f"{shown(e.activity)}{who}: {problem}")
            if out and time < out[-1].time:
                if last_index == index:
                    where, rule = "", "each period's clock must continue from the one before"
                else:
                    where = f" of match {shown(matches[last_index][0])}"
                    rule = "matches lie a day apart, so each must end before the next begins"
                raise ConsistencyError(
                    f"match {shown(match_id)}: period {e.period} time {e.time_s} s comes before "
                    f"period {last.period} time {last.time_s} s{where}; {rule}")
            e.attrs["period"] = e.period
            e.attrs["event_class"] = e.event_class
            out.append(OcelEvent(
                eid=f"e{len(out) + 1:0{width}d}",
                etype=e.activity,
                time=time,
                attrs=e.attrs,
                relations=tuple(rels),
            ))
            last_index, last = index, e  # the match and source of out[-1]
    return out


def concat_logs(objects: list[OcelObject], events: Sequence[OcelEvent]) -> OcelLog:
    """Assemble the final log from the objects and the named events, and validate it."""
    log = OcelLog(objects=objects, events=events)
    validate_log(log)
    return log


def validate_log(log: OcelLog) -> None:
    """Check referential integrity and ordering invariants; raise on violation."""
    seen_objects: set[str] = set()
    for o in log.objects:
        if o.oid in seen_objects:
            raise ConsistencyError(f"duplicate object id {shown(o.oid)}")
        seen_objects.add(o.oid)
        if o.otype not in OBJECT_TYPES:
            raise ConsistencyError(f"object {shown(o.oid)} has unknown type {shown(o.otype)}")
    seen_events: set[str] = set()
    prev_key = None
    for e in log.events:
        if e.eid in seen_events:
            raise ConsistencyError(f"duplicate event id {shown(e.eid)}")
        seen_events.add(e.eid)
        key = (e.time, e.eid)
        if prev_key is not None and key < prev_key:
            raise ConsistencyError(f"event {shown(e.eid)} breaks (time, id) ordering")
        prev_key = key
        if not e.relations:
            raise ConsistencyError(f"event {shown(e.eid)} relates to no objects")
        for oid, qualifier in e.relations:
            if oid not in seen_objects:
                raise ConsistencyError(
                    f"event {shown(e.eid)} references unknown object {shown(oid)}")
            if qualifier not in QUALIFIERS:
                raise ConsistencyError(
                    f"event {shown(e.eid)} uses unknown qualifier {shown(qualifier)}")


def _json_type(name: str, value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        if not math.isfinite(value):  # NaN and infinities are not JSON
            raise ConsistencyError(f"attribute {shown(name)} has non-finite value {shown(value)}")
        return "float"
    if isinstance(value, str):
        return "string"
    raise ConsistencyError(f"attribute {shown(name)} has unsupported value {shown(value)}")


# each JSON type -> the exact Python type of a value that keeps it, unchecked
_BUCKET_TYPES = {"boolean": bool, "integer": int, "float": float, "string": str}


def _attr_schema(rows: Sequence[tuple[str, dict]]) -> dict[str, dict[str, str]]:
    """Per type: attribute name -> JSON type, ints promoting to float on mix.

    A value whose exact type is that of its name's bucket so far (a float one
    also finite) keeps the bucket as it is; every other goes through _json_type.
    """
    schema: dict[str, dict[str, str]] = {}
    for type_name, attrs in rows:
        bucket = schema.setdefault(type_name, {})
        for name, value in attrs.items():
            prev = bucket.get(name)
            kind = type(value)
            if kind is _BUCKET_TYPES.get(prev) and (kind is not float or math.isfinite(value)):
                continue
            jt = _json_type(name, value)
            if prev is None or prev == jt:
                bucket[name] = jt
            elif {prev, jt} == {"integer", "float"}:
                bucket[name] = "float"
            else:
                raise ConsistencyError(
                    f"attribute {shown(name)} of {shown(type_name)} mixes {prev} and {jt} values"
                )
    return schema


# the layout json.dump(..., indent=2, ensure_ascii=False) gives the log, written
# directly.  Every entry of the four top-level arrays sits at depth 2 and every
# two-key object in an entry's arrays at depth 4, so each indent is a constant:
_ENTRY = "\n    {\n      "  # opens a top-level array entry, before its first key
_PAIR = "\n        {\n          "  # opens an attribute, type attribute or relationship
_PAIR_KEY = ",\n          "  # between the two keys of such an object
_PAIR_END = "\n        }"
_encode_str = json.encoder.encode_basestring  # the C escaper ensure_ascii=False uses


def _value_text(value) -> str:
    """A checked non-float attribute value (see _json_type) as json.dumps writes it."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    return int.__repr__(value)


def _array_text(items: list[str]) -> str:
    """An entry's array of formatted objects; [] when empty, as json.dumps."""
    return "[" + ",".join(items) + "\n      ]" if items else "[]"


def _type_entries(schema: dict[str, dict[str, str]]):
    """The entries of the objectTypes or eventTypes array."""
    for name in sorted(schema):
        yield f'{_ENTRY}"name": {_encode_str(name)},\n      "attributes": ' + _array_text([
            f'{_PAIR}"name": {_encode_str(a)}{_PAIR_KEY}"type": "{t}"{_PAIR_END}'
            for a, t in sorted(schema[name].items())
        ]) + "\n    }"


def _write_array(fh, entries) -> None:
    """Stream a top-level array, one write per formatted entry."""
    entries = iter(entries)
    first = next(entries, None)
    if first is None:
        fh.write("[]")
        return
    fh.write("[" + first)
    for entry in entries:
        fh.write("," + entry)
    fh.write("\n  ]")


def write_ocel_json(log: OcelLog, path) -> None:
    """Write the log as UTF-8 JSON, objects and events streamed one at a time.

    The bytes are those of json.dump(tree, indent=2, ensure_ascii=False) plus
    a final newline, where the tree is the log's four arrays: type sections
    sorted by name, attributes sorted by name, objects, events and
    relationships in log order.  Every check runs before path is opened (the
    attribute schema with its refusal of NaN, infinities and unsupported
    values, and each event time's UTC check), so a log that cannot be
    written leaves path untouched.

    Each repeated fragment is formatted once per call: the text of each
    relationship, of each non-float attribute, and the head of each float
    attribute up to its value.  Nothing is kept between calls.
    """
    object_schema = _attr_schema([(o.otype, o.attrs) for o in log.objects])
    event_schema = _attr_schema([(e.etype, e.attrs) for e in log.events])
    times = [format_time(e.time) for e in log.events]
    # the type is in the key: True == 1 and hashes alike, but is written true
    pair_texts: dict[tuple, str] = {}  # (name, value, type) -> attribute text
    float_heads: dict[str, str] = {}  # name -> a float attribute's text before its value
    relation_texts: dict[tuple[str, str], str] = {}  # (object id, qualifier) -> its text

    def attrs_text(attrs: dict) -> str:
        items = []
        for name, value in sorted(attrs.items()):
            if isinstance(value, float):
                head = float_heads.get(name)
                if head is None:
                    head = float_heads[name] = (f'{_PAIR}"name": {_encode_str(name)}{_PAIR_KEY}'
                                                '"value": ')
                items.append(head + float.__repr__(value) + _PAIR_END)
                continue
            key = (name, value, type(value))
            text = pair_texts.get(key)
            if text is None:
                text = pair_texts[key] = (f'{_PAIR}"name": {_encode_str(name)}{_PAIR_KEY}'
                                          f'"value": {_value_text(value)}{_PAIR_END}')
            items.append(text)
        return _array_text(items)

    def relations_text(relations: tuple[tuple[str, str], ...]) -> str:
        items = []
        for rel in relations:
            text = relation_texts.get(rel)
            if text is None:
                oid, qualifier = rel
                text = relation_texts[rel] = (f'{_PAIR}"objectId": {_encode_str(oid)}{_PAIR_KEY}'
                                              f'"qualifier": {_encode_str(qualifier)}{_PAIR_END}')
            items.append(text)
        return _array_text(items)

    objects = (
        f'{_ENTRY}"id": {_encode_str(o.oid)},\n      "type": {_encode_str(o.otype)},'
        f'\n      "attributes": {attrs_text(o.attrs)}\n    }}'
        for o in log.objects
    )
    events = (
        f'{_ENTRY}"id": {_encode_str(e.eid)},\n      "type": {_encode_str(e.etype)},'
        f'\n      "time": "{time}",\n      "attributes": {attrs_text(e.attrs)},'
        f'\n      "relationships": {relations_text(e.relations)}\n    }}'
        for e, time in zip(log.events, times)
    )
    sections = {
        "objectTypes": _type_entries(object_schema),
        "eventTypes": _type_entries(event_schema),
        "objects": objects,
        "events": events,
    }
    with open(path, "w", encoding="utf-8") as fh:
        sep = "{"
        for key, entries in sections.items():
            fh.write(f'{sep}\n  "{key}": ')
            _write_array(fh, entries)
            sep = ","
        fh.write("\n}\n")


# each declared attribute type -> the types json.load gives its values, matched
# exactly (a bool is no integer); an integer is a valid float, inf (1e999) is not
_VALUE_TYPES = {"string": (str,), "integer": (int,), "float": (float, int), "boolean": (bool,)}
_INFINITIES = (math.inf, -math.inf)


_OBJECT_KEYS = {"id", "type", "attributes"}
_EVENT_KEYS = {"id", "type", "time", "attributes", "relationships"}


def _keys_problem(obj, keys: set[str]) -> str | None:
    """Why obj is not a JSON object with exactly keys, or None if it is."""
    if not isinstance(obj, dict):
        return "expected an object"
    if obj.keys() == keys:
        return None
    missing = keys - obj.keys()
    if missing:
        return f"missing key(s) {sorted(missing)}"
    return f"unexpected key(s) {shown(sorted(obj.keys() - keys))}"


def _id_problem(value, seen, what: str) -> str | None:
    """Why value is not a non-empty string absent from seen, or None."""
    if not isinstance(value, str) or not value:
        return "expected a non-empty string"
    if value in seen:
        return f"duplicate {what} {shown(value)}"
    return None


def _entries(value, path: str, keys: set[str]):
    """Yield (path, entry) for each entry of a JSON array of objects with exactly keys."""
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array")
    for i, entry in enumerate(value):
        entry_path = f"{path}[{i}]"
        if problem := _keys_problem(entry, keys):
            raise ParseError(f"{entry_path}: {problem}")
        yield entry_path, entry


def _read_type_section(data, key: str) -> dict[str, dict[str, str]]:
    schema: dict[str, dict[str, str]] = {}
    for path, entry in _entries(data[key], f"$.{key}", {"name", "attributes"}):
        name = entry["name"]
        if problem := _id_problem(name, schema, "type"):
            raise ParseError(f"{path}.name: {problem}")
        attrs: dict[str, str] = {}
        for apath, attr in _entries(entry["attributes"], f"{path}.attributes", {"name", "type"}):
            aname, atype = attr["name"], attr["type"]
            if not isinstance(aname, str):
                raise ParseError(f"{apath}.name: expected a string")
            if not isinstance(atype, str) or atype not in _VALUE_TYPES:
                raise ParseError(f"{apath}.type: unsupported type {shown(atype)}")
            if aname in attrs:
                raise ParseError(f"{apath}.name: duplicate attribute {shown(aname)}")
            attrs[aname] = atype
        schema[name] = attrs
    return schema


# An attributes or relationships array is read in two passes.  The bulk pass
# builds no JSON path; it accepts only what the walk accepts, and refuses any
# other array by returning None, also where indexing an entry of a wrong JSON
# kind or without a key raises.  A refused array is walked entry by entry,
# which raises its first violation with its path; the walk's result stands.
def _bulk_attributes(array, value_types: dict[str, tuple]) -> dict | None:
    if type(array) is not list:
        return None
    try:
        attrs = {a["name"]: a["value"] for a in array}
        # a repeated name shrinks attrs; a key beyond name and value grows the sum
        if len(attrs) != len(array) or sum(map(len, array)) != 2 * len(array):
            return None
        for name, value in attrs.items():
            if type(value) not in value_types[name] or value in _INFINITIES:
                return None
    except (KeyError, TypeError):
        return None
    return attrs


def _read_attributes(array, schema: dict[str, str], path: str) -> dict:
    attrs: dict = {}
    for apath, attr in _entries(array, path, {"name", "value"}):
        name, value = attr["name"], attr["value"]
        if not isinstance(name, str) or name not in schema:
            raise ParseError(f"{apath}.name: undeclared attribute {shown(name)}")
        if type(value) not in _VALUE_TYPES[schema[name]] or value in _INFINITIES:
            raise ParseError(f"{apath}.value: expected {schema[name]}, got {shown(value)}")
        if name in attrs:
            raise ParseError(f"{apath}.name: duplicate attribute {shown(name)}")
        attrs[name] = value
    return attrs


def _bulk_relationships(array, objects, shared) -> tuple[tuple[str, str], ...] | None:
    """shared maps each (object id, qualifier) pair already accepted to its one
    relation tuple, built on the object's own id string; new pairs join it."""
    if type(array) is not list:
        return None
    try:
        if sum(map(len, array)) != 2 * len(array):
            return None
        pairs = [(r["objectId"], r["qualifier"]) for r in array]
        for pair in pairs:
            if pair not in shared:
                oid, qualifier = pair
                if oid not in objects or qualifier not in QUALIFIERS:
                    return None
                shared[pair] = (objects[oid].oid, qualifier)
    except (KeyError, TypeError):
        return None
    return tuple([shared[pair] for pair in pairs])


def _read_relationships(array, objects, path: str) -> tuple[tuple[str, str], ...]:
    rels: list[tuple[str, str]] = []
    for rpath, rel in _entries(array, path, {"objectId", "qualifier"}):
        oid, qualifier = rel["objectId"], rel["qualifier"]
        if not isinstance(oid, str) or oid not in objects:
            raise ParseError(f"{rpath}.objectId: unknown object {shown(oid)}")
        if not isinstance(qualifier, str) or qualifier not in QUALIFIERS:
            raise ParseError(f"{rpath}.qualifier: unknown qualifier {shown(qualifier)}")
        rels.append((oid, qualifier))
    return tuple(rels)


def _value_types(schema: dict[str, dict[str, str]]) -> dict[str, dict[str, tuple]]:
    """Per type: attribute name -> the Python types its values may have."""
    return {t: {a: _VALUE_TYPES[k] for a, k in attrs.items()} for t, attrs in schema.items()}


def _read_objects(array, schema) -> dict[str, OcelObject]:
    if not isinstance(array, list):
        raise ParseError("$.objects: expected an array")
    value_types = _value_types(schema)
    objects: dict[str, OcelObject] = {}
    for i, entry in enumerate(array):
        if problem := _keys_problem(entry, _OBJECT_KEYS):
            raise ParseError(f"$.objects[{i}]: {problem}")
        oid, otype = entry["id"], entry["type"]
        if problem := _id_problem(oid, objects, "object id"):
            raise ParseError(f"$.objects[{i}].id: {problem}")
        if not isinstance(otype, str) or otype not in schema:
            raise ParseError(f"$.objects[{i}].type: undeclared object type {shown(otype)}")
        attrs = _bulk_attributes(entry["attributes"], value_types[otype])
        if attrs is None:
            attrs = _read_attributes(entry["attributes"], schema[otype],
                                     f"$.objects[{i}].attributes")
        objects[oid] = OcelObject(oid, otype, attrs)
    return objects


def _read_events(entries, schema, objects) -> tuple[OcelEvent, ...]:
    """Check the events entries one at a time, in document order, and build
    their events, which share repeated values as the module docstring says."""
    value_types = _value_types(schema)
    etypes = {name: name for name in schema}
    relations: dict = {}
    share = {}.setdefault
    events: dict[str, OcelEvent] = {}
    prev_key = None
    for i, entry in enumerate(entries):
        if problem := _keys_problem(entry, _EVENT_KEYS):
            raise ParseError(f"$.events[{i}]: {problem}")
        eid, etype, text = entry["id"], entry["type"], entry["time"]
        if problem := _id_problem(eid, events, "event id"):
            raise ParseError(f"$.events[{i}].id: {problem}")
        if not isinstance(etype, str) or etype not in schema:
            raise ParseError(f"$.events[{i}].type: undeclared event type {shown(etype)}")
        if not isinstance(text, str):
            raise ParseError(f"$.events[{i}].time: expected a string")
        try:
            time = parse_time(text)
        except ParseError as exc:
            raise ParseError(f"$.events[{i}].time: {exc}") from None
        attrs = _bulk_attributes(entry["attributes"], value_types[etype])
        rels = _bulk_relationships(entry["relationships"], objects, relations)
        if attrs is None or rels is None:
            path = f"$.events[{i}]"
            attrs = _read_attributes(entry["attributes"], schema[etype], f"{path}.attributes")
            rels = _read_relationships(entry["relationships"], objects, f"{path}.relationships")
        key = (time, eid)
        if prev_key is not None and key < prev_key:
            raise ParseError(f"$.events[{i}]: events not sorted by (time, id)")
        prev_key = key
        attrs = {share(k, k): share(v, v) if type(v) is str else v for k, v in attrs.items()}
        events[eid] = OcelEvent(eid, etypes[etype], time, attrs, rels)
    return tuple(events.values())


def read_ocel_json(path) -> OcelLog:
    """Load and check a log.  The first violation in document order is raised as
    a ParseError naming the file and a JSON path such as $.events[3].time.

    It holds the file text and the log, but no JSON tree: after the three
    small sections, decoded whole, the events are read one at a time, and the
    log shares repeated object ids, qualifiers and strings.  Any other
    top-level layout, and any error at all, takes the whole-tree path
    (read_json, then the same checks), so the messages and the order in
    which they take precedence are those of a whole-document parse.
    """
    log = _streamed_log(path)
    return _whole_tree_log(path) if log is None else log


_SECTIONS = ("objectTypes", "eventTypes", "objects")
_skip_ws = json.decoder.WHITESPACE.match


def _not_a_number(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _streamed_log(path) -> OcelLog | None:
    """The log of a file laid out as the three sections, in any order, then
    a final events array; None for any other layout or any error.  A section
    given twice keeps its last value, as json.load keeps it; an events key
    before the last section, or events given twice, is another layout."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        decode = json.JSONDecoder(parse_constant=_not_a_number).raw_decode
        pos = _skip_ws(text).end()
        if not text.startswith("{", pos):
            return None
        sections: dict = {}
        while True:
            key, pos = decode(text, _skip_ws(text, pos + 1).end())
            pos = _skip_ws(text, pos).end()
            if not text.startswith(":", pos):
                return None
            pos = _skip_ws(text, pos + 1).end()
            if key == "events" and len(sections) == 3:
                break
            if key not in _SECTIONS:
                return None
            sections[key], pos = decode(text, pos)
            pos = _skip_ws(text, pos).end()
            if not text.startswith(",", pos):
                return None
        if not text.startswith("[", pos):
            return None
        object_schema = _read_type_section(sections, "objectTypes")
        event_schema = _read_type_section(sections, "eventTypes")
        objects = _read_objects(sections.pop("objects"), object_schema)
        events = _read_events(_last_array_entries(text, pos + 1, decode), event_schema, objects)
    except (OSError, ValueError, RecursionError):  # bad UTF-8 or JSON, or a failed check
        return None
    return OcelLog(objects=tuple(objects.values()), events=events)


def _last_array_entries(text: str, pos: int, decode):
    """Decode the entries of the array opened just before pos, one at a time.
    After the last, raise ValueError unless only the document's closing brace
    and whitespace follow the array."""
    pos = _skip_ws(text, pos).end()
    if not text.startswith("]", pos):
        while True:
            entry, pos = decode(text, pos)
            yield entry
            pos = _skip_ws(text, pos).end()
            if text.startswith("]", pos):
                break
            if not text.startswith(",", pos):
                raise ValueError("expected ',' or ']'")
            pos = _skip_ws(text, pos + 1).end()
    pos = _skip_ws(text, pos + 1).end()
    if not text.startswith("}", pos) or _skip_ws(text, pos + 1).end() != len(text):
        raise ValueError("expected the document to end after the events array")


def _whole_tree_log(path) -> OcelLog:
    data = read_json(path)
    try:
        return _log_from_dict(data)
    except ParseError as exc:
        raise ParseError(str(exc), source=str(path)) from None


def _log_from_dict(data) -> OcelLog:
    if not isinstance(data, dict):
        raise ParseError("$: expected a top-level object")
    if problem := _keys_problem(data, {"objectTypes", "eventTypes", "objects", "events"}):
        raise ParseError(f"$: {problem}")
    object_schema = _read_type_section(data, "objectTypes")
    event_schema = _read_type_section(data, "eventTypes")
    objects = _read_objects(data["objects"], object_schema)
    if not isinstance(data["events"], list):
        raise ParseError("$.events: expected an array")
    events = _read_events(data["events"], event_schema, objects)
    return OcelLog(objects=tuple(objects.values()), events=events)


@dataclass(frozen=True)
class OcelStats:
    """Size and composition summary of a log."""

    n_events: int
    n_objects: int
    events_by_class: dict
    events_by_activity: dict
    objects_by_type: dict

    def to_text(self) -> str:
        lines = [f"events            {self.n_events}"]
        for cls in sorted(self.events_by_class):
            lines.append(f"  class {cls:<15} {self.events_by_class[cls]}")
        for act in sorted(self.events_by_activity):
            lines.append(f"  activity {act:<24} {self.events_by_activity[act]}")
        lines.append(f"objects           {self.n_objects}")
        for t in sorted(self.objects_by_type):
            lines.append(f"  type {t:<15} {self.objects_by_type[t]}")
        lines.append(f"possessions       {self.objects_by_type.get(OBJECT_TYPE_POSSESSION, 0)}")
        lines.append(f"matches           {self.objects_by_type.get(OBJECT_TYPE_MATCH, 0)}")
        return "\n".join(lines)


def stats(log: OcelLog) -> OcelStats:
    """Count events/objects per kind; an empty log yields all zeroes."""
    by_class: Counter = Counter()
    by_activity: Counter = Counter()
    for e in log.events:
        by_activity[e.etype] += 1
        by_class[e.attrs.get("event_class", "unknown")] += 1
    return OcelStats(
        n_events=len(log.events),
        n_objects=len(log.objects),
        events_by_class=dict(by_class),
        events_by_activity=dict(by_activity),
        objects_by_type=dict(Counter(o.otype for o in log.objects)),
    )
