"""Reference helpers that tests compare the library against."""

import math
import struct
from datetime import datetime, timedelta
from typing import Iterable, Optional, Sequence

from footocel.errors import ConsistencyError, ParseError, read_json, shown
from footocel.ocel import (
    QUALIFIERS,
    OcelEvent,
    OcelLog,
    OcelObject,
    _json_type,
    parse_time,
)
from footocel.spatial import GridSpec, Point, cell_of, metric_distance


def path_length(points: Iterable[Optional[Point]], spec: GridSpec) -> float:
    """Metric length of a polyline over an optional-position sequence.

    Absent samples are skipped: a segment bridges the nearest present
    neighbours, so short tracking gaps do not zero out the travelled
    distance.  Fewer than two present points yield 0.
    """
    total = 0.0
    prev: Optional[Point] = None
    for p in points:
        if p is None:
            continue
        if prev is not None:
            total += metric_distance(prev, p, spec)
        prev = p
    return total


def bisected_cell_edges(spec: GridSpec) -> tuple[list[float], list[float]]:
    """spatial.cell_edges by bisecting the bit patterns of the floats in
    [0, 1] (they order as the values do) for each inner edge: the least
    float that cell_of puts past it."""
    def bits(v: float) -> int:
        return struct.unpack("<q", struct.pack("<d", v))[0]

    def value(b: int) -> float:
        return struct.unpack("<d", struct.pack("<q", b))[0]

    def edges(index, n: int) -> list[float]:
        out = [-math.inf]
        for k in range(1, n):
            lo, hi = 0, bits(1.0)  # index(0.0) = 0 < k <= n - 1 = index(1.0)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if index(value(mid)) >= k:
                    hi = mid
                else:
                    lo = mid
            out.append(value(hi))
        return out + [math.inf]

    rows = spec.rows
    return (edges(lambda x: cell_of(Point(x, 0.5), spec).col, spec.cols),
            edges(lambda y: rows - 1 - cell_of(Point(0.5, y), spec).row, rows))


def reference_format_time(dt: datetime) -> str:
    """format_time as a UTC check on utcoffset and a field-by-field format."""
    if dt.tzinfo is None or dt.utcoffset() != timedelta(0):
        raise ConsistencyError(f"event times must be UTC, got {shown(dt)}")
    return f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}.{dt.microsecond // 1000:03d}Z"


def reference_attr_schema(rows: Sequence[tuple[str, dict]]) -> dict[str, dict[str, str]]:
    """The writer's attribute schema with every value typed through _json_type."""
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
                    f"attribute {shown(name)} of {shown(type_name)} mixes {prev} and {jt} values"
                )
    return schema


def ocel_to_dict(log: OcelLog) -> dict:
    """The log as the JSON tree write_ocel_json lays out (everything sorted).

    json.dumps(ocel_to_dict(log), indent=2, ensure_ascii=False) + "\\n" is
    the writer's text, byte for byte.
    """
    object_schema = reference_attr_schema([(o.otype, o.attrs) for o in log.objects])
    event_schema = reference_attr_schema([(e.etype, e.attrs) for e in log.events])

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
                "time": reference_format_time(e.time),
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


def _echo(value) -> str:
    """A bad value as the reader's messages show it: repr, at most 80
    characters of it, then "..." if any were dropped."""
    text = repr(value)
    return text[:80] + "..." * (len(text) > 80)


def _expect_keys(obj: dict, keys: set[str], path: str) -> None:
    missing = keys - obj.keys()
    extra = obj.keys() - keys
    if missing:
        raise ParseError(f"{path}: missing key(s) {sorted(missing)}")
    if extra:
        raise ParseError(f"{path}: unexpected key(s) {_echo(sorted(extra))}")


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
            raise ParseError(f"{path}.name: duplicate type {_echo(name)}")
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
                raise ParseError(f"{apath}.type: unsupported type {_echo(attr['type'])}")
            if attr["name"] in attrs:
                raise ParseError(f"{apath}.name: duplicate attribute {_echo(attr['name'])}")
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
            raise ParseError(f"{apath}.name: undeclared attribute {_echo(name)}")
        declared = schema[name]
        try:
            actual = _json_type(name, value) if isinstance(value, (bool, int, float, str)) else None
        except ConsistencyError:  # a number beyond the float range reads as inf
            actual = None
        if actual is None or (actual != declared and not (actual == "integer" and declared == "float")):
            raise ParseError(f"{apath}.value: expected {declared}, got {_echo(value)}")
        if name in attrs:
            raise ParseError(f"{apath}.name: duplicate attribute {_echo(name)}")
        attrs[name] = value
    return attrs


def reference_read_ocel(path) -> OcelLog:
    """read_ocel_json written as one hand-coded loop per array, for comparison.

    Each array repeats the array, object and exact-key checks, and each
    attribute value is typed through the writer's _json_type.  Its results
    and ParseError messages are what read_ocel_json must give.
    """
    data = read_json(path)
    try:
        return _log_from_dict(data)
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
            raise ParseError(f"{path}.id: duplicate object id {_echo(oid)}")
        if not isinstance(otype, str) or otype not in object_schema:
            raise ParseError(f"{path}.type: undeclared object type {_echo(otype)}")
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
            raise ParseError(f"{path}.id: duplicate event id {_echo(eid)}")
        if not isinstance(etype, str) or etype not in event_schema:
            raise ParseError(f"{path}.type: undeclared event type {_echo(etype)}")
        if not isinstance(entry["time"], str):
            raise ParseError(f"{path}.time: expected a string")
        try:
            time = parse_time(entry["time"])
        except ParseError as exc:  # the library's parse_time leaves the path to its caller
            raise ParseError(f"{path}.time: {exc}") from None
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
                raise ParseError(f"{rpath}.objectId: unknown object {_echo(oid)}")
            if not isinstance(qualifier, str) or qualifier not in QUALIFIERS:
                raise ParseError(f"{rpath}.qualifier: unknown qualifier {_echo(qualifier)}")
            rels.append((oid, qualifier))
        key = (time, eid)
        if prev_key is not None and key < prev_key:
            raise ParseError(f"{path}: events not sorted by (time, id)")
        prev_key = key
        events.append(OcelEvent(eid, etype, time, attrs, tuple(rels)))
        eids.add(eid)

    return OcelLog(objects=objects, events=events)
