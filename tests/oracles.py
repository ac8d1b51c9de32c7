"""Reference helpers that tests compare the library against."""

from typing import Iterable, Optional

from footocel.ocel import OcelLog, _attr_schema, format_time
from footocel.spatial import GridSpec, Point, metric_distance


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


def ocel_to_dict(log: OcelLog) -> dict:
    """The log as the JSON tree write_ocel_json lays out (everything sorted).

    json.dumps(ocel_to_dict(log), indent=2, ensure_ascii=False) + "\\n" is
    the writer's text, byte for byte.
    """
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
