"""Object-centric directly-follows discovery and log filtering.

A filter keeps the events related to an object of one type whose
attributes match, with all their relations, and drops objects no kept
event references.

Per object type, each object induces a trace: its related events in log
order, every event counted once per object no matter how many qualifiers
tie them together.  The directly-follows graph counts consecutive trace
pairs; start/end counts tally which activity opens/closes each non-empty
trace, so their totals both equal the number of objects that appear in at
least one event.  A requested type without objects yields an empty graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .errors import QueryError
from .ocel import OcelEvent, OcelLog


@dataclass(frozen=True)
class LogFilter:
    """Keep events related to a matching object.

    where: attribute equality conditions, all of which one object of
    object_type must satisfy for an event related to it to survive.
    """

    object_type: str
    where: tuple[tuple[str, str], ...] = ()


def _value_matches(attr_value, query: str) -> bool:
    if str(attr_value) == query:
        return True
    if isinstance(attr_value, (int, float)) and not isinstance(attr_value, bool):
        try:
            return float(query) == float(attr_value)
        except ValueError:
            return False
    return False


def filter_log(log: OcelLog, flt: LogFilter) -> OcelLog:
    """Apply a filter, dropping now-unreferenced objects.

    Unknown object types or attributes raise QueryError; event ids and
    relative order are preserved.
    """
    candidates = [o for o in log.objects if o.otype == flt.object_type]
    if not candidates:
        raise QueryError(f"no objects of type {flt.object_type!r} in the log")
    for attr, _ in flt.where:
        if not any(attr in o.attrs for o in candidates):
            raise QueryError(
                f"unknown attribute {attr!r} for object type {flt.object_type!r}"
            )
    matching = {
        o.oid for o in candidates
        if all(attr in o.attrs and _value_matches(o.attrs[attr], v) for attr, v in flt.where)
    }

    events: list[OcelEvent] = []
    referenced: set[str] = set()
    for e in log.events:
        if not any(oid in matching for oid, _ in e.relations):
            continue
        referenced.update(oid for oid, _ in e.relations)
        events.append(e)

    objects = [o for o in log.objects if o.oid in referenced]
    return OcelLog(objects=objects, events=events)


@dataclass
class DirectlyFollows:
    """One object type's directly-follows graph."""

    activity_counts: Counter = field(default_factory=Counter)
    edge_counts: Counter = field(default_factory=Counter)   # (a, b) -> count
    start_counts: Counter = field(default_factory=Counter)
    end_counts: Counter = field(default_factory=Counter)
    n_objects: int = 0  # objects of the type appearing in >= 1 event


@dataclass
class OcDfg:
    per_type: dict[str, DirectlyFollows]


def discover_ocdfg(log: OcelLog, object_types: Sequence[str]) -> OcDfg:
    """Discover one directly-follows graph per requested object type."""
    wanted = set(object_types)
    otype_of = {o.oid: o.otype for o in log.objects}
    traces: dict[str, list[str]] = {}
    for e in log.events:
        for oid in dict.fromkeys(oid for oid, _ in e.relations):  # dedupe, keep order
            if otype_of.get(oid) in wanted:
                traces.setdefault(oid, []).append(e.etype)

    result = OcDfg(per_type={t: DirectlyFollows() for t in object_types})
    for o in log.objects:  # object list order keeps discovery deterministic
        trace = traces.get(o.oid)
        if trace is None or o.otype not in wanted:
            continue
        g = result.per_type[o.otype]
        g.n_objects += 1
        g.start_counts[trace[0]] += 1
        g.end_counts[trace[-1]] += 1
        for activity in trace:
            g.activity_counts[activity] += 1
        for a, b in zip(trace, trace[1:]):
            g.edge_counts[(a, b)] += 1
    return result
