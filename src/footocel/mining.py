"""Object-centric directly-follows discovery and log filtering.

A filter keeps the events related to an object of one type whose
attributes match, with all their relations, and drops objects no kept
event references.

Each object induces a trace: its related events in log order, every event
counted once per object no matter how many qualifiers tie them together.
Traces are the log's own index (OcelLog.traces, built once per log by
ocel.object_traces); this module builds none.  A filter keeps the union of
the matching objects' traces.  The directly-follows graph of an object
type counts consecutive pairs in the traces of that type's objects;
start/end counts tally which activity opens/closes each non-empty trace,
so their totals both equal the number of objects that appear in at least
one event.  A requested type without objects yields an empty graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .errors import QueryError
from .ocel import OcelLog


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
            return float(query) == attr_value  # exact for an int beyond the float range
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

    # the union of the matching objects' traces, in log order
    kept = {id(e) for oid in matching for e in log.traces.get(oid, ())}
    events = [e for e in log.events if id(e) in kept]
    referenced = {oid for e in events for oid, _ in e.relations}
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
    result = OcDfg(per_type={t: DirectlyFollows() for t in object_types})
    traces = log.traces
    for o in log.objects:  # object list order keeps discovery deterministic
        g = result.per_type.get(o.otype)
        trace = traces.get(o.oid)
        if g is None or trace is None:
            continue
        g.n_objects += 1
        g.start_counts[trace[0].etype] += 1
        g.end_counts[trace[-1].etype] += 1
        g.activity_counts.update(e.etype for e in trace)
        g.edge_counts.update((a.etype, b.etype) for a, b in zip(trace, trace[1:]))
    return result
