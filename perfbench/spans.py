"""Span recording around footocel's layer entry points, for traced runs.

install() replaces each target function, wherever a footocel module has
bound it, with a wrapper that records a span (run id, name, start, end,
parent span) and, for some functions, counts taken from the arguments or
the result.  Spans stay in memory until dump() writes them out.

layer_metrics() turns the spans and counts of one traced pass of a
workload into the per-layer metrics.  A target that no longer exists is
reported as missing, and every metric that depends on it is left out.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter


def _tracking_counts(counts, args, result):
    counts["ingest.frames"] += len(result)
    for frame in result:
        for p in frame.positions.values():
            if p is None:
                counts["ingest.untracked_samples"] += 1
            else:
                counts["ingest.player_samples"] += 1


def _log_counts(counts, args, result):
    # set, not add: one pass reads the same log however often it reads it
    counts["ocel.events"] = len(result.events)
    counts["ocel.objects"] = len(result.objects)
    counts["ocel.relations"] = sum(len(e.relations) for e in result.events)
    counts["ocel.log_mb"] = os.path.getsize(args[0]) / 1e6


def _dfg_counts(counts, args, result):
    for g in result.per_type.values():
        counts["mining.traces"] += g.n_objects
        counts["mining.edges"] += len(g.edge_counts)


def _add(key, value=lambda args, result: len(result)):
    def hook(counts, args, result):
        counts[key] += value(args, result)
    return hook


# (module, function, count hook); the public functions footocel.pipeline
# imports, the ingest steps load_match runs, and the ocel, mining and
# render entry points the cli calls
TARGETS = [
    ("footocel.pipeline", "convert_matches", None),
    ("footocel.pipeline", "convert_one", _add("pipeline.matches", lambda a, r: 1)),
    ("footocel.ingest", "load_match",
     _add("ingest.input_mb", lambda a, r: sum(os.path.getsize(p) for p in a[:3]) / 1e6)),
    ("footocel.ingest", "parse_tracking", None),
    ("footocel.ingest", "merge_tracking", _tracking_counts),
    ("footocel.ingest", "parse_events", _add("ingest.event_rows")),
    ("footocel.ingest", "normalize_direction", None),
    ("footocel.possession", "match_prefix", None),
    ("footocel.possession", "segment_possessions", _add("possession.spans")),
    ("footocel.derive", "default_activity_mapping", None),
    ("footocel.derive", "load_activity_mapping", None),
    ("footocel.derive", "decompose_events", _add("derive.activity_events")),
    ("footocel.derive", "detect_movement_events", _add("derive.movement_events")),
    ("footocel.derive", "merge_streams", None),
    ("footocel.derive", "enrich", None),
    ("footocel.ocel", "match_epoch", None),
    ("footocel.ocel", "events_to_ocel", None),
    ("footocel.ocel", "build_objects", None),
    ("footocel.ocel", "concat_logs", None),
    ("footocel.ocel", "validate_log", None),
    ("footocel.ocel", "write_ocel_json", None),
    ("footocel.ocel", "read_ocel_json", _log_counts),
    ("footocel.ocel", "stats", None),
    ("footocel.mining", "filter_log", None),
    ("footocel.mining", "discover_ocdfg", _dfg_counts),
    ("footocel.render", "dfg_to_dot", None),
    ("footocel.render", "spatial_instance_svg", _add("render.svg_calls", lambda a, r: 1)),
]

COUNT_SPAN = "_count"  # time spent in count hooks, so no span's self time includes it

# busy seconds of one traced pass, by the span name they sum
BUSY = {
    "ingest.parse_tracking_s": "parse_tracking",
    "ingest.merge_tracking_s": "merge_tracking",
    "ingest.parse_events_s": "parse_events",
    "ingest.normalize_direction_s": "normalize_direction",
    "possession.segment_s": "segment_possessions",
    "derive.decompose_s": "decompose_events",
    "derive.movement_s": "detect_movement_events",
    "derive.merge_streams_s": "merge_streams",
    "derive.enrich_s": "enrich",
    "ocel.events_to_ocel_s": "events_to_ocel",
    "ocel.build_objects_s": "build_objects",
    "ocel.concat_validate_s": "concat_logs",
    "ocel.write_s": "write_ocel_json",
    "ocel.read_s": "read_ocel_json",
    "ocel.stats_s": "stats",
    "mining.filter_s": "filter_log",
    "mining.discover_s": "discover_ocdfg",
    "render.dot_s": "dfg_to_dot",
    "render.svg_s": "spatial_instance_svg",
}

# the span whose self time is reported, by metric
SELF = {"pipeline.convert_matches_self_s": "convert_matches"}

# counts, by the span name whose hook takes them
COUNTED_BY = {
    "ingest.frames": "merge_tracking",
    "ingest.player_samples": "merge_tracking",
    "ingest.untracked_samples": "merge_tracking",
    "ingest.event_rows": "parse_events",
    "ingest.input_mb": "load_match",
    "possession.spans": "segment_possessions",
    "derive.activity_events": "decompose_events",
    "derive.movement_events": "detect_movement_events",
    "ocel.events": "read_ocel_json",
    "ocel.objects": "read_ocel_json",
    "ocel.relations": "read_ocel_json",
    "ocel.log_mb": "read_ocel_json",
    "mining.traces": "discover_ocdfg",
    "mining.edges": "discover_ocdfg",
    "render.svg_calls": "spatial_instance_svg",
    "pipeline.matches": "convert_one",
}


class Tracer:
    """Spans and counts of one process; spans are [run_id, name, start, end, parent]."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []    # targets that no longer exist
        self.uncounted: list[str] = []  # targets whose counts could not be taken
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [self.run_id, name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = self.clock()
        return span

    def _close(self, span: list) -> None:
        span[3] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span = self._open(COUNT_SPAN)
                try:
                    hook(self.counts, args, result)
                except (AttributeError, TypeError):  # the result changed shape
                    self.uncounted.append(name)
                finally:
                    self._close(span)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every footocel module that binds it."""
        for module_name, name, hook in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), name, None)
            except ModuleNotFoundError:
                original = None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, hook)
            for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "footocel"]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path, scale: float = 1.0) -> None:
        """Write spans and counts; scale is the reference factor for this process's times."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "scale": scale,
                       "missing": self.missing, "uncounted": self.uncounted}, fh)


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the dumps of its processes."""
    busy: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    missing: set[str] = set()
    uncounted: set[str] = set()
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        scale = dump["scale"]
        for (_, name, start, end, _), inner in zip(spans, child_time):
            busy[name] += (end - start) * scale
            self_s[name] += (end - start - inner) * scale
        counts.update(dump["counts"])
        missing.update(dump["missing"])
        uncounted.update(dump["uncounted"])
    uncounted |= missing

    out: dict[str, float] = {}
    for metric, name in BUSY.items():
        if name not in missing:
            out[metric] = busy[name]
    for metric, name in SELF.items():
        if name not in missing:
            out[metric] = self_s[name]
    for metric, name in COUNTED_BY.items():
        if name not in uncounted:
            out[metric] = counts[metric]
    if {"parse_tracking", "merge_tracking"}.isdisjoint(uncounted):
        seconds = busy["parse_tracking"] + busy["merge_tracking"]
        out["ingest.frames_per_s"] = counts["ingest.frames"] / seconds if seconds else 0.0
    if {"merge_tracking", "detect_movement_events"}.isdisjoint(uncounted):
        samples = counts["ingest.player_samples"]
        out["derive.movement_per_sample"] = (
            counts["derive.movement_events"] / samples if samples else 0.0)
    return out
