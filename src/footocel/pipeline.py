"""End-to-end conversion: raw match files in, object-centric log out.

Per match: load + merge the three CSVs, optionally normalize attack
direction, segment possessions, decompose events, derive movement events
from tracking, and merge and enrich the streams.  Once every match is
enriched, each match's events are wired to objects and given their global
ids, and the matches concatenate into one log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

from . import ingest
from .derive import (
    UNKNOWN_PASS,
    UNKNOWN_REJECT,
    ActivityEvent,
    decompose_events,
    default_activity_mapping,
    detect_movement_events,
    enrich,
    load_activity_mapping,
)
from .errors import ParseError
from .ocel import (
    IdentityScope,
    OcelEvent,
    OcelLog,
    build_objects,
    concat_logs,
    events_to_ocel,
    match_epoch,
)
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
    """Everything the pipeline can be told; flags > config file > defaults."""

    grid: GridSpec = field(default_factory=GridSpec)
    sample_rate: float = 25.0
    scope: IdentityScope = IdentityScope.GLOBAL
    min_dwell_s: float = 0.0
    normalize_direction: bool = False
    activity_map_path: Optional[str] = None
    unknown_events: str = UNKNOWN_REJECT
    control_types: tuple[str, ...] = tuple(sorted(CONTROL_TYPES))

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.min_dwell_s < 0:
            raise ValueError("min_dwell_s must be >= 0")
        if self.unknown_events not in (UNKNOWN_REJECT, UNKNOWN_PASS):
            raise ValueError("unknown_events must be 'reject' or 'pass'")
        if not self.control_types:
            raise ValueError("control_types must not be empty")


_CONFIG_KEYS = {
    "grid", "sample_rate", "scope", "min_dwell_s", "normalize_direction",
    "activity_map_path", "unknown_events", "control_types",
}


def config_from_dict(data: dict, source: str = "<config>") -> RunConfig:
    """Build a RunConfig from a parsed JSON config file."""
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object", source=source)
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ParseError(f"unknown config key(s) {sorted(unknown)}", source=source)
    kwargs: dict = {}
    if "grid" in data:
        g = data["grid"]
        if not isinstance(g, dict) or set(g) - {"cols", "rows", "pitch_length_m", "pitch_width_m"}:
            raise ParseError("grid must be an object with cols/rows/pitch_length_m/pitch_width_m",
                             source=source)
        kwargs["grid"] = GridSpec(**g)
    if "scope" in data:
        try:
            kwargs["scope"] = IdentityScope(data["scope"])
        except ValueError:
            raise ParseError(f"unknown scope {data['scope']!r}", source=source) from None
    if "control_types" in data:
        kwargs["control_types"] = tuple(data["control_types"])
    for key in ("sample_rate", "min_dwell_s", "normalize_direction",
                "activity_map_path", "unknown_events"):
        if key in data:
            kwargs[key] = data[key]
    return RunConfig(**kwargs)


def load_config_file(path) -> RunConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", source=str(path)) from None
    return config_from_dict(data, source=str(path))


def merge_config(base: RunConfig, **overrides) -> RunConfig:
    """Apply non-None overrides onto a config (flag precedence)."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    valid = {f.name for f in fields(RunConfig)}
    unknown = set(changes) - valid
    if unknown:
        raise ValueError(f"unknown config override(s) {sorted(unknown)}")
    return replace(base, **changes) if changes else base


@dataclass
class MatchArtifacts:
    """Per-match conversion products, pre-concatenation."""

    match_id: str
    rosters: dict[str, tuple[str, ...]]
    spans: list[PossessionSpan]
    events: list[ActivityEvent]  # enriched, not yet wired


def convert_one(paths: MatchPaths, match_index: int, config: RunConfig) -> MatchArtifacts:
    bundle = ingest.load_match(
        paths.home_tracking, paths.away_tracking, paths.events,
        match_id=paths.match_id, sample_rate=config.sample_rate,
    )
    frames, events = bundle.frames, bundle.events
    if config.normalize_direction:
        frames, events = ingest.normalize_direction(frames, events)

    spans = segment_possessions(
        events, match_prefix(match_index), frozenset(config.control_types),
    )
    mapping = (
        load_activity_mapping(config.activity_map_path)
        if config.activity_map_path else default_activity_mapping()
    )
    game_stream = decompose_events(events, config.grid, mapping, config.unknown_events)
    movement_stream = detect_movement_events(frames, config.grid, config.min_dwell_s)
    enriched = enrich(game_stream, movement_stream, spans)
    return MatchArtifacts(paths.match_id, dict(bundle.rosters), spans, enriched)


def convert_matches(
    matches: Sequence[MatchPaths], config: Optional[RunConfig] = None
) -> tuple[OcelLog, dict[str, list[PossessionSpan]]]:
    """Convert a set of matches into one object-centric log."""
    config = config or RunConfig()
    if not matches:
        raise ValueError("at least one match is required")
    ids = [m.match_id for m in matches]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate match ids: {ids}")

    artifacts = [convert_one(m, i, config) for i, m in enumerate(matches)]

    spans_by_match = {a.match_id: a.spans for a in artifacts}
    objects = build_objects(
        [(a.match_id, a.rosters) for a in artifacts],
        spans_by_match, config.grid, config.scope,
    )
    # event ids pad to the width of the log's total, so wiring waits for every match
    total = sum(len(a.events) for a in artifacts)
    groups: list[list[OcelEvent]] = []
    first = 0
    for index, a in enumerate(artifacts):
        groups.append(events_to_ocel(a.events, a.match_id, match_epoch(index), config.scope,
                                     first=first, total=total))
        first += len(a.events)
    log = concat_logs(objects, groups)
    return log, spans_by_match
