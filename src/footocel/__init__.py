"""Football tracking + event feeds -> object-centric event logs.

The package turns raw positional tracking (wide CSVs sampled at a fixed
rate) and discrete match events into an OCEL 2.0 JSON log whose events
carry spatial context from a configurable pitch grid.  On top of the log
it offers possession segmentation, per-object-type directly-follows
graph discovery and SVG rendering of single possessions.
"""

from .errors import ConsistencyError, ParseError, QueryError
from .ingest import (
    MatchBundle,
    RawEventRecord,
    Tracking,
    TrackingFrame,
    load_match,
    normalize_direction,
    parse_events,
    parse_tracking,
)
from .spatial import (
    GridCell,
    GridSpec,
    Point,
    cell_center,
    cell_label,
    cell_of,
    metric_distance,
    parse_cell_label,
)
from .possession import (
    CONTROL_TYPES,
    PossessionSpan,
    match_prefix,
    possession_lookup,
    segment_possessions,
)
from .derive import (
    ActivityEvent,
    MappingEntry,
    decompose_events,
    default_activity_mapping,
    detect_movement_events,
    enrich,
    load_activity_mapping,
)
from .ocel import (
    IdentityScope,
    OcelEvent,
    OcelLog,
    OcelObject,
    concat_logs,
    read_ocel_json,
    stats,
    validate_log,
    write_ocel_json,
)
from .mining import (
    DirectlyFollows,
    LogFilter,
    discover_ocdfg,
    filter_log,
)
from .render import RenderOptions, dfg_to_dot, spatial_instance_svg
from .pipeline import (
    MatchPaths,
    RunConfig,
    config_from_dict,
    convert_matches,
    convert_one,
)

__version__ = "0.1.0"
