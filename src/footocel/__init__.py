"""Football tracking + event feeds -> object-centric event logs.

The package turns raw positional tracking (wide CSVs sampled at a fixed
rate) and discrete match events into an OCEL 2.0 JSON log whose events
carry spatial context from a configurable pitch grid.  On top of the log
it offers possession segmentation, per-object-type directly-follows
graph discovery and SVG rendering of single possessions.

The namespace holds only the four names perfbench/ reads from it; library
code imports from the modules (footocel.pipeline, footocel.ocel, ...).
"""

from .derive import default_activity_mapping
from .ocel import OcelLog, stats
from .pipeline import RunConfig

__version__ = "0.1.0"
