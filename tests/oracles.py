"""Reference helpers that tests compare the library against."""

from typing import Iterable, Optional

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
