"""Pitch geometry: normalized coordinates, metric distances and the zone grid.

Coordinate convention, following the tracking provider: positions are
normalized to the unit square with (0, 0) the top-left corner of the pitch
and y growing downward, so y = 1 is the bottom touchline.

Grid cells are addressed column-first with letters along the pitch length
(x axis) and bottom-up numbers along the width: "A1" is the bottom-left
zone, "F4" the top-right zone of the default 6x4 grid.  Cells are half-open
rectangles; the far edges (x = 1, y = 0 resp. y = 1, x = 1) fold into the
last cell so the grid partitions the whole closed unit square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import shown


class Point(NamedTuple):
    """A normalized pitch position."""

    x: float
    y: float


# the most grid rows: 0.68 m per row on a 68 m pitch, and a bound on the
# cells movement detection and the SVG pitch drawing list
MAX_GRID_ROWS = 100


class GridCell(NamedTuple):
    """Zero-based grid address: col counts from the left, row from the bottom."""

    col: int
    row: int


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry and the metric size of the pitch it overlays."""

    cols: int = 6
    rows: int = 4
    pitch_length_m: float = 105.0
    pitch_width_m: float = 68.0

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ValueError(
                f"grid must have positive dimensions, got {shown(self.cols)}x{shown(self.rows)}")
        if self.cols > 26:
            # column labels are single letters A..Z
            raise ValueError(f"at most 26 grid columns supported, got {shown(self.cols)}")
        if self.rows > MAX_GRID_ROWS:
            raise ValueError(f"at most {MAX_GRID_ROWS} grid rows supported, got {shown(self.rows)}")
        if not (self.pitch_length_m > 0 and self.pitch_width_m > 0):
            raise ValueError("pitch dimensions must be positive")
        for name in ("pitch_length_m", "pitch_width_m"):
            if getattr(self, name) == math.inf:
                raise ValueError(f"grid.{name} must be finite, got inf")

    def all_cells(self) -> list[GridCell]:
        """Every cell, column-major from A1: A1, A2, ..., F4."""
        return [GridCell(c, r) for c in range(self.cols) for r in range(self.rows)]


def cell_of(point: Point, spec: GridSpec) -> GridCell:
    """Map a normalized position to its grid cell.

    Columns follow x directly; rows count upward from the bottom touchline,
    which in the provider frame means inverting y.  Both indices clamp their
    closed upper boundary into the last cell.
    """
    x, y = point
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite position ({x}, {y})")
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"position ({x}, {y}) outside the unit square")
    col = min(int(x * spec.cols), spec.cols - 1)
    row = min(int((1.0 - y) * spec.rows), spec.rows - 1)
    return GridCell(col, row)


def snap_to_pitch(p: Point | None) -> Point | None:
    """Clamp a position into the unit square (off-pitch points keep their
    raw value everywhere else; only cell mapping needs in-range input)."""
    if p is None:
        return None
    return Point(min(max(p.x, 0.0), 1.0), min(max(p.y, 0.0), 1.0))


def cell_label(cell: GridCell) -> str:
    """Human-readable address, e.g. GridCell(3, 2) -> "D3"."""
    return f"{chr(ord('A') + cell.col)}{cell.row + 1}"


def parse_cell_label(label: str, spec: GridSpec) -> GridCell:
    """Inverse of cell_label; rejects addresses outside the grid."""
    if (not isinstance(label, str) or len(label) < 2
            or not label[0].isalpha() or not label[1:].isdigit()):
        raise ValueError(f"malformed cell label {shown(label)}")
    col = ord(label[0].upper()) - ord("A")
    row = int(label[1:]) - 1
    if not (0 <= col < spec.cols and 0 <= row < spec.rows):
        raise ValueError(f"cell label {shown(label)} outside the {spec.cols}x{spec.rows} grid")
    return GridCell(col, row)


def cell_center(cell: GridCell, spec: GridSpec) -> Point:
    """Center of a cell in provider coordinates (y grows downward)."""
    return Point((cell.col + 0.5) / spec.cols, 1.0 - (cell.row + 0.5) / spec.rows)


def metric_distance(p: Point, q: Point, spec: GridSpec) -> float:
    """Euclidean distance in meters between two normalized positions."""
    dx = (q[0] - p[0]) * spec.pitch_length_m
    dy = (q[1] - p[1]) * spec.pitch_width_m
    return math.hypot(dx, dy)
