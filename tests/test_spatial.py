"""Grid geometry: cell mapping, labels, centers and metric distances."""

import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from footocel.spatial import (
    MAX_GRID_ROWS,
    GridCell,
    GridSpec,
    Point,
    cell_center,
    cell_edges,
    cell_label,
    cell_of,
    cell_ranges,
    metric_distance,
    parse_cell_label,
    snap_to_pitch,
)
from oracles import path_length

SPEC = GridSpec()


def rectangle_scan(point: Point, spec: GridSpec) -> GridCell:
    """Independent oracle: scan every cell's rectangle for the point.

    Column c spans x in [c/cols, (c+1)/cols), the last column also owning
    x = 1.  Row r (counted from the bottom) spans y in (1-(r+1)/rows,
    1-r/rows], the top row also owning y = 0.
    """
    hits = []
    for c in range(spec.cols):
        x_lo, x_hi = c / spec.cols, (c + 1) / spec.cols
        in_col = x_lo <= point.x < x_hi or (c == spec.cols - 1 and point.x == 1.0)
        if not in_col:
            continue
        for r in range(spec.rows):
            y_hi = 1.0 - r / spec.rows
            y_lo = 1.0 - (r + 1) / spec.rows
            in_row = y_lo < point.y <= y_hi or (r == spec.rows - 1 and point.y == 0.0)
            if in_row:
                hits.append(GridCell(c, r))
    assert len(hits) == 1, f"{point} claimed by {hits}"
    return hits[0]


def test_unit_square_corners():
    assert cell_label(cell_of(Point(0.0, 1.0), SPEC)) == "A1"
    assert cell_label(cell_of(Point(0.0, 0.0), SPEC)) == "A4"
    assert cell_label(cell_of(Point(1.0, 1.0), SPEC)) == "F1"
    assert cell_label(cell_of(Point(1.0, 0.0), SPEC)) == "F4"


def test_pitch_center():
    assert cell_label(cell_of(Point(0.5, 0.5), SPEC)) == "D3"


def test_matches_rectangle_scan_on_random_points():
    rng = random.Random(1234)
    for _ in range(2500):
        p = Point(rng.random(), rng.random())
        assert cell_of(p, SPEC) == rectangle_scan(p, SPEC)


def test_interior_boundaries_belong_to_the_next_cell():
    # x = 1/6 starts column B; y = 0.75 already belongs to row 2
    assert cell_label(cell_of(Point(1 / 6, 1.0), SPEC)) == "B1"
    assert cell_label(cell_of(Point(0.0, 0.75), SPEC)) == "A2"
    assert cell_label(cell_of(Point(0.0, 0.7501), SPEC)) == "A1"


def test_snap_to_pitch_clamps_into_the_unit_square_and_keeps_an_absent_point():
    assert snap_to_pitch(Point(1.02, -0.3)) == Point(1.0, 0.0)
    assert snap_to_pitch(None) is None


@pytest.mark.parametrize("bad", [Point(-0.01, 0.5), Point(1.01, 0.5),
                                 Point(0.5, -0.2), Point(0.5, 1.2),
                                 Point(float("nan"), 0.5), Point(0.5, float("inf"))])
def test_out_of_range_points_are_rejected(bad):
    with pytest.raises(ValueError):
        cell_of(bad, SPEC)


# dyadic coordinates keep 1-y exact, so the oracle and the floor-based
# mapping cannot disagree through rounding
dyadic = st.integers(0, 2 ** 16).map(lambda k: k / 2 ** 16)


@given(x=dyadic, y=dyadic)
def test_every_point_lands_in_exactly_one_cell(x, y):
    p = Point(x, y)
    assert cell_of(p, SPEC) == rectangle_scan(p, SPEC)


@given(x=dyadic, y=dyadic)
def test_claimed_cell_rectangle_contains_the_point(x, y):
    col, row = cell_of(Point(x, y), SPEC)
    assert 0 <= col < SPEC.cols and 0 <= row < SPEC.rows
    assert col / SPEC.cols <= x <= (col + 1) / SPEC.cols
    y_hi = 1.0 - row / SPEC.rows
    y_lo = 1.0 - (row + 1) / SPEC.rows
    assert y_lo <= y <= y_hi


RANGE_GRIDS = [GridSpec(1, 1), GridSpec(6, 4), GridSpec(7, 3), GridSpec(26, MAX_GRID_ROWS)]
EDGES = {spec: cell_edges(spec) for spec in RANGE_GRIDS}
RANGES = {spec: cell_ranges(*EDGES[spec]) for spec in RANGE_GRIDS}


def _cells_holding(ranges, x, y):
    return [i for i, (xlo, xhi, ylo, yhi) in enumerate(ranges)
            if xlo <= x < xhi and ylo <= y < yhi]


def _cell_index(point, spec):
    col, row = cell_of(snap_to_pitch(point), spec)
    return col * spec.rows + row


def _edge_index(spec, x, y):
    """The cell index movement detection reads from the edges: rows count up as y falls."""
    xs, ys = EDGES[spec]
    return (bisect_right(xs, x) - 1) * spec.rows + spec.rows - bisect_right(ys, y)


@pytest.mark.parametrize("spec", RANGE_GRIDS, ids=lambda s: f"{s.cols}x{s.rows}")
def test_cell_ranges_hold_exactly_the_points_of_their_cell(spec):
    ranges = RANGES[spec]
    assert len(ranges) == spec.cols * spec.rows
    ends = {v for r in ranges for v in r if math.isfinite(v)}
    near = {w for v in ends for w in (math.nextafter(v, -math.inf), v,
                                      math.nextafter(v, math.inf))}
    special = {-0.0, 0.0, 1.0, math.nextafter(1.0, 2.0), -1e-300, 1e-300,
               -0.3, 1.02, -1e308, 1e308, 0.5}
    # each edge value on one axis, with values that keep the other axis
    # off every edge
    others = sorted(special)
    for v in sorted(near | special):
        for w in others:
            for x, y in ((v, w), (w, v)):
                assert _cells_holding(ranges, x, y) == [_cell_index(Point(x, y), spec)], (x, y)
                assert _edge_index(spec, x, y) == _cell_index(Point(x, y), spec), (x, y)


_finite = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-0.1, 1.1)


@settings(max_examples=300)
@given(st.sampled_from(RANGE_GRIDS), _finite, _finite)
def test_cell_ranges_agree_with_cell_of_on_any_finite_point(spec, x, y):
    ranges = RANGES[spec]
    assert _cells_holding(ranges, x, y) == [_cell_index(Point(x, y), spec)]
    assert _edge_index(spec, x, y) == _cell_index(Point(x, y), spec)


def test_labels_round_trip():
    for cell in SPEC.all_cells():
        assert parse_cell_label(cell_label(cell), SPEC) == cell


@pytest.mark.parametrize("bad", ["", "A", "1A", "G1", "A5", "A0", "AA1"])
def test_bad_labels_are_rejected(bad):
    with pytest.raises(ValueError):
        parse_cell_label(bad, SPEC)


def test_labels_parse_case_insensitively():
    assert parse_cell_label("a1", SPEC) == parse_cell_label("A1", SPEC)


def test_cell_center_maps_back_to_its_cell():
    for cell in SPEC.all_cells():
        assert cell_of(cell_center(cell, SPEC), SPEC) == cell


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(cols=0)
    with pytest.raises(ValueError):
        GridSpec(rows=-1)
    with pytest.raises(ValueError):
        GridSpec(cols=27)  # labels are single letters A..Z
    with pytest.raises(ValueError):
        GridSpec(pitch_length_m=0.0)
    with pytest.raises(ValueError):
        GridSpec(rows=101)


def test_all_cells_enumerates_the_full_grid():
    cells = SPEC.all_cells()
    assert len(cells) == SPEC.cols * SPEC.rows
    assert len(set(cells)) == len(cells)


points = st.builds(Point, dyadic, dyadic)


@given(p=points, q=points)
def test_metric_distance_is_symmetric(p, q):
    assert metric_distance(p, q, SPEC) == metric_distance(q, p, SPEC)


@given(p=points, q=points, r=points)
def test_metric_distance_triangle_inequality(p, q, r):
    direct = metric_distance(p, r, SPEC)
    detour = metric_distance(p, q, SPEC) + metric_distance(q, r, SPEC)
    assert direct <= detour + 1e-9


def test_metric_distance_uses_pitch_dimensions():
    assert metric_distance(Point(0, 0.5), Point(1, 0.5), SPEC) == pytest.approx(105.0)
    assert metric_distance(Point(0.5, 0), Point(0.5, 1), SPEC) == pytest.approx(68.0)
    diag = metric_distance(Point(0, 0), Point(1, 1), SPEC)
    assert diag == pytest.approx(math.hypot(105.0, 68.0))


def test_full_length_walk_sums_to_pitch_length():
    steps = [Point(i / 20, 0.5) for i in range(21)]
    assert path_length(steps, SPEC) == pytest.approx(105.0)


@given(st.lists(points, min_size=2, max_size=8), st.integers(0, 8))
def test_path_length_bridges_gaps(pts, at):
    """Inserting a missing sample anywhere never changes the length."""
    with_gap = list(pts)
    with_gap.insert(min(at, len(pts)), None)
    assert path_length(with_gap, SPEC) == pytest.approx(path_length(pts, SPEC))


def test_path_length_degenerate_inputs():
    assert path_length([], SPEC) == 0.0
    assert path_length([None, None], SPEC) == 0.0
    assert path_length([Point(0.3, 0.3)], SPEC) == 0.0
