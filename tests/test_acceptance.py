"""Acceptance criteria, one test (= one pytest -v line) per criterion, except
criterion 7, which has two: renderer stability on the synthetic match, and
the narrated ball trace on the first reference match.

Criteria 1 and 7's ball trace need the two reference sample matches: the
six Metrica CSVs under data/metrica/ (or $METRICA_DATA_DIR, see
scripts/fetch_metrica.py for the expected layout).  The numbers they check
cannot be reproduced from synthetic data.  Without the files those tests
are skipped with the BLOCKED reason, which `-rs` in pyproject.toml prints
in every run's summary, so a missing dataset never goes unseen.  Criteria
6 and 8 run on the synthetic match and add the reference matches when
present.  Setting $METRICA_DATA_DIR asks for the real-data checks: if it
lacks any of the six files, all four of these tests fail and name the
missing ones.  Everything else runs on a deterministic synthetic match.
"""

import itertools
import os
import random
import time
import warnings
import xml.etree.ElementTree as ET
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import pytest

from footocel.derive import detect_movement_events
from footocel.ingest import load_match
from footocel.mining import LogFilter, discover_ocdfg, filter_log
from footocel.ocel import (
    OcelEvent,
    OcelLog,
    OcelObject,
    read_ocel_json,
    stats,
    validate_log,
    write_ocel_json,
)
from footocel.pipeline import MatchPaths, RunConfig, convert_matches
from footocel.possession import CONTROL_TYPES
from footocel.render import dfg_to_dot, spatial_instance_svg
from footocel.spatial import GridCell, GridSpec, Point, cell_label, cell_of
from oracles import ocel_to_dict, path_length

DATA_ENV = "METRICA_DATA_DIR"

EXPECTED_POSSESSIONS = 747   # two sample matches, default configuration
EXPECTED_OBJECTS = 813
EXPECTED_EVENTS = 37_358

T0 = datetime(2020, 7, 1, 15, 0, 0, tzinfo=timezone.utc)


def reference_matches() -> list:
    """The two sample matches' file paths, whether present or not."""
    root = Path(os.environ.get(DATA_ENV)
                or Path(__file__).resolve().parent.parent / "data" / "metrica")
    games = []
    for i in (1, 2):
        base = root / f"Sample_Game_{i}"
        games.append(MatchPaths(
            str(base / f"Sample_Game_{i}_RawTrackingData_Home_Team.csv"),
            str(base / f"Sample_Game_{i}_RawTrackingData_Away_Team.csv"),
            str(base / f"Sample_Game_{i}_RawEventsData.csv"),
            f"game{i}",
        ))
    return games


def missing_reference_files() -> list:
    return [
        path
        for g in reference_matches()
        for path in (g.home_tracking, g.away_tracking, g.events)
        if not Path(path).is_file()
    ]


def reference_match_paths():
    """The two sample matches, or None when any of their six files is missing."""
    return None if missing_reference_files() else reference_matches()


def required_reference_matches():
    """The two sample matches; fails naming the files $METRICA_DATA_DIR lacks."""
    missing = missing_reference_files()
    if missing:
        pytest.fail(f"${DATA_ENV} lacks {len(missing)} of the six reference "
                    "files: " + ", ".join(missing))
    return reference_matches()


def optional_reference_matches():
    """The two sample matches when present, else None for a synthetic-only
    run; fails like required_reference_matches() when $METRICA_DATA_DIR is set."""
    if os.environ.get(DATA_ENV):
        return required_reference_matches()
    return reference_match_paths()


BLOCKED = (
    "BLOCKED: the six CSVs of the two Metrica sample matches "
    "(Sample_Game_{1,2}/Sample_Game_{1,2}_{RawTrackingData_Home_Team,"
    "RawTrackingData_Away_Team,RawEventsData}.csv) are not under "
    "data/metrica/. Run scripts/fetch_metrica.py to download them, or set "
    f"${DATA_ENV} to a directory that holds them. The check needs the real "
    "feeds: synthetic data cannot reproduce the reference totals "
    f"({EXPECTED_POSSESSIONS} possessions, {EXPECTED_OBJECTS} objects, "
    f"{EXPECTED_EVENTS} events)."
)

# Skips only when $METRICA_DATA_DIR is unset: whoever sets it has asked for
# the real-data checks, so an incomplete directory there fails instead.
needs_reference = pytest.mark.skipif(
    not os.environ.get(DATA_ENV) and reference_match_paths() is None,
    reason=BLOCKED,
)


@needs_reference
def test_criterion_1_reference_match_statistics():
    games = required_reference_matches()
    started = time.monotonic()
    log = convert_matches(games, RunConfig())
    elapsed = time.monotonic() - started
    summary = stats(log)

    print("component breakdown (two sample matches, default configuration):")
    print(summary.to_text())
    per_match = Counter({g.match_id: 0 for g in games})
    per_match.update(o.attrs["match"] for o in log.objects if o.otype == "possession")
    for match_id, count in sorted(per_match.items()):
        print(f"possessions[{match_id}] = {count}")
    print(f"runtime = {elapsed:.1f} s")

    n_possessions = summary.objects_by_type.get("possession", 0)
    n_objects = summary.n_objects
    n_events = summary.n_events
    assert EXPECTED_POSSESSIONS * 0.9 <= n_possessions <= EXPECTED_POSSESSIONS * 1.1, \
        f"possessions {n_possessions} outside ±10% of {EXPECTED_POSSESSIONS}"
    assert EXPECTED_OBJECTS * 0.9 <= n_objects <= EXPECTED_OBJECTS * 1.1, \
        f"objects {n_objects} outside ±10% of {EXPECTED_OBJECTS}"
    assert EXPECTED_EVENTS * 0.85 <= n_events <= EXPECTED_EVENTS * 1.15, \
        f"events {n_events} outside ±15% of {EXPECTED_EVENTS}"
    assert elapsed < 60.0, f"conversion took {elapsed:.1f} s, budget is 60 s"


def rectangle_scan(point: Point, spec: GridSpec) -> GridCell:
    """Brute-force oracle: find the one cell rectangle containing the point."""
    hits = []
    for c in range(spec.cols):
        x_lo, x_hi = c / spec.cols, (c + 1) / spec.cols
        if not (x_lo <= point.x < x_hi or (c == spec.cols - 1 and point.x == 1.0)):
            continue
        for r in range(spec.rows):
            y_hi = 1.0 - r / spec.rows
            y_lo = 1.0 - (r + 1) / spec.rows
            if y_lo < point.y <= y_hi or (r == spec.rows - 1 and point.y == 0.0):
                hits.append(GridCell(c, r))
    assert len(hits) == 1, f"{point} claimed by {hits}"
    return hits[0]


def test_criterion_2_grid_cell_oracle_equivalence():
    spec = GridSpec()
    rng = random.Random(42)
    mismatches = []
    for _ in range(10_000):
        p = Point(rng.random(), rng.random())
        got, want = cell_of(p, spec), rectangle_scan(p, spec)
        if got != want:
            mismatches.append((p, got, want))
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[0]}"
    corners = {(0.0, 0.0): "A4", (0.0, 1.0): "A1", (1.0, 0.0): "F4", (1.0, 1.0): "F1"}
    for (x, y), label in corners.items():
        assert cell_label(cell_of(Point(x, y), spec)) == label


def span_contains(spans, i, period, t) -> bool:
    s = spans[i]
    if s.period != period:
        return False
    if s.start_time_s <= t < s.end_time_s:
        return True
    last_of_period = i + 1 >= len(spans) or spans[i + 1].period != s.period
    return last_of_period and t == s.end_time_s


def test_criterion_3_possession_invariants(bundle, spans):
    for a, b in zip(spans, spans[1:]):
        if a.period == b.period:
            assert a.team != b.team, f"{a.span_id} and {b.span_id} share a team"

    controlling = [e for e in bundle.events if e.event_type in CONTROL_TYPES]
    assert controlling
    for e in controlling:
        n = sum(1 for i in range(len(spans))
                if span_contains(spans, i, e.period, e.start_time_s))
        assert n == 1, f"{e.event_type}@{e.start_time_s}s lies in {n} spans"

    goal_shots = sum(
        1 for e in bundle.events
        if e.event_type == "SHOT"
        and "GOAL" in [tok.strip() for tok in (e.subtype or "").split("-")]
    )
    goal_spans = sum(1 for s in spans if s.outcome == "goal")
    assert goal_spans == goal_shots


def test_criterion_4_ocel_conformance(log, tmp_path):
    validate_log(log)

    out = tmp_path / "roundtrip.json"
    write_ocel_json(log, str(out))
    assert ocel_to_dict(read_ocel_json(str(out))) == ocel_to_dict(log)

    index = log.object_index
    ball_events = [e for e in log.events if e.attrs["event_class"] == "ball"]
    with_ball = [
        e for e in ball_events
        if any(index[oid].otype == "ball" for oid, _ in e.relations)
    ]
    assert ball_events and len(with_ball) == len(ball_events), \
        f"{len(with_ball)}/{len(ball_events)} ball-class events relate to a ball"

    moves = [e for e in log.events if e.attrs["event_class"] == "position_based"]
    assert moves
    for e in moves:
        players = [oid for oid, _ in e.relations if index[oid].otype == "player"]
        cells = [oid for oid, _ in e.relations if index[oid].otype == "grid_position"]
        assert len(players) == 1, f"{e.eid}: {len(players)} players"
        assert len(cells) == 2, f"{e.eid}: {len(cells)} grid cells"


def micro_log(object_ids, event_spec) -> OcelLog:
    objects = [OcelObject(oid, "thing", {}) for oid in object_ids]
    events = [
        OcelEvent(f"e{i}", activity, T0, {},
                  tuple((oid, "involves") for oid in rels))
        for i, (activity, rels) in enumerate(event_spec)
    ]
    return OcelLog(objects, events)


def trace_pair_counter(log: OcelLog, otype: str):
    acts, edges, starts, ends = Counter(), Counter(), Counter(), Counter()
    n_objects = 0
    for o in log.objects:
        if o.otype != otype:
            continue
        trace = [e.etype for e in log.events
                 if o.oid in {oid for oid, _ in e.relations}]
        if not trace:
            continue
        n_objects += 1
        starts[trace[0]] += 1
        ends[trace[-1]] += 1
        for a in trace:
            acts[a] += 1
        for pair in zip(trace, trace[1:]):
            edges[pair] += 1
    return acts, edges, starts, ends, n_objects


def dfg_mismatch(log: OcelLog) -> bool:
    got = discover_ocdfg(log, ["thing"]).per_type["thing"]
    acts, edges, starts, ends, n_objects = trace_pair_counter(log, "thing")
    return (got.activity_counts != acts or got.edge_counts != edges
            or got.start_counts != starts or got.end_counts != ends
            or got.n_objects != n_objects)


def nonempty_subsets(ids):
    return [s for r in range(1, len(ids) + 1)
            for s in itertools.combinations(ids, r)]


def test_criterion_5_dfg_oracle_equivalence():
    mismatches = 0
    cases = 0
    # exhaustive: every assignment of activities {A,B} and related-object
    # subsets, two objects up to 6 events and three objects up to 4 events
    for ids, max_events in ((("o1", "o2"), 6), (("o1", "o2", "o3"), 4)):
        options = [(a, rels) for a in ("A", "B") for rels in nonempty_subsets(ids)]
        for n in range(0, max_events + 1):
            for combo in itertools.product(options, repeat=n):
                cases += 1
                mismatches += dfg_mismatch(micro_log(ids, combo))
    # plus 100 random micro-logs over a larger activity alphabet
    rng = random.Random(424242)
    for _ in range(100):
        ids = [f"o{i}" for i in range(rng.randint(1, 3))]
        events = [
            (rng.choice("ABCD"), tuple(rng.sample(ids, rng.randint(1, len(ids)))))
            for _ in range(rng.randint(0, 6))
        ]
        cases += 1
        mismatches += dfg_mismatch(micro_log(ids, events))
    print(f"checked {cases} micro-logs")
    assert mismatches == 0, f"{mismatches} of {cases} micro-logs disagree"


def test_criterion_6_qualitative_graph_structure(log):
    """Report-only: expected graph shapes, warned about rather than enforced."""
    games = optional_reference_matches()
    if games is not None:
        log = convert_matches(games, RunConfig())

    notes = []

    goal_filter = LogFilter("possession", (("team", "Home"), ("outcome", "goal")))
    ball = discover_ocdfg(filter_log(log, goal_filter), ["ball"]).per_type["ball"]
    bad_targets = sorted(b for (a, b) in ball.edge_counts if a == "Set piece" and b != "Pass")
    if bad_targets:
        notes.append(
            "in home-goal possessions, 'Set piece' also leads to "
            + ", ".join(repr(b) for b in bad_targets)
        )

    types = sorted({o.otype for o in log.objects})
    multi = discover_ocdfg(log, types)
    self_loops = Counter()
    for g in multi.per_type.values():
        for (a, b), count in g.edge_counts.items():
            if a == b:
                self_loops[a] += count
    if self_loops:
        top, top_count = self_loops.most_common(1)[0]
        if top != "Player changes position":
            notes.append(
                f"max self-loop activity is {top!r} ({top_count}), not "
                f"'Player changes position' ({self_loops['Player changes position']})"
            )

    for note in notes:
        warnings.warn(f"qualitative structure deviation (report-only): {note}")
    print("qualitative structure: " + ("OK" if not notes else "; ".join(notes)))


def is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(x in it for x in needle)


def test_criterion_7_spatial_instance_fidelity(log, spans):
    # renderer halves: well-formed and byte-stable, checkable on any data
    pid = spans[0].span_id
    svg = spatial_instance_svg(log, pid, ["ball", "player"], GridSpec())
    ET.fromstring(svg)
    assert svg == spatial_instance_svg(log, pid, ["ball", "player"], GridSpec())
    dfg = discover_ocdfg(log, ["ball", "player"])
    dot = dfg_to_dot(dfg)
    assert dot.startswith("digraph ocdfg {")
    assert dot == dfg_to_dot(dfg)


@needs_reference
def test_criterion_7_narrated_ball_trace():
    games = required_reference_matches()
    real_log = convert_matches([games[0]], RunConfig())
    index = real_log.object_index
    expected = ["B3", "B4", "B3", "E1", "F2"]
    candidates = [o for o in real_log.objects if o.otype == "possession"
                  and o.attrs["team"] == "Home" and o.attrs["outcome"] == "goal"]
    assert candidates, "no home goal possessions found in match 1"
    matching = []
    for s in candidates:
        cells = [
            e.attrs["cell"] for e in real_log.events
            if s.oid in {oid for oid, _ in e.relations}
            and "cell" in e.attrs
            and any(index[oid].otype == "ball" for oid, _ in e.relations)
        ]
        if is_subsequence(expected, cells):
            matching.append(s.oid)
    print(f"home goal possessions: {[s.oid for s in candidates]}, "
          f"matching {'→'.join(expected)}: {matching}")
    assert matching, (
        f"no home goal possession's ball trace visits {'→'.join(expected)} "
        "in relative order"
    )


def movement_checks(tracking, spec):
    """Chain continuity (no gap between the pair) and the distance bound."""
    moves = detect_movement_events(tracking, spec)
    frames = list(tracking)
    by_player = {}
    for e in moves:
        by_player.setdefault(e.players[0], []).append(e)

    for label, events in sorted(by_player.items()):
        for a, b in zip(events, events[1:]):
            if a.period != b.period:
                continue
            gapped = any(
                f.positions.get(label) is None
                for f in frames
                if f.period == a.period and a.time_s < f.time_s <= b.time_s
            )
            if gapped:
                continue
            assert a.attrs["to_cell"] == b.attrs["from_cell"], (
                f"{label}: chain breaks between {a.attrs['to_cell']} "
                f"({a.time_s}s) and {b.attrs['from_cell']} ({b.time_s}s)"
            )

    labels = sorted({label for f in frames for label in f.positions})
    assert labels
    for label in labels:
        trajectory = [f.positions.get(label) for f in frames]
        budget = path_length(trajectory, spec)
        spent = sum(e.attrs["distance_m"] for e in by_player.get(label, []))
        assert spent <= budget + 1e-6, (
            f"{label}: per-event distances {spent:.2f} m exceed "
            f"trajectory length {budget:.2f} m"
        )


def test_criterion_8_movement_chain_property(bundle):
    movement_checks(bundle.frames, GridSpec())
    games = optional_reference_matches()
    if games is not None:
        real = load_match(games[0].home_tracking, games[0].away_tracking, games[0].events)
        movement_checks(real.frames, GridSpec())
