"""Log filtering and directly-follows discovery against a brute-force counter."""

import itertools
import random
from collections import Counter
from datetime import datetime, timezone

import pytest

from footocel.errors import QueryError
from footocel.mining import LogFilter, discover_ocdfg, filter_log
from footocel.ocel import OcelEvent, OcelLog, OcelObject, validate_log

T0 = datetime(2020, 7, 1, 15, 0, 0, tzinfo=timezone.utc)


def micro_log(object_ids, event_spec):
    """A log from [(activity, (object ids...)), ...]; times share one instant."""
    objects = [OcelObject(oid, "player", {}) for oid in object_ids]
    events = [
        OcelEvent(f"e{i}", activity, T0, {},
                  tuple((oid, f"q{j}") for j, oid in enumerate(rels)))
        for i, (activity, rels) in enumerate(event_spec)
    ]
    return OcelLog(objects, events)


def brute_force(log, object_types):
    """Trace-pair counting written as plainly as possible."""
    result = {}
    for t in object_types:
        acts, edges = Counter(), Counter()
        starts, ends = Counter(), Counter()
        n_objects = 0
        for o in log.objects:
            if o.otype != t:
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
            for i in range(len(trace) - 1):
                edges[(trace[i], trace[i + 1])] += 1
        result[t] = (acts, edges, starts, ends, n_objects)
    return result


def assert_matches_brute_force(log, object_types):
    got = discover_ocdfg(log, object_types)
    want = brute_force(log, object_types)
    for t in object_types:
        g = got.per_type[t]
        acts, edges, starts, ends, n_objects = want[t]
        assert g.activity_counts == acts
        assert g.edge_counts == edges
        assert g.start_counts == starts
        assert g.end_counts == ends
        assert g.n_objects == n_objects
        assert sum(g.start_counts.values()) == n_objects
        assert sum(g.end_counts.values()) == n_objects


def nonempty_subsets(ids):
    out = []
    for r in range(1, len(ids) + 1):
        out.extend(itertools.combinations(ids, r))
    return out


def test_exhaustive_micro_logs_two_objects():
    ids = ("p1", "p2")
    options = [(a, rels) for a in ("A", "B") for rels in nonempty_subsets(ids)]
    for n in range(0, 7):
        for combo in itertools.product(options, repeat=n):
            assert_matches_brute_force(micro_log(ids, combo), ["player"])


def test_exhaustive_micro_logs_three_objects():
    ids = ("p1", "p2", "p3")
    options = [(a, rels) for a in ("A", "B") for rels in nonempty_subsets(ids)]
    for n in range(0, 5):
        for combo in itertools.product(options, repeat=n):
            assert_matches_brute_force(micro_log(ids, combo), ["player"])


def test_random_micro_logs():
    rng = random.Random(2024)
    activities = ["A", "B", "C", "D"]
    for _ in range(100):
        ids = [f"p{i}" for i in range(rng.randint(1, 3))]
        events = []
        for _ in range(rng.randint(0, 6)):
            rels = rng.sample(ids, rng.randint(1, len(ids)))
            if rng.random() < 0.25:
                rels = rels + [rels[0]]  # same object under two qualifiers
            events.append((rng.choice(activities), tuple(rels)))
        assert_matches_brute_force(micro_log(ids, events), ["player"])


def test_duplicate_qualifiers_count_once():
    log = micro_log(("p1",), [("A", ("p1", "p1"))])
    g = discover_ocdfg(log, ["player"]).per_type["player"]
    assert g.activity_counts == {"A": 1}
    assert g.edge_counts == {}


def test_absent_type_yields_empty_graph():
    log = micro_log(("p1",), [("A", ("p1",))])
    dfg = discover_ocdfg(log, ["team"])
    assert dfg.per_type["team"].n_objects == 0
    assert dfg.per_type["team"].activity_counts == {}


def test_discovery_on_the_converted_log(log):
    types = ["ball", "player", "team", "possession"]
    assert_matches_brute_force(log, types)
    dfg = discover_ocdfg(log, types)
    ball = dfg.per_type["ball"]
    assert ball.n_objects == 1
    assert ball.edge_counts[("Pass", "Pass received")] > 0
    total = sum(ball.activity_counts.values())
    assert total == sum(1 for e in log.events if e.attrs["event_class"] == "ball")


# --- filtering ---

def test_filter_by_possession_team(log):
    filtered = filter_log(log, LogFilter("possession", (("team", "Home"),)))
    validate_log(filtered)
    assert 0 < len(filtered.events) < len(log.events)
    index = log.object_index()
    home_possessions = {o.oid for o in log.objects
                        if o.otype == "possession" and o.attrs["team"] == "Home"}
    for e in filtered.events:
        assert any(oid in home_possessions for oid, _ in e.relations)
    # events keep their original ids, relative order and every relation
    original_order = {e.eid: i for i, e in enumerate(log.events)}
    positions = [original_order[e.eid] for e in filtered.events]
    assert positions == sorted(positions)
    assert [e.relations for e in filtered.events] == [log.events[i].relations for i in positions]
    assert index  # silence linters about the unused variable


def test_filter_numeric_values_match_string_queries(log):
    by_int = filter_log(log, LogFilter("possession", (("period", "1"),)))
    by_float = filter_log(log, LogFilter("possession", (("period", "1.0"),)))
    assert [e.eid for e in by_int.events] == [e.eid for e in by_float.events]


def test_filter_conditions_combine_conjunctively(log):
    both = filter_log(log, LogFilter("possession",
                                     (("team", "Home"), ("outcome", "goal"))))
    team_only = filter_log(log, LogFilter("possession", (("team", "Home"),)))
    assert set(e.eid for e in both.events) <= set(e.eid for e in team_only.events)


def test_filter_drops_unreferenced_objects(log):
    filtered = filter_log(log, LogFilter("possession", (("outcome", "goal"),)))
    referenced = {oid for e in filtered.events for oid, _ in e.relations}
    assert {o.oid for o in filtered.objects} == referenced


def test_filter_error_cases(log):
    with pytest.raises(QueryError, match="no objects of type 'referee'"):
        filter_log(log, LogFilter("referee"))
    with pytest.raises(QueryError, match="unknown attribute 'mood'"):
        filter_log(log, LogFilter("possession", (("mood", "sunny"),)))


def test_filter_without_conditions_keeps_type_related_events(log):
    filtered = filter_log(log, LogFilter("ball"))
    ball_events = [e for e in log.events if e.attrs["event_class"] == "ball"]
    assert [e.eid for e in filtered.events] == [e.eid for e in ball_events]


def test_chained_filters(log):
    step1 = filter_log(log, LogFilter("possession", (("team", "Home"),)))
    step2 = filter_log(step1, LogFilter("possession", (("outcome", "goal"),)))
    direct = filter_log(log, LogFilter("possession",
                                       (("team", "Home"), ("outcome", "goal"))))
    assert [e.eid for e in step2.events] == [e.eid for e in direct.events]
