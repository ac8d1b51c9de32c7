"""Object universe, event wiring, serialization and structural validation."""

import json
import math
import re
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

import footocel.ocel as ocel_module
from footocel.cli import main
from footocel.derive import BALL, ActivityEvent
from footocel.errors import ConsistencyError, ParseError
from footocel.ocel import (
    EPOCH_BASE,
    IdentityScope,
    OcelEvent,
    OcelLog,
    OcelObject,
    build_objects,
    concat_logs,
    event_time,
    events_to_ocel,
    format_time,
    match_epoch,
    ocel_to_dict,
    parse_time,
    read_ocel_json,
    scoped_id,
    stats,
    validate_log,
    write_ocel_json,
)
from footocel.pipeline import convert_matches
from footocel.possession import PossessionSpan
from footocel.spatial import GridSpec

UTC = timezone.utc
ISO_MS = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z$")


# --- time handling ---

def test_format_time_is_millisecond_utc():
    assert format_time(datetime(2020, 7, 1, 15, 0, 0, tzinfo=UTC)) == "2020-07-01T15:00:00.000Z"
    assert format_time(datetime(2020, 7, 1, 15, 0, 0, 42000, tzinfo=UTC)).endswith(".042Z")
    with pytest.raises(ConsistencyError):
        format_time(datetime(2020, 7, 1, 15, 0, 0))  # naive


def test_event_time_quantizes_to_milliseconds():
    t = event_time(EPOCH_BASE, 0.0416)
    assert t.microsecond == 42000
    assert format_time(t) == "2020-07-01T15:00:00.042Z"


def test_parse_time_accepts_z_suffix():
    t = parse_time("2020-07-01T15:00:00.042Z", "$")
    assert t == datetime(2020, 7, 1, 15, 0, 0, 42000, tzinfo=UTC)
    assert parse_time("2020-07-01T16:00:00.000+01:00", "$") == \
        datetime(2020, 7, 1, 15, 0, 0, tzinfo=UTC)
    with pytest.raises(ParseError, match="lacks a UTC offset"):
        parse_time("2020-07-01T15:00:00.000", "$")
    with pytest.raises(ParseError, match="invalid ISO-8601"):
        parse_time("yesterday", "$")


def test_match_epochs_are_one_day_apart():
    assert match_epoch(0) == EPOCH_BASE
    assert match_epoch(2) - match_epoch(1) == timedelta(days=1)


def test_scoped_ids():
    assert scoped_id(IdentityScope.GLOBAL, "game1", "A1") == "A1"
    assert scoped_id(IdentityScope.PER_MATCH, "game1", "A1") == "game1:A1"


# --- the object universe ---

def test_object_universe_of_the_synthetic_match(log, spans):
    counts = Counter(o.otype for o in log.objects)
    assert counts == {
        "ball": 1, "grid_position": 24, "match": 1,
        "player": 10, "team": 2, "possession": len(spans),
    }
    index = log.object_index()
    assert index["A1"].attrs == {"column": "A", "row": 1}
    assert index["F4"].attrs == {"column": "F", "row": 4}
    assert index["game1"].attrs["kickoff"] == "2020-07-01T15:00:00.000Z"
    assert index["Home"].attrs == {"side": "Home"}
    first = index[spans[0].span_id]
    assert first.attrs["team"] == spans[0].team
    assert first.attrs["outcome"] == spans[0].outcome
    assert first.attrs["match"] == "game1"


def test_objects_are_sorted_by_type_then_id(log):
    keys = [(o.otype, o.oid) for o in log.objects]
    assert keys == sorted(keys)


def test_conflicting_object_definitions_are_rejected():
    span = PossessionSpan("AA001", "Home", 1, 0.0, 1.0, 0, 25, "lost")
    rosters = {"Home": ("HomePlayer1",), "Away": ()}
    with pytest.raises(ConsistencyError, match="conflicting definitions"):
        build_objects(
            [("m1", rosters), ("m2", rosters)],
            {"m1": [span], "m2": [span]},  # same span id claimed by both
            GridSpec(),
        )


def test_per_match_scope_prefixes_shared_objects():
    rosters = {"Home": ("HomePlayer1",), "Away": ("AwayPlayer21",)}
    objects = build_objects([("m1", rosters)], {}, GridSpec(),
                            IdentityScope.PER_MATCH)
    ids = {o.oid for o in objects}
    assert "m1:Home" in ids and "m1:ball" in ids and "m1:A1" in ids
    assert "m1:HomePlayer1" in ids
    assert "m1" in ids  # the match object itself is never prefixed


# --- event wiring ---

def qualifier_counts(event):
    return Counter(q for _, q in event.relations)


def test_every_event_relates_to_its_match(log):
    for e in log.events:
        assert ("game1", "match") in e.relations


def test_ball_events_relate_to_the_ball(log):
    ball_events = [e for e in log.events if e.attrs["event_class"] == "ball"]
    assert ball_events
    for e in ball_events:
        assert ("ball", "ball") in e.relations


def test_position_events_relate_one_player_and_two_cells(log):
    index = log.object_index()
    moves = [e for e in log.events if e.attrs["event_class"] == "position_based"]
    assert moves
    for e in moves:
        q = qualifier_counts(e)
        assert q["from_cell"] == 1 and q["to_cell"] == 1
        players = [oid for oid, q_ in e.relations if index[oid].otype == "player"]
        assert len(players) == 1
        rel = dict((q_, oid) for oid, q_ in e.relations)
        assert index[rel["from_cell"]].otype == "grid_position"
        assert index[rel["to_cell"]].otype == "grid_position"
        assert rel["from_cell"] == e.attrs["from_cell"]
        assert rel["to_cell"] == e.attrs["to_cell"]


def test_at_cell_tracks_the_cell_attribute(log):
    for e in log.events:
        if e.attrs["event_class"] == "position_based":
            continue
        q = qualifier_counts(e)
        if "cell" in e.attrs:
            assert q["at_cell"] == 1
            rel = dict((q_, oid) for oid, q_ in e.relations)
            assert rel["at_cell"] == e.attrs["cell"]
        else:
            assert q["at_cell"] == 0


def test_possession_relation_follows_the_attribute(log):
    related = 0
    for e in log.events:
        rel = dict((q_, oid) for oid, q_ in e.relations)
        if "possession_id" in e.attrs:
            assert rel["possession"] == e.attrs["possession_id"]
            related += 1
        else:
            assert "possession" not in rel
    assert related > 0


# --- serialization ---

def test_log_round_trips_byte_and_structure(log, tmp_path):
    path = tmp_path / "log.json"
    write_ocel_json(log, path)
    again = read_ocel_json(path)
    assert again.objects == log.objects
    assert again.events == log.events
    assert ocel_to_dict(again) == ocel_to_dict(log)
    path2 = tmp_path / "log2.json"
    write_ocel_json(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_serialized_times_are_iso_milliseconds(log):
    data = ocel_to_dict(log)
    assert data["events"], "log must contain events"
    for entry in data["events"]:
        assert ISO_MS.match(entry["time"]), entry["time"]


def test_top_level_shape(log):
    data = ocel_to_dict(log)
    assert set(data) == {"objectTypes", "eventTypes", "objects", "events"}
    assert [t["name"] for t in data["objectTypes"]] == sorted(
        t["name"] for t in data["objectTypes"])
    for section in ("objectTypes", "eventTypes"):
        for t in data[section]:
            assert set(t) == {"name", "attributes"}
            for attr in t["attributes"]:
                assert set(attr) == {"name", "type"}


def tiny_log() -> OcelLog:
    t0 = datetime(2020, 7, 1, 15, 0, 0, tzinfo=UTC)
    objects = [
        OcelObject("Home", "team", {"side": "Home"}),
        OcelObject("m1", "match", {"kickoff": "2020-07-01T15:00:00.000Z"}),
    ]
    events = [
        OcelEvent("e1", "Pass", t0, {"period": 1, "duration_s": 0.5},
                  (("m1", "match"), ("Home", "team"))),
        OcelEvent("e2", "Pass", t0 + timedelta(seconds=2), {"period": 1, "duration_s": 1.0},
                  (("m1", "match"),)),
    ]
    return OcelLog(objects, events)


def write_mutated(tmp_path, mutate):
    log = tiny_log()
    path = tmp_path / "log.json"
    write_ocel_json(log, path)
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("events"), "missing key"),
    (lambda d: d.update(extra=1), "unexpected key"),
    (lambda d: d["objects"][0].update(bogus=1), "$.objects[0]"),
    (lambda d: d["objects"].append(dict(d["objects"][0])), "duplicate object id"),
    (lambda d: d["objects"][0].update(type="alien"), "$.objects[0].type"),
    (lambda d: d["events"][0]["relationships"][0].update(objectId="ghost"),
     "$.events[0].relationships[0].objectId"),
    (lambda d: d["events"][0]["relationships"][0].update(qualifier="buddy"),
     "unknown qualifier"),
    (lambda d: d["events"][0].update(time="yesterday"), "$.events[0].time"),
    (lambda d: d["events"][0].update(time="2020-07-01T15:00:00.000"), "lacks a UTC offset"),
    (lambda d: d["events"].reverse(), "not sorted by (time, id)"),
    (lambda d: d["events"][0]["attributes"].append({"name": "mystery", "value": 1}),
     "undeclared attribute"),
    (lambda d: d["events"][0]["attributes"][0].update(value="one"), "expected"),
    (lambda d: d["eventTypes"][0].update(attributes={}), "expected an array"),
    (lambda d: d["events"][0].pop("relationships"), "missing key"),
    # JSON arrays and objects where the reader looks a string up in a dict or set
    (lambda d: d["objectTypes"][0]["attributes"][0].update(name=["kickoff"]),
     "$.objectTypes[0].attributes[0].name: expected a string"),
    (lambda d: d["objects"][0].update(type=["team"]), "$.objects[0].type: undeclared object type"),
    (lambda d: d["objects"][0]["attributes"][0].update(name={"side": 1}),
     "$.objects[0].attributes[0].name: undeclared attribute"),
    (lambda d: d["events"][0].update(type=["Pass"]), "$.events[0].type: undeclared event type"),
    (lambda d: d["events"][0]["relationships"][0].update(objectId=["m1"]),
     "$.events[0].relationships[0].objectId: unknown object"),
    (lambda d: d["events"][0]["relationships"][0].update(qualifier={"q": "match"}),
     "$.events[0].relationships[0].qualifier: unknown qualifier"),
])
def test_reader_rejects_malformed_logs(tmp_path, capsys, mutate, fragment):
    path = write_mutated(tmp_path, mutate)
    with pytest.raises(ParseError) as err:
        read_ocel_json(path)
    assert str(err.value).startswith(f"{path}: $")
    assert fragment in str(err.value)
    assert main(["stats", "--ocel", str(path)]) == 1
    assert fragment in capsys.readouterr().err


def test_reader_allows_integers_under_float_attributes(tmp_path):
    def widen(d):
        # duration_s is declared float; an integer-valued row must still pass
        d["events"][0]["attributes"] = [
            a if a["name"] != "duration_s" else {"name": "duration_s", "value": 2}
            for a in d["events"][0]["attributes"]
        ]
    path = write_mutated(tmp_path, widen)
    log = read_ocel_json(path)
    assert log.events[0].attrs["duration_s"] == 2


def test_mixed_int_float_attribute_promotes_to_float():
    t0 = datetime(2020, 7, 1, 15, 0, 0, tzinfo=UTC)
    log = OcelLog(
        [OcelObject("m1", "match", {})],
        [
            OcelEvent("e1", "Pass", t0, {"duration_s": 1}, (("m1", "match"),)),
            OcelEvent("e2", "Pass", t0, {"duration_s": 1.5}, (("m1", "match"),)),
        ],
    )
    data = ocel_to_dict(log)
    pass_type, = data["eventTypes"]
    assert pass_type["attributes"] == [{"name": "duration_s", "type": "float"}]


def test_incompatible_attribute_types_are_rejected():
    t0 = datetime(2020, 7, 1, 15, 0, 0, tzinfo=UTC)
    log = OcelLog(
        [OcelObject("m1", "match", {})],
        [
            OcelEvent("e1", "Pass", t0, {"subtype": "A"}, (("m1", "match"),)),
            OcelEvent("e2", "Pass", t0, {"subtype": 7}, (("m1", "match"),)),
        ],
    )
    with pytest.raises(ConsistencyError, match="mixes"):
        ocel_to_dict(log)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_attribute_is_refused_and_leaves_the_file(tmp_path, value):
    log = tiny_log()
    path = tmp_path / "log.json"
    write_ocel_json(log, path)
    before = path.read_bytes()
    log.events[1] = replace(log.events[1], attrs={"period": 1, "duration_s": value})
    with pytest.raises(ConsistencyError, match="attribute 'duration_s' has non-finite value"):
        write_ocel_json(log, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("token, fragment", [
    ("NaN", "$: NaN is not a JSON number"),
    ("Infinity", "$: Infinity is not a JSON number"),
    ("-Infinity", "$: -Infinity is not a JSON number"),
    ("1e999", "$.events[1].attributes[0].value: expected float, got inf"),
])
def test_reader_rejects_non_finite_numbers(tmp_path, capsys, token, fragment):
    path = tmp_path / "log.json"
    write_ocel_json(tiny_log(), path)
    text = path.read_text()
    assert text.count('"value": 1.0') == 1
    path.write_text(text.replace('"value": 1.0', f'"value": {token}'))
    with pytest.raises(ParseError) as err:
        read_ocel_json(path)
    assert str(err.value) == f"{path}: {fragment}"
    assert main(["stats", "--ocel", str(path)]) == 1
    assert fragment in capsys.readouterr().err


# --- invariant checking and concatenation ---

def test_validate_log_accepts_the_synthetic_log(log):
    validate_log(log)


def bad_log(events, objects=None):
    objects = objects if objects is not None else [OcelObject("m1", "match", {})]
    return OcelLog(objects, events)


def test_validate_log_violations():
    t0 = datetime(2020, 7, 1, 15, 0, 0, tzinfo=UTC)
    ok = OcelEvent("e1", "Pass", t0, {}, (("m1", "match"),))
    with pytest.raises(ConsistencyError, match="duplicate object id"):
        validate_log(bad_log([], objects=[OcelObject("x", "match", {})] * 2))
    with pytest.raises(ConsistencyError, match="unknown type"):
        validate_log(bad_log([], objects=[OcelObject("x", "referee", {})]))
    with pytest.raises(ConsistencyError, match="duplicate event id"):
        validate_log(bad_log([ok, ok]))
    with pytest.raises(ConsistencyError, match="relates to no objects"):
        validate_log(bad_log([OcelEvent("e1", "Pass", t0, {}, ())]))
    with pytest.raises(ConsistencyError, match="unknown object"):
        validate_log(bad_log([OcelEvent("e1", "Pass", t0, {}, (("ghost", "match"),))]))
    with pytest.raises(ConsistencyError, match="unknown qualifier"):
        validate_log(bad_log([OcelEvent("e1", "Pass", t0, {}, (("m1", "referee"),))]))
    with pytest.raises(ConsistencyError, match="ordering"):
        validate_log(bad_log([
            OcelEvent("e2", "Pass", t0 + timedelta(seconds=1), {}, (("m1", "match"),)),
            OcelEvent("e3", "Pass", t0, {}, (("m1", "match"),)),
        ]))


def test_concat_logs_renumbers_globally():
    """Ids are one sequence across groups, padded to the log's total; concat only joins."""
    def shot(time_s):
        return ActivityEvent("Shot", BALL, time_s, 1, None, (), (), None, None, {})

    objects = [OcelObject("m1", "match", {}), OcelObject("m2", "match", {}),
               OcelObject("ball", "ball", {})]
    group1 = events_to_ocel([shot(1.0), shot(2.0)], "m1", match_epoch(0),
                            IdentityScope.GLOBAL, first=0, total=3)
    group2 = events_to_ocel([shot(1.0)], "m2", match_epoch(1),
                            IdentityScope.GLOBAL, first=2, total=3)
    log = concat_logs(objects, [group1, group2])
    assert [e.eid for e in log.events] == ["e000001", "e000002", "e000003"]
    assert log.events == group1 + group2
    wide = events_to_ocel([shot(1.0)], "m1", match_epoch(0), IdentityScope.GLOBAL,
                          first=0, total=1_000_000)
    assert [e.eid for e in wide] == ["e0000001"]
    with pytest.raises(ConsistencyError, match="duplicate event id"):
        concat_logs(objects, [group1, group1])


def test_convert_builds_each_event_once(synth_paths, monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(OcelEvent(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ocel_module, "OcelEvent", counting)
    log, _ = convert_matches([synth_paths, replace(synth_paths, match_id="game2")])
    assert len(built) == len(log.events)
    assert all(a is b for a, b in zip(built, log.events))
    assert all(e.eid for e in built)


# --- summary statistics ---

def test_stats_totals_are_consistent(log):
    s = stats(log)
    assert s.n_events == len(log.events)
    assert s.n_objects == len(log.objects)
    assert s.n_primary_events + s.n_end_events == s.n_events
    ends = (s.events_by_activity.get("Pass received", 0)
            + s.events_by_activity.get("Goal", 0))
    assert s.n_end_events == ends
    assert sum(s.events_by_class.values()) == s.n_events
    assert sum(s.events_by_activity.values()) == s.n_events
    assert s.n_matches == 1
    assert s.n_possessions == s.objects_by_type["possession"]
    text = s.to_text()
    assert text.splitlines()[0] == f"events            {s.n_events}"
    assert "type possession" in text


def test_stats_of_an_empty_log():
    s = stats(OcelLog([], []))
    assert s.n_events == 0 and s.n_objects == 0
    assert s.n_matches == 0 and s.n_possessions == 0
