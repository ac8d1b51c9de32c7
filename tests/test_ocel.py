"""Object universe, event wiring, serialization and structural validation."""

import copy
import io
import json
import math
import re
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import FrozenInstanceError, replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

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
from oracles import ocel_to_dict, reference_read_ocel

UTC = timezone.utc
ISO_MS = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z$")


# --- time handling ---

def test_format_time_is_millisecond_utc():
    assert format_time(datetime(2020, 7, 1, 15, 0, 0, tzinfo=UTC)) == "2020-07-01T15:00:00.000Z"
    assert format_time(datetime(2020, 7, 1, 15, 0, 0, 42000, tzinfo=UTC)).endswith(".042Z")
    # any zero offset is UTC, whatever its name; milliseconds are truncated
    gmt = timezone(timedelta(0), "GMT")
    assert format_time(datetime(2020, 7, 1, 15, 0, 0, 42999, tzinfo=gmt)) == "2020-07-01T15:00:00.042Z"
    with pytest.raises(ConsistencyError):
        format_time(datetime(2020, 7, 1, 15, 0, 0))  # naive


def test_event_time_quantizes_to_milliseconds():
    t = event_time(EPOCH_BASE, 0.0416)
    assert t.microsecond == 42000
    assert format_time(t) == "2020-07-01T15:00:00.042Z"


def test_parse_time_accepts_z_suffix():
    t = parse_time("2020-07-01T15:00:00.042Z")
    assert t == datetime(2020, 7, 1, 15, 0, 0, 42000, tzinfo=UTC)
    assert parse_time("2020-07-01T16:00:00.000+01:00") == \
        datetime(2020, 7, 1, 15, 0, 0, tzinfo=UTC)
    with pytest.raises(ParseError, match="lacks a UTC offset"):
        parse_time("2020-07-01T15:00:00.000")
    with pytest.raises(ParseError, match="invalid ISO-8601"):
        parse_time("yesterday")


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
    index = log.object_index
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
    span = PossessionSpan("AA001", "Home", 1, 0.0, 1.0, "lost")
    rosters = {"Home": ("HomePlayer1",), "Away": ()}
    with pytest.raises(ConsistencyError, match="conflicting definitions"):
        build_objects(
            [("m1", rosters, [span]), ("m2", rosters, [span])],  # same span id claimed by both
            GridSpec(),
        )


def test_a_long_match_id_is_echoed_cut():
    long = "M" * 5000
    cut = repr(long)[:80] + "..."
    with pytest.raises(ConsistencyError) as err:
        build_objects([(long, {"Home": (long,), "Away": ()}, ())], GridSpec())
    assert str(err.value) == f"match id {cut} is also the id of a player object"
    with pytest.raises(ConsistencyError) as err:
        build_objects([("m1", {"Home": (long,), "Away": (long,)}, ())], GridSpec())
    assert str(err.value) == f"conflicting definitions for object {cut}"

    def shot(time_s):
        return ActivityEvent("Shot", BALL, time_s, 1, None, (), (), {})
    with pytest.raises(ConsistencyError) as err:
        events_to_ocel([(long, [shot(2.0), shot(1.0)])], IdentityScope.GLOBAL)
    assert str(err.value).startswith(
        f"match {cut}: period 1 time 1.0 s comes before period 1 time 2.0 s")


def test_long_ids_and_attribute_names_are_echoed_cut(tmp_path):
    long = "E" * 5000
    cut = repr(long)[:80] + "..."
    log = tiny_log()
    first, last = log.events
    for events, message in (
        ((replace(first, eid=long), replace(last, eid=long)), f"duplicate event id {cut}"),
        ((replace(first, relations=((long, "match"),)), last),
         f"event 'e1' references unknown object {cut}"),
        ((first, replace(last, relations=(("m1", long),))),
         f"event 'e2' uses unknown qualifier {cut}"),
    ):
        with pytest.raises(ConsistencyError) as err:
            validate_log(replace(log, events=events))
        assert str(err.value) == message
    last = replace(last, attrs={"period": 1, long: math.inf})
    with pytest.raises(ConsistencyError) as err:
        write_ocel_json(replace(log, events=(first, last)), tmp_path / "log.json")
    assert str(err.value) == f"attribute {cut} has non-finite value inf"
    assert not (tmp_path / "log.json").exists()


def test_per_match_scope_prefixes_shared_objects():
    rosters = {"Home": ("HomePlayer1",), "Away": ("AwayPlayer21",)}
    objects = build_objects([("m1", rosters, ())], GridSpec(), IdentityScope.PER_MATCH)
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
    index = log.object_index
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


def written(log, tmp_path) -> dict:
    path = tmp_path / "written.json"
    write_ocel_json(log, path)
    return json.loads(path.read_text(encoding="utf-8"))


def test_serialized_times_are_iso_milliseconds(log, tmp_path):
    data = written(log, tmp_path)
    assert data["events"], "log must contain events"
    for entry in data["events"]:
        assert ISO_MS.match(entry["time"]), entry["time"]


def test_top_level_shape(log, tmp_path):
    data = written(log, tmp_path)
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
    # json.load gives a bool, which Python counts as an int, for true and false
    (lambda d: d["events"][0]["attributes"][0].update(value=True),
     "$.events[0].attributes[0].value: expected float, got True"),
    (lambda d: d["events"][0]["attributes"][1].update(value=False),
     "$.events[0].attributes[1].value: expected integer, got False"),
    # a key renamed: the entry keeps its key count, so counting keys is not enough
    (lambda d: d["objects"][0].update(extra=d["objects"][0].pop("attributes")),
     "$.objects[0]: missing key(s) ['attributes']"),
    (lambda d: d["events"][1].update(extra=d["events"][1].pop("attributes")),
     "$.events[1]: missing key(s) ['attributes']"),
    (lambda d: d["events"][1].update(extra=d["events"][1].pop("relationships")),
     "$.events[1]: missing key(s) ['relationships']"),
    (lambda d: d["events"][0]["attributes"][0].update(
        extra=d["events"][0]["attributes"][0].pop("value")),
     "$.events[0].attributes[0]: missing key(s) ['value']"),
    (lambda d: d["events"][0]["relationships"][1].update(
        extra=d["events"][0]["relationships"][1].pop("qualifier")),
     "$.events[0].relationships[1]: missing key(s) ['qualifier']"),
    # an echoed value is cut to 80 characters of its repr
    (lambda d: d["events"][0].update(type="x" * 100_000),
     "$.events[0].type: undeclared event type '" + "x" * 79 + "..."),
])
def test_reader_rejects_malformed_logs(tmp_path, capsys, mutate, fragment):
    path = write_mutated(tmp_path, mutate)
    with pytest.raises(ParseError) as err:
        read_ocel_json(path)
    assert str(err.value).startswith(f"{path}: $")
    assert fragment in str(err.value)
    assert main(["stats", "--ocel", str(path)]) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "0001-01-01T00:00:00.000+01:00", "9999-12-31T23:59:59.000-01:00",
])
def test_reader_rejects_a_time_out_of_range(tmp_path, capsys, text):
    # a valid ISO-8601 time whose UTC instant falls outside years 1..9999
    path = write_mutated(tmp_path, lambda d: d["events"][0].update(time=text))
    message = f"$.events[0].time: time {text!r} out of range"
    with pytest.raises(ParseError) as err:
        read_ocel_json(path)
    assert str(err.value) == f"{path}: {message}"
    assert main(["stats", "--ocel", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_reader_rejects_a_duplicate_attribute_declaration(tmp_path, capsys):
    # declared string first; an integer redeclaration must not win
    path = write_mutated(tmp_path, lambda d: d["objectTypes"][0]["attributes"].append(
        {"name": "kickoff", "type": "integer"}))
    message = "$.objectTypes[0].attributes[1].name: duplicate attribute 'kickoff'"
    with pytest.raises(ParseError) as err:
        read_ocel_json(path)
    assert str(err.value) == f"{path}: {message}"
    assert main(["stats", "--ocel", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("year", [999, 1])
def test_times_before_year_1000_round_trip(tmp_path, year):
    t = datetime(year, 1, 1, tzinfo=UTC)
    log = OcelLog([OcelObject("m1", "match", {})],
                  [OcelEvent("e1", "Pass", t, {}, (("m1", "match"),))])
    path = tmp_path / "log.json"
    write_ocel_json(log, path)
    assert f'"time": "{year:04d}-01-01T00:00:00.000Z"' in path.read_text(encoding="utf-8")
    assert read_ocel_json(path) == log


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


def test_mixed_int_float_attribute_promotes_to_float(tmp_path):
    t0 = datetime(2020, 7, 1, 15, 0, 0, tzinfo=UTC)
    log = OcelLog(
        [OcelObject("m1", "match", {})],
        [
            OcelEvent("e1", "Pass", t0, {"duration_s": 1}, (("m1", "match"),)),
            OcelEvent("e2", "Pass", t0, {"duration_s": 1.5}, (("m1", "match"),)),
        ],
    )
    data = written(log, tmp_path)
    pass_type, = data["eventTypes"]
    assert pass_type["attributes"] == [{"name": "duration_s", "type": "float"}]


def test_incompatible_attribute_types_are_rejected(tmp_path):
    t0 = datetime(2020, 7, 1, 15, 0, 0, tzinfo=UTC)
    log = OcelLog(
        [OcelObject("m1", "match", {})],
        [
            OcelEvent("e1", "Pass", t0, {"subtype": "A"}, (("m1", "match"),)),
            OcelEvent("e2", "Pass", t0, {"subtype": 7}, (("m1", "match"),)),
        ],
    )
    with pytest.raises(ConsistencyError, match="mixes"):
        write_ocel_json(log, tmp_path / "log.json")
    assert not (tmp_path / "log.json").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_attribute_is_refused_and_leaves_the_file(tmp_path, value):
    log = tiny_log()
    path = tmp_path / "log.json"
    write_ocel_json(log, path)
    before = path.read_bytes()
    # on the last event: a writer that formats after opening the file would
    # already have truncated it and written every event before this one
    last = replace(log.events[-1], attrs={"period": 1, "duration_s": value})
    log = replace(log, events=(*log.events[:-1], last))
    with pytest.raises(ConsistencyError, match="attribute 'duration_s' has non-finite value"):
        write_ocel_json(log, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("value, shown_as", [(None, "None"), ([1], "[1]")], ids=["none", "list"])
def test_unsupported_attribute_is_refused_and_leaves_the_file(tmp_path, value, shown_as):
    log = tiny_log()
    path = tmp_path / "log.json"
    write_ocel_json(log, path)
    before = path.read_bytes()
    last = replace(log.events[-1], attrs={"period": 1, "duration_s": value})
    log = replace(log, events=(*log.events[:-1], last))
    with pytest.raises(ConsistencyError) as err:
        write_ocel_json(log, path)
    assert str(err.value) == f"attribute 'duration_s' has unsupported value {shown_as}"
    assert path.read_bytes() == before


@pytest.mark.parametrize("tzinfo", [None, timezone(timedelta(hours=1)),
                                    timezone(timedelta(seconds=30))],
                         ids=["naive", "cet", "thirty-seconds"])
def test_non_utc_time_on_the_last_event_is_refused_and_leaves_the_file(tmp_path, tzinfo):
    log = tiny_log()
    path = tmp_path / "log.json"
    write_ocel_json(log, path)
    before = path.read_bytes()
    last = log.events[-1]
    last = replace(last, time=last.time.replace(tzinfo=tzinfo))
    log = replace(log, events=(*log.events[:-1], last))
    with pytest.raises(ConsistencyError, match="event times must be UTC"):
        write_ocel_json(log, path)
    assert path.read_bytes() == before


# strings that json.dumps escapes or passes through as non-ASCII text
_TRICKY = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "⚽", "\u2028", "ß😀"])
_TEXT = st.lists(st.one_of(st.text(max_size=4), _TRICKY), max_size=3).map("".join)
_VALUES = {
    "string": _TEXT,
    # 0 and 1 equal False and True, and hash alike
    "integer": st.one_of(st.integers(0, 1), st.integers(min_value=-10**20, max_value=10**20)),
    # ints in a float-declared attribute are written as ints
    "float": st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-99, 99)),
    "boolean": st.booleans(),
}


@st.composite
def logs(draw) -> OcelLog:
    """Logs whose attribute kinds are consistent per name within each object
    or event type, so every log is writable.  One name may take another kind
    on another type (boolean on one, integer on the next), and values and
    relationships repeat across entries."""
    names = draw(st.lists(_TEXT, unique=True, max_size=4))
    # each kind's values: a few drawn once and reused, or fresh ones
    values = {kind: st.one_of(st.sampled_from(draw(st.lists(strategy, min_size=1, max_size=3))),
                              strategy)
              for kind, strategy in _VALUES.items()}
    kinds: dict[tuple[str, str], dict[str, str]] = {}  # (section, type) -> name -> kind

    def attrs(section: str, type_name: str) -> dict:
        kind_of = kinds.get((section, type_name))
        if kind_of is None:
            kind_of = kinds[section, type_name] = {
                name: draw(st.sampled_from(sorted(_VALUES))) for name in names}
        chosen = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
        return {name: draw(values[kind_of[name]]) for name in chosen}

    types = st.one_of(st.sampled_from(["team", "Pass"]), _TEXT)
    objects = []
    for _ in range(draw(st.integers(0, 3))):
        otype = draw(types)
        objects.append(OcelObject(draw(_TEXT), otype, attrs("object", otype)))
    times = st.datetimes(min_value=datetime(2000, 1, 1), timezones=st.just(UTC))
    relations = st.lists(st.tuples(_TEXT, _TEXT), min_size=1, max_size=3)
    relation = st.one_of(st.sampled_from(draw(relations)), st.tuples(_TEXT, _TEXT))
    events = []
    for _ in range(draw(st.integers(0, 3))):
        etype = draw(types)
        events.append(OcelEvent(draw(_TEXT), etype, draw(times), attrs("event", etype),
                                tuple(draw(st.lists(relation, max_size=3)))))
    return OcelLog(objects, events)


@settings(max_examples=300, deadline=None)
@given(log=logs())
def test_writer_matches_the_json_dumps_oracle(tmp_path_factory, log):
    path = tmp_path_factory.getbasetemp() / "oracle.json"
    write_ocel_json(log, path)
    expected = json.dumps(ocel_to_dict(log), indent=2, ensure_ascii=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def test_the_empty_log_is_written_like_the_oracle(tmp_path):
    path = tmp_path / "empty.json"
    write_ocel_json(OcelLog([], []), path)
    assert path.read_text(encoding="utf-8") == (
        '{\n  "objectTypes": [],\n  "eventTypes": [],\n  "objects": [],\n  "events": []\n}\n'
    )


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


# --- the reader against its reference, on mutated logs ---

def mutation_base_log() -> OcelLog:
    """Several object and event types, all four attribute types, relationships."""
    t0 = datetime(2020, 7, 1, 15, 0, 0, tzinfo=UTC)
    objects = [
        OcelObject("m1", "match", {"kickoff": "2020-07-01T15:00:00.000Z"}),
        OcelObject("Home", "team", {"side": "Home"}),
        OcelObject("P1", "player", {"side": "Home", "number": 7, "captain": True}),
        OcelObject("P2", "player", {"side": "Home", "number": 9, "captain": False}),
        OcelObject("ball", "ball", {}),
        OcelObject("AA001", "possession", {"team": "Home", "start_time_s": 0.0, "end_time_s": 2.5}),
    ]
    events = [
        OcelEvent("e1", "Pass", t0, {"period": 1, "x": 0.5, "subtype": "HEAD", "success": True},
                  (("m1", "match"), ("Home", "team"), ("P1", "executing_player"),
                   ("P2", "receiving_player"), ("AA001", "possession"), ("ball", "ball"))),
        OcelEvent("e2", "Pass received", t0 + timedelta(seconds=1.5), {"period": 1, "x": 0.75},
                  (("m1", "match"), ("P2", "receiving_player"), ("AA001", "possession"))),
        OcelEvent("e3", "Shot", t0 + timedelta(seconds=2.5), {"period": 1, "success": False},
                  (("m1", "match"), ("P2", "executing_player"), ("ball", "ball"))),
    ]
    return OcelLog(objects, events)


_INF = "\x00inf\x00"  # stands for the token 1e999, which json.load reads as inf
_OTHER_KINDS = [[], {}, None, True, False, 10**400, _INF, "",
                "0001-01-01T00:00:00.000+01:00", "9999-12-31T23:59:59.000-01:00"]
# every key of the log's layout, and one that belongs to none of them
_KEYS = ["extra", "objectTypes", "eventTypes", "objects", "events", "id", "name", "type",
         "time", "attributes", "relationships", "value", "objectId", "qualifier"]


def json_nodes(node, path=()):
    """(path, value) of every value in a JSON tree, the tree itself first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from json_nodes(child, path + (key,))


# what may happen to the whole text once its tree is mutated and laid out
_TOP_LEVEL = [None, "reorder keys", "repeat key", "text after", "NaN", "syntax error"]


@st.composite
def mutated_texts(draw, text: str) -> str:
    """The JSON text with 1-2 mutations below its root.  Each is at a path drawn
    by its shape: the shape of the entry holding it and its key there (a name,
    or any index), all such pairs alike.  So the few paths of a shape such as
    $.events[].time are drawn as often as the many of $.objects[].attributes[].name,
    and a key is renamed in one entry shape as often as it is deleted.

    The tree is laid out compact or as the writer lays it out, and may then
    take one top-level mutation: its keys reordered, a top-level key repeated
    before or after the others, text after the closing brace, or a NaN or a
    syntax error at the end of the last array, after any entry the mutations
    above made fail a check."""
    tree = json.loads(text)
    for _ in range(draw(st.integers(1, 2))):
        nodes = dict(json_nodes(tree))
        by_shape: dict[tuple, list] = {}
        for path in list(nodes)[1:]:
            by_shape.setdefault(tuple(None if isinstance(k, int) else k for k in path),
                                []).append(path)
        path = draw(st.sampled_from(by_shape[draw(st.sampled_from(list(by_shape)))]))
        node, parent = nodes[path], nodes[path[:-1]]
        kinds = ["replace", "delete"] + ["add key"] * isinstance(node, dict) \
            + ["duplicate"] * isinstance(parent, list) + ["reverse"] * isinstance(node, list) \
            + ["rename key"] * isinstance(parent, dict)
        kind = draw(st.sampled_from(kinds))
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "add key":
            node[draw(st.sampled_from(["extra", "id", "name", "type", "time", "value"]))] = 1
        elif kind == "rename key":  # the key count stays, so only the names can tell
            new = draw(st.sampled_from([k for k in _KEYS if k not in parent]))
            parent[new] = parent.pop(path[-1])
        elif kind == "duplicate":
            parent.insert(path[-1], copy.deepcopy(node))
        elif kind == "reverse":
            node.reverse()
        else:  # another JSON kind, or a scalar from elsewhere in the log; a copy,
            # so a second mutation of the [] or {} cannot change _OTHER_KINDS
            scalars = [v for v in nodes.values() if not isinstance(v, (dict, list))]
            parent[path[-1]] = copy.deepcopy(draw(st.one_of(st.sampled_from(_OTHER_KINDS),
                                                            st.sampled_from(scalars))))
    top = draw(st.sampled_from(_TOP_LEVEL))
    if top == "reorder keys":
        tree = {key: tree[key] for key in draw(st.permutations(list(tree)))}
    if draw(st.booleans()):
        text = json.dumps(tree)
    else:  # the writer's layout
        text = json.dumps(tree, indent=2, ensure_ascii=False) + "\n"
    if top == "repeat key":
        key = draw(st.sampled_from(_KEYS[1:5]))
        member = f'"{key}": ' + json.dumps(draw(st.sampled_from([[], tree.get(key, [])])))
        end = text.rindex("}")
        text = (text.replace("{", "{" + member + ",", 1) if draw(st.booleans())
                else text[:end] + ", " + member + text[end:])
    elif top == "text after":
        text += draw(st.sampled_from(["x", "{}", "]", "0", " \n"]))
    elif top in ("NaN", "syntax error"):
        end = text.rindex("]")
        text = text[:end] + (", NaN" if top == "NaN" else ",") + text[end:]
    return text.replace(json.dumps(_INF), "1e999")


def read_outcome(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return f"ParseError: {exc}"


@pytest.fixture(scope="module")
def mutation_base_text(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("mutation") / "base.json"
    write_ocel_json(mutation_base_log(), path)
    return path.read_text(encoding="utf-8")


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_reader_agrees_with_its_reference_on_mutated_logs(
        tmp_path_factory, mutation_base_text, data):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(data.draw(mutated_texts(mutation_base_text)), encoding="utf-8")
    # an exception other than ParseError escapes and fails the test
    assert read_outcome(read_ocel_json, path) == read_outcome(reference_read_ocel, path)
    # so does one from a command that reads and queries the log
    commands = [
        ["stats"],
        ["dfg", "--types", "ball,player", "--where", "player.number=7"],
        ["spatial", "--possession", "AA001", "--types", "ball,player"],
    ]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for command in commands:
            assert main([*command, "--ocel", str(path)]) in (0, 1), command


def test_valid_logs_never_take_the_located_walk(log, tmp_path, monkeypatch):
    # the synthetic match's log, and the mutation base with an integer under
    # the float attribute x: every attributes and relationships array must
    # pass the bulk checks
    converted = tmp_path / "converted.json"
    write_ocel_json(log, converted)
    base = tmp_path / "base.json"
    write_ocel_json(mutation_base_log(), base)
    text = base.read_text(encoding="utf-8")
    assert text.count('"value": 0.75') == 1
    base.write_text(text.replace('"value": 0.75', '"value": 1'), encoding="utf-8")
    expected = [read_ocel_json(converted), read_ocel_json(base)]
    assert expected[1].events[1].attrs["x"] == 1

    def located(array, known, path):
        raise AssertionError(f"{path} took the located walk")
    monkeypatch.setattr(ocel_module, "_read_attributes", located)
    monkeypatch.setattr(ocel_module, "_read_relationships", located)
    assert [read_ocel_json(converted), read_ocel_json(base)] == expected


def test_valid_logs_are_streamed_not_read_whole(log, tmp_path, monkeypatch):
    # the converted log, compact or as the writer lays it out, with its
    # top-level keys in any order as long as events comes last: none may
    # fall back to the whole-tree path
    path = tmp_path / "log.json"
    write_ocel_json(log, path)
    tree = json.loads(path.read_text(encoding="utf-8"))
    expected = ocel_module._whole_tree_log(path)
    assert expected == log
    layouts = [path]
    for i, keys in enumerate([["objects", "eventTypes", "objectTypes", "events"],
                              list(tree)]):
        other = tmp_path / f"other{i}.json"
        other.write_text(json.dumps({k: tree[k] for k in keys}), encoding="utf-8")
        layouts.append(other)

    def whole(path):
        raise AssertionError(f"{path} took the whole-tree path")
    monkeypatch.setattr(ocel_module, "_whole_tree_log", whole)
    for layout in layouts:
        assert read_ocel_json(layout) == expected
    again = tmp_path / "again.json"
    write_ocel_json(read_ocel_json(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_a_streamed_log_shares_its_repeated_values(log, tmp_path):
    path = tmp_path / "log.json"
    write_ocel_json(log, path)
    read = read_ocel_json(path)
    ids = {o.oid: o.oid for o in read.objects}
    relations, strings = {}, {}
    for e in read.events:
        for rel in e.relations:
            assert relations.setdefault(rel, rel) is rel
            assert rel[0] is ids[rel[0]]
        for value in [e.etype, *e.attrs, *e.attrs.values()]:
            if isinstance(value, str):
                assert strings.setdefault(value, value) is value
    assert len(relations) < sum(len(e.relations) for e in read.events) / 10


def test_reading_a_log_peaks_below_three_times_its_file(log, tmp_path):
    # the text and the log, but no JSON tree: a whole-tree read peaks at
    # about 4.5 times the file, the streamed one at about 2
    path = tmp_path / "log.json"
    write_ocel_json(log, path)
    tracemalloc.start()
    try:
        read_ocel_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * path.stat().st_size


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
    """Ids are one sequence across matches, padded to the log's total; concat only joins."""
    def shot(time_s):
        return ActivityEvent("Shot", BALL, time_s, 1, None, (), (), {})

    class Million:
        """A million events by count and one by iteration: the id width, unwired."""

        def __len__(self):
            return 1_000_000

        def __iter__(self):
            return iter([shot(1.0)])

    objects = [OcelObject("m1", "match", {}), OcelObject("m2", "match", {}),
               OcelObject("ball", "ball", {})]
    events = events_to_ocel([("m1", [shot(1.0), shot(2.0)]), ("m2", [shot(1.0)])],
                            IdentityScope.GLOBAL)
    log = concat_logs(objects, events)
    assert [e.eid for e in log.events] == ["e000001", "e000002", "e000003"]
    assert log.events == tuple(events)
    second = timedelta(seconds=1)
    assert [e.time for e in events] == [match_epoch(0) + second, match_epoch(0) + 2 * second,
                                        match_epoch(1) + second]
    wide = events_to_ocel([("m1", [shot(1.0)]), ("m2", Million())], IdentityScope.GLOBAL)
    assert [e.eid for e in wide] == ["e0000001", "e0000002"]
    with pytest.raises(ConsistencyError, match="duplicate event id"):
        concat_logs(objects, events + events)


def test_an_overlap_is_reported_before_a_later_fault_of_the_next_match():
    def shot(time_s, event_class=BALL):
        return ActivityEvent("Shot", event_class, time_s, 1, None, (), (), {})

    late, early = [shot(200000.0)], [shot(1.0), shot(2.0, "bogus")]
    with pytest.raises(ConsistencyError) as err:
        events_to_ocel([("g1", late), ("g2", early)], IdentityScope.GLOBAL)
    assert str(err.value) == (
        "match 'g2': period 1 time 1.0 s comes before period 1 time 200000.0 s of match 'g1'; "
        "matches lie a day apart, so each must end before the next begins")
    # an empty match in between: the last wired event is still g1's
    with pytest.raises(ConsistencyError, match="of match 'g1'; matches lie a day apart"):
        events_to_ocel([("g1", late), ("g0", []), ("g2", early)], IdentityScope.GLOBAL)
    with pytest.raises(ConsistencyError, match="unknown event class 'bogus'"):
        events_to_ocel([("g2", early)], IdentityScope.GLOBAL)


def test_log_fields_cannot_be_assigned():
    log = tiny_log()
    assert isinstance(log.objects, tuple) and isinstance(log.events, tuple)
    with pytest.raises(FrozenInstanceError):
        log.events = ()
    with pytest.raises(FrozenInstanceError):
        log.objects = ()


def test_a_replaced_log_builds_its_own_trace_index():
    log = tiny_log()
    assert log.traces is log.traces  # built once
    assert [e.eid for e in log.traces["m1"]] == ["e1", "e2"]
    shorter = replace(log, events=log.events[:1])
    assert [e.eid for e in shorter.traces["m1"]] == ["e1"]
    assert [e.eid for e in log.traces["m1"]] == ["e1", "e2"]


def test_convert_builds_each_event_once(synth_paths, monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(OcelEvent(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ocel_module, "OcelEvent", counting)
    log = convert_matches([synth_paths, replace(synth_paths, match_id="game2")])
    assert len(built) == len(log.events)
    assert all(a is b for a, b in zip(built, log.events))
    assert all(e.eid for e in built)


# --- summary statistics ---

def test_stats_totals_are_consistent(log):
    s = stats(log)
    assert s.n_events == len(log.events)
    assert s.n_objects == len(log.objects)
    assert sum(s.events_by_class.values()) == s.n_events
    assert sum(s.events_by_activity.values()) == s.n_events
    assert s.objects_by_type["match"] == 1
    text = s.to_text()
    assert f"\npossessions       {s.objects_by_type['possession']}\n" in text
    assert text.splitlines()[0] == f"events            {s.n_events}"
    assert "type possession" in text


def test_stats_of_an_empty_log():
    s = stats(OcelLog([], []))
    assert s.n_events == 0 and s.n_objects == 0
    assert s.to_text().endswith("\npossessions       0\nmatches           0")
