"""Possession segmentation: hand-checked fixtures, a reference
implementation cross-check, and the interval-lookup oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from footocel.derive import default_activity_mapping
from footocel.ingest import RawEventRecord
from footocel.possession import (
    CONTROL_TYPES,
    goal_marked,
    match_prefix,
    possession_lookup,
    segment_possessions,
)


def mk(team, etype, subtype, period, start, end=None):
    end = start if end is None else end
    return RawEventRecord(
        team=team, event_type=etype, subtype=subtype, period=period,
        start_frame=int(start * 25), start_time_s=start,
        end_frame=int(end * 25), end_time_s=end,
        from_player="Player1", to_player=None, start_pos=None, end_pos=None,
    )


FIXTURE = [
    mk("Home", "SET PIECE", "KICK OFF", 1, 0.0),
    mk("Home", "PASS", None, 1, 2.0, 3.0),
    mk("Away", "RECOVERY", None, 1, 5.0),
    mk("Away", "SHOT", "ON TARGET-GOAL", 1, 7.0, 8.0),
    mk("Home", "SET PIECE", "KICK OFF", 1, 9.0),
    mk("Home", "PASS", None, 1, 11.0, 12.0),
    mk("Home", "BALL OUT", None, 1, 12.0),
    mk("Away", "SET PIECE", "THROW IN", 1, 13.0),
    mk("Away", "PASS", None, 1, 15.0, 16.0),
    mk("Away", "SET PIECE", "KICK OFF", 2, 100.0),
    mk("Home", "RECOVERY", None, 2, 105.0),
    mk("Home", "PASS", None, 2, 107.0, 108.0),
]


def test_fixture_segmentation():
    spans = segment_possessions(FIXTURE)
    got = [(s.span_id, s.team, s.period, s.start_time_s, s.end_time_s, s.outcome)
           for s in spans]
    assert got == [
        ("AA001", "Home", 1, 0.0, 5.0, "lost"),
        ("AA002", "Away", 1, 5.0, 9.0, "goal"),
        ("AA003", "Home", 1, 9.0, 13.0, "out_then_lost"),
        ("AA004", "Away", 1, 13.0, 16.0, "period_end"),
        ("AA005", "Away", 2, 100.0, 105.0, "lost"),
        ("AA006", "Home", 2, 105.0, 108.0, "period_end"),
    ]


def test_same_team_spans_split_at_period_boundary():
    events = [
        mk("Away", "SET PIECE", "KICK OFF", 1, 0.0),
        mk("Away", "PASS", None, 1, 2.0, 3.0),
        mk("Away", "SET PIECE", "KICK OFF", 2, 100.0),
    ]
    spans = segment_possessions(events)
    assert [(s.period, s.team) for s in spans] == [(1, "Away"), (2, "Away")]
    assert spans[0].end_time_s == 3.0


def test_events_before_first_control_belong_to_no_span():
    events = [
        mk("Home", "CHALLENGE", "GROUND", 1, 0.0),
        mk("Home", "SET PIECE", "KICK OFF", 1, 5.0),
    ]
    spans = segment_possessions(events)
    assert spans[0].start_time_s == 5.0
    span_at = possession_lookup(spans)
    assert span_at(0.0, 1) is None
    assert span_at(4.999, 1) is None


def test_empty_timeline():
    assert segment_possessions([]) == []
    assert possession_lookup([])(1.0, 1) is None


def test_every_default_control_type_is_in_the_packaged_activity_map():
    # a type the map lacks exits 2 under the default --unknown-events reject,
    # so as a default it would never open a possession
    assert CONTROL_TYPES <= default_activity_mapping().keys()


def test_custom_control_types():
    events = [
        mk("Home", "KICKOFF", None, 1, 0.0),
        mk("Away", "STEAL", None, 1, 4.0),
    ]
    spans = segment_possessions(events, control_types=frozenset({"KICKOFF", "STEAL"}))
    assert [(s.team, s.start_time_s) for s in spans] == [("Home", 0.0), ("Away", 4.0)]
    # a ball-out that is itself a control type is the span's last control: no out_then_lost
    events = [
        mk("Home", "PASS", None, 1, 0.0),
        mk("Home", "BALL OUT", None, 1, 1.0),
        mk("Away", "PASS", None, 1, 2.0),
    ]
    assert [s.outcome for s in segment_possessions(events)] == ["out_then_lost", "period_end"]
    spans = segment_possessions(events, control_types=frozenset({"PASS", "BALL OUT"}))
    assert [s.outcome for s in spans] == ["lost", "period_end"]


def test_goal_marked():
    assert goal_marked("GOAL")
    assert goal_marked("ON TARGET-GOAL")
    assert goal_marked("HEAD-ON TARGET-GOAL")
    assert not goal_marked(None)
    assert not goal_marked("")
    assert not goal_marked("ON TARGET")
    assert not goal_marked("OWN GOAL")      # whole-token match only
    assert not goal_marked("GOAL KICK")


def test_match_prefix():
    assert match_prefix(0) == "AA"
    assert match_prefix(1) == "AB"
    assert match_prefix(25) == "AZ"
    assert match_prefix(26) == "BA"
    assert match_prefix(675) == "ZZ"
    for bad in (-1, 676):
        with pytest.raises(ValueError):
            match_prefix(bad)


def test_span_ids_use_prefix_and_padding():
    spans = segment_possessions(FIXTURE, prefix="AB")
    assert [s.span_id for s in spans][:2] == ["AB001", "AB002"]


# --- reference implementation (independent structure: owner-state walk,
# span membership by scanning every event, then an order-tracking outcome
# ladder) ---

def ref_goal(subtype):
    return "GOAL" in [t.strip() for t in (subtype or "").split("-")]


def reference_spans(events, control_types=CONTROL_TYPES):
    spans = []
    owner = None
    for e in events:
        if e.event_type in control_types and owner != (e.team, e.period):
            spans.append({"team": e.team, "period": e.period, "start": e.start_time_s})
            owner = (e.team, e.period)
    out = []
    for i, s in enumerate(spans):
        nxt = spans[i + 1] if i + 1 < len(spans) else None
        last = nxt is None or nxt["period"] != s["period"]
        if last:
            end = max(e.end_time_s for e in events if e.period == s["period"])
        else:
            end = nxt["start"]
        # [start, end) within the period; the period's last span also owns its end instant
        members = [
            e for e in events
            if e.period == s["period"]
            and s["start"] <= e.start_time_s
            and (e.start_time_s < end or last and e.start_time_s <= end)
        ]
        if any(e.event_type == "SHOT" and ref_goal(e.subtype) for e in members):
            outcome = "goal"
        elif any(e.event_type == "SHOT" for e in members):
            outcome = "shot"
        elif last:
            outcome = "period_end"
        else:
            tail = None
            for e in members:  # a control type that is also BALL OUT still controls
                if e.event_type in control_types:
                    tail = "control"
                elif e.event_type == "BALL OUT":
                    tail = "out"
            outcome = "out_then_lost" if tail == "out" else "lost"
        out.append((s["team"], s["period"], s["start"], end, outcome))
    return out


TYPES = ("PASS", "SHOT", "RECOVERY", "SET PIECE", "CARRY",
         "BALL OUT", "BALL LOST", "CHALLENGE")
SUBTYPES = (None, "ON TARGET", "ON TARGET-GOAL", "OWN GOAL", "HEAD-GOAL")


@st.composite
def timelines(draw):
    n = draw(st.integers(0, 25))
    split = draw(st.integers(0, n))
    t, events = 0.0, []
    for i in range(n):
        if i > 0 and draw(st.booleans()):
            pass  # keep the same start time: simultaneous events
        else:
            t += draw(st.floats(0.04, 5.0))
        events.append(mk(
            draw(st.sampled_from(("Home", "Away"))),
            draw(st.sampled_from(TYPES)),
            draw(st.sampled_from(SUBTYPES)),
            1 if i < split else 2,
            round(t, 2),
            round(t + draw(st.floats(0, 3.0)), 2),
        ))
    return events


@settings(max_examples=300, deadline=None)
@given(timelines(), st.one_of(st.just(CONTROL_TYPES),
                              st.frozensets(st.sampled_from(TYPES), min_size=1)))
def test_segmentation_matches_reference(events, control_types):
    got = [(s.team, s.period, s.start_time_s, s.end_time_s, s.outcome)
           for s in segment_possessions(events, control_types=control_types)]
    assert got == reference_spans(events, control_types)


@settings(max_examples=200, deadline=None)
@given(timelines())
def test_spans_alternate_and_tile(events):
    spans = segment_possessions(events)
    for a, b in zip(spans, spans[1:]):
        if a.period == b.period:
            assert a.team != b.team, "consecutive spans of one period share a team"
            assert a.end_time_s == b.start_time_s, "gap or overlap between spans"
        else:
            assert a.period < b.period
    # every controlling event falls inside exactly one span; strictly
    # interior ones can only belong to their own team's run (an opposing
    # controlling event would itself have opened a span boundary there)
    span_at = possession_lookup(spans)
    for e in events:
        if e.event_type in CONTROL_TYPES:
            span = span_at(e.start_time_s, e.period)
            assert span is not None
            if span.start_time_s < e.start_time_s < span.end_time_s:
                assert span.team == e.team


@settings(max_examples=200, deadline=None)
@given(timelines(), st.floats(0, 130), st.integers(1, 2))
def test_possession_lookup_matches_linear_scan(events, time_s, period):
    spans = segment_possessions(events)
    hits = []
    for i, s in enumerate(spans):
        if s.period != period:
            continue
        last = i + 1 >= len(spans) or spans[i + 1].period != s.period
        if s.start_time_s <= time_s < s.end_time_s or (last and time_s == s.end_time_s):
            hits.append(s)
    assert len(hits) <= 1
    assert possession_lookup(spans)(time_s, period) == (hits[0] if hits else None)


def test_goal_span_count_equals_goal_marked_shots(bundle, spans):
    goals = sum(1 for e in bundle.events
                if e.event_type == "SHOT" and goal_marked(e.subtype))
    assert goals > 0, "synthetic match must contain goals"
    assert sum(1 for s in spans if s.outcome == "goal") == goals


def test_synthetic_match_spans_alternate(spans):
    assert len(spans) > 10
    for a, b in zip(spans, spans[1:]):
        if a.period == b.period:
            assert a.team != b.team
            assert a.end_time_s == b.start_time_s
