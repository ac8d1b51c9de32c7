"""Possession segmentation over the raw event timeline.

A possession span opens at the first control-establishing event of a team
different from the one currently holding the ball, and runs until the
opponent's next controlling event (half-open interval) or the end of the
period.  Spans therefore alternate teams within a period and tile the
timeline from the first controlling event of each period onward.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .ingest import RawEventRecord

# Event types that establish control of the ball, each a type of the packaged
# activity map.  Everything else (challenges, cards, fouls suffered,
# ball-out/lost markers) never opens a span on its own.
CONTROL_TYPES = frozenset({"SET PIECE", "RECOVERY", "PASS", "SHOT"})

BALL_OUT_TYPE = "BALL OUT"
SHOT_TYPE = "SHOT"

# width of the numeric part of a span id ("AA001"); grows if a match
# somehow exceeds 999 possessions
_ID_PAD = 3


def goal_marked(subtype: Optional[str]) -> bool:
    """True when a shot subtype records a goal.

    Subtypes are hyphen-joined token lists ("HEAD-ON TARGET-GOAL"); the
    check is token equality so composite tokens like "OWN GOAL" do not
    credit the shooter.
    """
    if not subtype:
        return False
    return "GOAL" in (token.strip() for token in subtype.split("-"))


def match_prefix(match_index: int) -> str:
    """Two-letter possession-id prefix per match: 0 -> "AA", 1 -> "AB", ..."""
    if not (0 <= match_index < 26 * 26):
        raise ValueError(f"match index {match_index} outside supported range 0..675")
    return chr(ord("A") + match_index // 26) + chr(ord("A") + match_index % 26)


@dataclass(frozen=True)
class PossessionSpan:
    """One team's uninterrupted control interval [start_time_s, end_time_s)."""

    span_id: str
    team: str
    period: int
    start_time_s: float
    end_time_s: float
    outcome: str


def segment_possessions(
    events: Sequence[RawEventRecord],
    prefix: str = "AA",
    control_types: frozenset[str] = CONTROL_TYPES,
) -> list[PossessionSpan]:
    """Cut the event timeline into alternating possession spans.

    Events must be ordered by start time, as parse_events returns them.  A
    span's members are the events whose start instant possession_lookup
    assigns to it, so events before the first controlling event of a period
    belong to no span.  Outcome precedence: goal > shot > period_end (final
    span of its period) > out_then_lost (a ball-out follows the span's last
    controlling event) > lost.
    """
    period_end_time: dict[int, float] = {}
    openers: list[RawEventRecord] = []
    owner: Optional[tuple[str, int]] = None  # (team, period) of the open span
    for e in events:
        period_end_time[e.period] = max(period_end_time.get(e.period, e.end_time_s), e.end_time_s)
        if e.event_type in control_types and (e.team, e.period) != owner:
            openers.append(e)
            owner = (e.team, e.period)

    spans: list[PossessionSpan] = []
    for i, opener in enumerate(openers):
        nxt = openers[i + 1] if i + 1 < len(openers) else None
        last_of_period = nxt is None or nxt.period != opener.period
        spans.append(PossessionSpan(
            span_id=f"{prefix}{i + 1:0{_ID_PAD}d}",
            team=opener.team,
            period=opener.period,
            start_time_s=opener.start_time_s,
            end_time_s=period_end_time[opener.period] if last_of_period else nxt.start_time_s,
            outcome="period_end" if last_of_period else "lost",
        ))

    members: dict[str, list[RawEventRecord]] = {s.span_id: [] for s in spans}
    span_at = possession_lookup(spans)
    for e in events:
        span = span_at(e.start_time_s, e.period)
        if span is not None:
            members[span.span_id].append(e)

    for i, span in enumerate(spans):
        own = members[span.span_id]
        outcome = span.outcome
        if any(e.event_type == SHOT_TYPE and goal_marked(e.subtype) for e in own):
            outcome = "goal"
        elif any(e.event_type == SHOT_TYPE for e in own):
            outcome = "shot"
        elif outcome == "lost":
            for e in reversed(own):
                if e.event_type in control_types:
                    break
                if e.event_type == BALL_OUT_TYPE:
                    outcome = "out_then_lost"
                    break
        spans[i] = replace(span, outcome=outcome)
    return spans


def possession_lookup(
    spans: Sequence[PossessionSpan],
) -> Callable[[float, int], Optional[PossessionSpan]]:
    """A function mapping (time_s, period) to the span owning that instant, or
    None (before the period's first span).  Spans must be in segment order.

    Containment is half-open: a span's end instant belongs to its successor.
    The final span of a period additionally owns its closed end instant, so
    events stamped exactly at the period end are not orphaned.
    """
    keys = [(s.period, s.start_time_s) for s in spans]

    def at(time_s: float, period: int) -> Optional[PossessionSpan]:
        idx = bisect_right(keys, (period, time_s)) - 1
        if idx < 0:
            return None
        span = spans[idx]
        if span.period != period:
            return None
        if time_s < span.end_time_s:
            return span
        is_last_of_period = idx + 1 >= len(spans) or spans[idx + 1].period != span.period
        if is_last_of_period and time_s == span.end_time_s:
            return span
        return None

    return at
