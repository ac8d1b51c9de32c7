"""Possession segmentation over the raw event timeline.

A possession span opens at the first control-establishing event of a team
different from the one currently holding the ball, and runs until the
opponent's next controlling event (half-open interval) or the end of the
period.  Spans therefore alternate teams within a period and tile the
timeline from the first controlling event of each period onward.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .ingest import RawEventRecord

# Event types that establish control of the ball.  Everything else
# (challenges, cards, fouls suffered, ball-out/lost markers) never opens a
# span on its own.
CONTROL_TYPES = frozenset({"SET PIECE", "RECOVERY", "PASS", "SHOT", "CARRY"})

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
    start_frame: int
    end_frame: int
    outcome: str


def segment_possessions(
    events: Sequence[RawEventRecord],
    prefix: str = "AA",
    control_types: frozenset[str] = CONTROL_TYPES,
) -> list[PossessionSpan]:
    """Cut the event timeline into alternating possession spans.

    Events must be ordered by start time, as parse_events returns them:
    each span's members are bisected out of its period's events.  Events
    before the first controlling event of a period belong to no span.
    Outcome precedence: goal > shot > period_end (final span of its period)
    > out_then_lost (the span's last ball-out is not followed by another
    controlling event) > lost.
    """
    if not events:
        return []

    period_end_time: dict[int, float] = {}
    period_end_frame: dict[int, int] = {}
    by_period: dict[int, list[RawEventRecord]] = {}
    for e in events:
        period_end_time[e.period] = max(period_end_time.get(e.period, e.end_time_s), e.end_time_s)
        period_end_frame[e.period] = max(period_end_frame.get(e.period, e.end_frame), e.end_frame)
        by_period.setdefault(e.period, []).append(e)
    starts = {p: [e.start_time_s for e in members] for p, members in by_period.items()}

    # span boundaries: (opening event, its index)
    openers: list[RawEventRecord] = []
    cur_team: Optional[str] = None
    cur_period: Optional[int] = None
    for e in events:
        if e.event_type in control_types and (e.team != cur_team or e.period != cur_period):
            openers.append(e)
            cur_team, cur_period = e.team, e.period

    spans: list[PossessionSpan] = []
    for i, opener in enumerate(openers):
        nxt = openers[i + 1] if i + 1 < len(openers) else None
        last_of_period = nxt is None or nxt.period != opener.period
        if last_of_period:
            end_time = period_end_time[opener.period]
            end_frame = period_end_frame[opener.period]
        else:
            end_time = nxt.start_time_s
            end_frame = nxt.start_frame

        # [start, end) within the period; the period's last span also owns its end instant
        period_starts = starts[opener.period]
        lo = bisect_left(period_starts, opener.start_time_s)
        hi = (bisect_right if last_of_period else bisect_left)(period_starts, end_time)
        members = by_period[opener.period][lo:hi]
        outcome = "lost"
        if any(e.event_type == SHOT_TYPE and goal_marked(e.subtype) for e in members):
            outcome = "goal"
        elif any(e.event_type == SHOT_TYPE for e in members):
            outcome = "shot"
        elif last_of_period:
            outcome = "period_end"
        elif members:
            last_out = max(
                (j for j, e in enumerate(members) if e.event_type == BALL_OUT_TYPE),
                default=None,
            )
            last_control = max(
                (j for j, e in enumerate(members) if e.event_type in control_types),
                default=None,
            )
            if last_out is not None and (last_control is None or last_out > last_control):
                outcome = "out_then_lost"

        spans.append(PossessionSpan(
            span_id=f"{prefix}{i + 1:0{_ID_PAD}d}",
            team=opener.team,
            period=opener.period,
            start_time_s=opener.start_time_s,
            end_time_s=end_time,
            start_frame=opener.start_frame,
            end_frame=end_frame,
            outcome=outcome,
        ))
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
