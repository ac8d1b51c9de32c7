"""Deterministic synthetic match generator in the provider file layout.

No real match data ships with this package, so tests and demos build their
own: a short two-period match with scripted plays (kickoffs, pass chains,
shots, goals, recoveries, throw-ins, fouls, a booking), waypoint tracking
for both sides at the reader's frame rate, a substitution at half time and
a short tracking gap.  Everything derives from one seed; the same seed
always produces byte-identical files.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from random import Random

from .ingest import EVENTS_HEADER, SAMPLE_RATE_HZ, TRACKING_TITLE_PREFIX

_TERMINALS = ("lost", "out", "goal", "saved", "offtarget")


def _fmt_time(frame: int) -> str:
    return f"{frame / SAMPLE_RATE_HZ:.2f}"


def _interp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


class _EventScript:
    """Builds the event rows of the scripted match."""

    def __init__(self, rng: Random, rosters: dict):
        self.rng = rng
        self.rosters = rosters  # side -> list of on-pitch tokens per period
        self.rows: list[list[str]] = []
        self.ball_anchors: list[tuple[int, float, float]] = []  # frame, x, y
        self.fouls = 0

    def pick(self, side: str, period: int, not_token: str | None = None) -> str:
        on_pitch = self.rosters[side][period]
        # a side of one player passes to itself
        return self.rng.choice([t for t in on_pitch if t != not_token] or on_pitch)

    def add(self, side, etype, subtype, period, f0, f1, frm, to, p0, p1):
        def fmt(pos):
            return ("", "") if pos is None else (f"{pos[0]:.2f}", f"{pos[1]:.2f}")
        x0, y0 = fmt(p0)
        x1, y1 = fmt(p1)
        self.rows.append([
            side, etype, subtype or "", str(period),
            str(f0), _fmt_time(f0), str(f1), _fmt_time(f1),
            frm or "", to or "", x0, y0, x1, y1,
        ])
        for frame, pos in ((f0, p0), (f1, p1)):
            if pos is not None:
                x = min(max(pos[0], 0.0), 1.0)
                y = min(max(pos[1], 0.0), 1.0)
                if not self.ball_anchors or self.ball_anchors[-1][0] <= frame:
                    self.ball_anchors.append((frame, x, y))

    def play(self, attacker: str, period: int, f: int, last_frame: int, play_no: int) -> tuple[str, int]:
        """One possession play; returns (next attacker, next free frame)."""
        rng = self.rng
        defender = "Away" if attacker == "Home" else "Home"
        sign = 1.0 if attacker == "Home" else -1.0  # Home attacks toward x=1
        x = 0.5 + sign * rng.uniform(-0.05, 0.1)
        y = rng.uniform(0.25, 0.75)
        holder = self.pick(attacker, period)

        if play_no % 3 == 2 and f + 220 < last_frame:
            # a foul: challenge, the fault suffered, one booking per match,
            # then the fouled side restarts with a free kick
            fouler = self.pick(defender, period)
            self.add(defender, "CHALLENGE", "GROUND-LOST", period, f, f, fouler, None, (x, y), None)
            self.add(attacker, "FAULT RECEIVED", None, period, f, f, holder, None, (x, y), None)
            self.fouls += 1
            if self.fouls == 2:
                self.add(defender, "CARD", "YELLOW", period, f + 20, f + 20, fouler, None, None, None)
            f += rng.randint(60, 90)
            self.add(attacker, "SET PIECE", "FREE KICK", period, f, f, holder, None, None, None)
            f += rng.randint(25, 50)

        for _ in range(rng.randint(2, 4)):
            if f + 160 > last_frame:
                break
            receiver = self.pick(attacker, period, not_token=holder)
            nx = min(max(x + sign * rng.uniform(0.06, 0.18), 0.03), 0.97)
            ny = min(max(y + rng.uniform(-0.22, 0.22), 0.04), 0.96)
            f1 = f + rng.randint(12, 30)
            self.add(attacker, "PASS", None, period, f, f1, holder, receiver, (x, y), (nx, ny))
            holder, x, y, f = receiver, nx, ny, f1  # receipt time == next action time

        terminal = _TERMINALS[play_no % len(_TERMINALS)]
        goal_x = 0.98 if sign > 0 else 0.02
        if terminal == "goal" and f + 150 < last_frame:
            f1 = f + rng.randint(15, 25)
            self.add(attacker, "SHOT", "ON TARGET-GOAL", period, f, f1, holder, None,
                     (x, y), (goal_x, rng.uniform(0.45, 0.55)))
            f = f1 + rng.randint(50, 90)
            kicker = self.pick(defender, period)
            self.add(defender, "SET PIECE", "KICK OFF", period, f, f, kicker, None, None, None)
        elif terminal == "saved":
            f1 = f + rng.randint(15, 25)
            self.add(attacker, "SHOT", "ON TARGET-SAVED", period, f, f1, holder, None,
                     (x, y), (goal_x, rng.uniform(0.4, 0.6)))
            f = f1 + rng.randint(20, 40)
            self.add(defender, "RECOVERY", None, period, f, f, self.pick(defender, period),
                     None, (goal_x, 0.5), None)
        elif terminal == "offtarget":
            f1 = f + rng.randint(15, 25)
            out_pos = (1.02 if sign > 0 else -0.02, rng.uniform(0.2, 0.8))
            self.add(attacker, "SHOT", "OFF TARGET", period, f, f1, holder, None, (x, y), out_pos)
            # the ball-out marker right after the shot has no From player
            self.add(attacker, "BALL OUT", None, period, f1, f1, None, None, out_pos, out_pos)
            f = f1 + rng.randint(40, 70)
            self.add(defender, "SET PIECE", "GOAL KICK", period, f, f,
                     self.pick(defender, period), None, None, None)
        elif terminal == "out":
            f1 = f + rng.randint(12, 25)
            oy = 1.01 if y > 0.5 else -0.01
            self.add(attacker, "PASS", None, period, f, f1, holder,
                     self.pick(attacker, period, not_token=holder), (x, y), (x, oy))
            self.add(attacker, "BALL OUT", None, period, f1, f1, holder, None, (x, oy), (x, oy))
            f = f1 + rng.randint(40, 70)
            self.add(defender, "SET PIECE", "THROW IN", period, f, f,
                     self.pick(defender, period), None, (x, 1.0 if oy > 0.5 else 0.0), None)
        else:  # lost
            self.add(attacker, "BALL LOST", "INTERCEPTION", period, f, f, holder, None, (x, y), None)
            f += rng.randint(15, 35)
            self.add(defender, "RECOVERY", None, period, f, f, self.pick(defender, period),
                     None, (x, y), None)
        return defender, f + rng.randint(30, 60)


def _player_track(
    rng: Random, n_frames_per_period: int, periods: list[int], gap: tuple[int, int] | None = None,
) -> list[tuple[float, float] | None]:
    """Piecewise-linear waypoint walk, evaluated at every frame."""
    out: list[tuple[float, float] | None] = []
    for period in (1, 2):
        if period not in periods:
            out.extend([None] * n_frames_per_period)
            continue
        x, y = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        wp_frames = int(SAMPLE_RATE_HZ * 10)  # a new waypoint every 10 s
        remaining = n_frames_per_period
        while remaining > 0:
            seg = min(wp_frames, remaining)
            nx = min(max(x + rng.uniform(-0.2, 0.2), 0.03), 0.97)
            ny = min(max(y + rng.uniform(-0.25, 0.25), 0.03), 0.97)
            for i in range(seg):
                t = (i + 1) / seg
                out.append((_interp(x, nx, t), _interp(y, ny, t)))
            x, y = nx, ny
            remaining -= seg
    if gap is not None:
        for i in range(*gap):
            out[i] = None
    return out


def _tracking_csv(
    side_name: str, tokens: list[str], tracks: dict, ball: list, n_frames_per_period: int,
) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    width = 3 + 2 * (len(tokens) + 1)
    row1 = [""] * width
    row1[3] = side_name
    writer.writerow(row1)
    row2 = ["", "", ""]
    for token in tokens:
        row2 += [token.removeprefix("Player"), ""]
    row2 += ["", ""]
    writer.writerow(row2)
    row3 = list(TRACKING_TITLE_PREFIX)
    for token in tokens:
        row3 += [token, ""]
    row3 += ["Ball", ""]
    writer.writerow(row3)

    total = 2 * n_frames_per_period
    for i in range(total):
        frame = i + 1
        period = 1 if i < n_frames_per_period else 2
        row = [str(period), str(frame), _fmt_time(frame)]
        for token in tokens:
            p = tracks[token][i]
            row += ["", ""] if p is None else [f"{p[0]:.5f}", f"{p[1]:.5f}"]
        b = ball[i]
        row += [f"{b[0]:.5f}", f"{b[1]:.5f}"]
        writer.writerow(row)
    return buf.getvalue()


def synth_match(
    seed: int = 7, period_s: float = 120.0, players_per_side: int = 4,
) -> tuple[str, str, str]:
    """Generate one deterministic match (two periods of period_s seconds):
    the home tracking, away tracking and event CSV texts."""
    rng = Random(seed)
    n_frames = int(round(period_s * SAMPLE_RATE_HZ))

    home_tokens = [f"Player{i + 1}" for i in range(players_per_side + 1)]
    away_tokens = [f"Player{i + 21}" for i in range(players_per_side + 1)]
    # the last token is a substitute: on for period 2, replacing starter #2,
    # or the lone starter at one player per side
    off = 1 if players_per_side > 1 else 0
    on_pitch = {
        "Home": {1: home_tokens[:-1], 2: [t for t in home_tokens if t != home_tokens[off]]},
        "Away": {1: away_tokens[:-1], 2: [t for t in away_tokens if t != away_tokens[off]]},
    }

    script = _EventScript(rng, on_pitch)
    for period, kicker_side in ((1, "Home"), (2, "Away")):
        first = (period - 1) * n_frames + 1
        last = period * n_frames
        f = first
        script.add(kicker_side, "SET PIECE", "KICK OFF", period, f, f,
                   script.pick(kicker_side, period), None, None, None)
        script.ball_anchors.append((f, 0.5, 0.5))
        attacker = kicker_side
        f += rng.randint(25, 45)
        play_no = 0
        while f + 500 < last:  # a full play never advances more than ~450 frames
            attacker, f = script.play(attacker, period, f, last, play_no)
            play_no += 1

    events_buf = io.StringIO()
    writer = csv.writer(events_buf, lineterminator="\n")
    writer.writerow(EVENTS_HEADER)
    writer.writerows(script.rows)

    def periods_of(side: str, token: str) -> list[int]:
        return [p for p in (1, 2) if token in on_pitch[side][p]]

    tracks: dict[str, list] = {}
    for side_index, (side, tokens) in enumerate((("Home", home_tokens), ("Away", away_tokens))):
        for j, token in enumerate(tokens):
            gap = None
            if side == "Home" and j == 2:
                # a 2 s mid-half tracking dropout
                gap = (n_frames // 2, n_frames // 2 + int(2 * SAMPLE_RATE_HZ))
            tracks[token] = _player_track(
                Random(seed * 1000 + side_index * 100 + j), n_frames, periods_of(side, token), gap,
            )

    anchors = sorted(script.ball_anchors)
    ball: list[tuple[float, float]] = []
    ai = 0
    for i in range(2 * n_frames):
        frame = i + 1
        while ai + 1 < len(anchors) and anchors[ai + 1][0] <= frame:
            ai += 1
        cur = anchors[ai]
        if ai + 1 < len(anchors) and anchors[ai + 1][0] > cur[0] and frame >= cur[0]:
            nxt = anchors[ai + 1]
            t = (frame - cur[0]) / (nxt[0] - cur[0])
            t = min(max(t, 0.0), 1.0)
            ball.append((_interp(cur[1], nxt[1], t), _interp(cur[2], nxt[2], t)))
        else:
            ball.append((cur[1], cur[2]))

    return (
        _tracking_csv("SynthHome", home_tokens, tracks, ball, n_frames),
        _tracking_csv("SynthAway", away_tokens, tracks, ball, n_frames),
        events_buf.getvalue(),
    )


def write_synth_match(directory, prefix: str = "synth", **kwargs) -> tuple[Path, Path, Path]:
    """Write the three files of a generated match; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    home_csv, away_csv, events_csv = synth_match(**kwargs)
    home = directory / f"{prefix}_tracking_home.csv"
    away = directory / f"{prefix}_tracking_away.csv"
    events = directory / f"{prefix}_events.csv"
    home.write_text(home_csv, encoding="utf-8")
    away.write_text(away_csv, encoding="utf-8")
    events.write_text(events_csv, encoding="utf-8")
    return home, away, events
