"""Seeded benchmark inputs: synthetic matches in the provider CSV layout.

Wraps footocel's own generator and, for workloads that ask for it, adds
Gaussian positional jitter to every tracked player sample.  The ball
columns stay untouched because both sides' files must agree on the ball.
The same seed always yields byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from random import Random

from footocel.synth import write_synth_match


@dataclass(frozen=True)
class Inputs:
    matches: list[tuple[Path, Path, Path]]  # home tracking, away tracking, events
    shape: dict  # frames, tracked_players, event_rows, input_bytes


def match_seeds(seed: int, n: int) -> list[int]:
    """Distinct generator seeds for n matches, drawn from the benchmark seed."""
    return Random(seed).sample(range(1, 1_000_000), n)


def _jitter_tracking(path: Path, rng: Random, sigma: float) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    gauss = rng.gauss
    for row in rows[3:]:
        for k in range(3, len(row) - 2):  # player pairs; the last pair is the ball
            if row[k]:
                row[k] = f"{float(row[k]) + gauss(0.0, sigma):.5f}"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _shape(matches: list[tuple[Path, Path, Path]]) -> dict:
    frames = players = event_rows = size = 0
    for home, away, events in matches:
        for tracking in (home, away):
            with open(tracking, newline="") as fh:
                reader = csv.reader(fh)
                next(reader), next(reader)
                titles = next(reader)
                rows = sum(1 for _ in reader)
            players += (len(titles) - 5) // 2  # minus Period/Frame/Time and the ball pair
        frames += rows
        with open(events) as fh:
            event_rows += sum(1 for _ in fh) - 1
        size += sum(p.stat().st_size for p in (home, away, events))
    return {"frames": frames, "tracked_players": players,
            "event_rows": event_rows, "input_bytes": size}


def make_inputs(directory: Path, seeds: list[int], period_s: float,
                players_per_side: int, jitter_sigma: float) -> Inputs:
    """Write one generated match per seed into directory and describe them."""
    matches = []
    for k, match_seed in enumerate(seeds):
        paths = write_synth_match(directory, prefix=f"m{k + 1}", seed=match_seed,
                                  period_s=period_s, players_per_side=players_per_side)
        if jitter_sigma > 0:
            rng = Random(match_seed)
            for tracking in paths[:2]:
                _jitter_tracking(tracking, rng, jitter_sigma)
        matches.append(paths)
    return Inputs(matches, _shape(matches))
