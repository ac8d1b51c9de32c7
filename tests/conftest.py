"""Shared fixtures: one synthetic match, loaded and converted once per session."""

import pytest

from footocel.ingest import load_match
from footocel.pipeline import MatchPaths, RunConfig, convert_matches
from footocel.possession import CONTROL_TYPES, match_prefix, segment_possessions
from footocel.synth import write_synth_match


@pytest.fixture(scope="session")
def synth_paths(tmp_path_factory) -> MatchPaths:
    directory = tmp_path_factory.mktemp("synthmatch")
    home, away, events = write_synth_match(directory, prefix="synth")
    return MatchPaths(str(home), str(away), str(events), "game1")


@pytest.fixture(scope="session")
def bundle(synth_paths):
    return load_match(synth_paths.home_tracking, synth_paths.away_tracking, synth_paths.events)


@pytest.fixture(scope="session")
def log(synth_paths):
    return convert_matches([synth_paths], RunConfig())


@pytest.fixture(scope="session")
def spans(bundle):
    """The match's possessions, segmented apart from the conversion."""
    return segment_possessions(bundle.events, match_prefix(0), CONTROL_TYPES)
