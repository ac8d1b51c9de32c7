"""Golden hashes: `convert` output stays byte-identical across refactors.

Each hash pins the `log.json` of one small synthetic conversion, every
possession SVG drawn from the session's converted log, or the DOT graphs
discovered on that log.  A change
that moves a hash changed the log; it must be a change the log is meant to
get, and the new hash is then recorded here with the reason.
"""

import hashlib

import pytest

from footocel.cli import main
from footocel.mining import LogFilter, discover_ocdfg, filter_log
from footocel.ocel import OBJECT_TYPE_POSSESSION, OBJECT_TYPES
from footocel.render import dfg_to_dot, spatial_instance_svg
from footocel.spatial import GridSpec
from footocel.synth import write_synth_match


@pytest.fixture(scope="module")
def second_match(tmp_path_factory):
    directory = tmp_path_factory.mktemp("second")
    return [str(p) for p in write_synth_match(directory, prefix="second", seed=11, period_s=60.0)]


def _first(synth_paths):
    return [synth_paths.home_tracking, synth_paths.away_tracking, synth_paths.events]


def _sha256_of_convert(tmp_path, args):
    out = tmp_path / "log.json"
    assert main(["convert", *args, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_default_conversion_hash(synth_paths, tmp_path):
    digest = _sha256_of_convert(tmp_path, ["--match", *_first(synth_paths)])
    assert digest == "14548361a8a8e94dbbc85df081c04610f1998d7cb556cff951077bf1cd9c269e"


def test_two_match_normalized_debounced_hash(synth_paths, second_match, tmp_path):
    digest = _sha256_of_convert(tmp_path, [
        "--match", *_first(synth_paths),
        "--match", *second_match,
        "--match-ids", "game1,game2",
        "--normalize-direction", "--min-dwell", "1.0",
    ])
    assert digest == "d66c7d0c88fcb483d422e90606c47ca5b6e5174223f018c67c7023fc395a6b63"


def test_two_match_per_match_scope_hash(synth_paths, second_match, tmp_path):
    digest = _sha256_of_convert(tmp_path, [
        "--match", *_first(synth_paths),
        "--match", *second_match,
        "--match-ids", "game1,game2",
        "--scope", "per-match",
    ])
    assert digest == "04437e4a4fb4573d4f294ec7107daeabc1daa8cabb062f22395ce5bd5ba44e0b"


def _sha256_of_svgs(log, object_types, spec):
    """One hash over every possession's SVG, in object order."""
    digest = hashlib.sha256()
    for o in log.objects:
        if o.otype == OBJECT_TYPE_POSSESSION:
            digest.update(spatial_instance_svg(log, o.oid, object_types, spec).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("object_types, spec, expected", [
    (["ball", "player"], GridSpec(),
     "f24c0d8c71cdee53beb8b021a43b5ed3a50b5c0d3385b2ee4c61d07f45f433d7"),
    (sorted(OBJECT_TYPES), GridSpec(cols=7, rows=5),
     "9cefab67eb2b780c578061ac29397ebb77149a7bd6a2b76c9a635f527f85a753"),
])
def test_possession_svgs_hash(log, object_types, spec, expected):
    assert _sha256_of_svgs(log, object_types, spec) == expected


def test_dfg_dot_hash(log):
    """The graphs the benchmark's dfg_s draws: every type over the whole log,
    and the ball over the goal possessions' events."""
    goals = filter_log(log, LogFilter("possession", (("outcome", "goal"),)))
    assert any(o.otype == OBJECT_TYPE_POSSESSION for o in goals.objects)
    digest = hashlib.sha256()
    digest.update(dfg_to_dot(discover_ocdfg(log, sorted(OBJECT_TYPES))).encode("utf-8"))
    digest.update(dfg_to_dot(discover_ocdfg(goals, ["ball"])).encode("utf-8"))
    assert digest.hexdigest() == "82ec3f3ac47a90122a7341bd3b6aa68a8bd8eb2e09d0e8790e4e6b70eae698d1"
