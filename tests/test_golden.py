"""Golden hashes: `convert` output stays byte-identical across refactors.

Each hash pins the `log.json` of one small synthetic conversion, every
possession SVG drawn from the session's converted log, the DOT graphs
discovered on that log, or the three CSV texts the synthetic generator
writes, which every other hash and the benchmark's inputs rest on.  A change
that moves a hash changed the log; it must be a change the log is meant to
get, and the new hash is then recorded here with the reason.
"""

import csv
import hashlib

import pytest

from footocel.cli import main
from footocel.mining import LogFilter, discover_ocdfg, filter_log
from footocel.ocel import OBJECT_TYPE_POSSESSION, OBJECT_TYPES
from footocel.render import dfg_to_dot, spatial_instance_svg
from footocel.spatial import GridSpec
from footocel.synth import synth_match, write_synth_match


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


@pytest.mark.parametrize("kwargs, expected", [
    ({"seed": 7}, (
        "eed38ae7bf498c238847ca4449c49690f233a3443a670d058d06d3525ec0a6fb",
        "dc2c394e740ea333fa4ce19c57e403fdc99ae1514dbe4506db13fb2c915b5d3b",
        "ca4b834cce6ec576798778eb407125cd7c16d77128a5088dab5f56f231515936",
    )),
    ({"seed": 11, "period_s": 60.0}, (
        "47979ae184b2c6a1433d0b635d1087c11891811c223668e47a32c2c036135a9c",
        "3abfa2c61225573ee01ed15fdb8d5657e2d9acb86a76ff18a723ea8f406bdda7",
        "aa82c32a1fc71b22914a26f0a8276c2fbfa826b74a9dac3bdc516031d898bd49",
    )),
])
def test_synth_match_texts_hash(kwargs, expected):
    """The home tracking, away tracking and event texts of two generated matches."""
    texts = synth_match(**kwargs)
    assert tuple(hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts) == expected


def test_one_player_per_side_is_substituted_at_half_time():
    # the columns of the starter and the substitute, then the ball's
    for text in synth_match(period_s=10.0, players_per_side=1)[:2]:
        rows = list(csv.reader(text.splitlines()))[3:]
        tracked = {period: [(bool(r[3]), bool(r[5])) for r in rows if r[0] == period]
                   for period in ("1", "2")}
        assert set(tracked["1"]) == {(True, False)}
        assert set(tracked["2"]) == {(False, True)}
