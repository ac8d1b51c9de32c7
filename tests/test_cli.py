"""End-to-end CLI behavior: subcommands, exit codes, option precedence."""

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import footocel.ingest as ingest_module
import footocel.pipeline as pipeline_module
from footocel.cli import main
from footocel.ocel import OBJECT_TYPES, IdentityScope, read_ocel_json, write_ocel_json
from footocel.pipeline import RunConfig, convert_matches
from footocel.synth import synth_match, write_synth_match


def convert_args(synth_paths, out, extra=()):
    return [
        "convert",
        "--match", synth_paths.home_tracking, synth_paths.away_tracking, synth_paths.events,
        "--out", str(out),
        *extra,
    ]


def test_convert_writes_valid_log(synth_paths, tmp_path, capsys):
    out = tmp_path / "log.json"
    assert main(convert_args(synth_paths, out)) == 0
    printed = capsys.readouterr().out
    assert f"wrote {out}" in printed
    assert printed.startswith("events") and "\nobjects" in printed
    log = read_ocel_json(str(out))
    assert len(log.events) > 0


def test_convert_is_byte_deterministic(synth_paths, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(convert_args(synth_paths, a)) == 0
    assert main(convert_args(synth_paths, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_convert_two_matches_is_byte_deterministic(synth_paths, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    two = [
        "--match", synth_paths.home_tracking, synth_paths.away_tracking, synth_paths.events,
        "--match", synth_paths.home_tracking, synth_paths.away_tracking, synth_paths.events,
        "--match-ids", "game1,game2",
    ]
    assert main(["convert", *two, "--out", str(a)]) == 0
    assert main(["convert", *two, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_convert_duplicate_match_ids_exit_2(synth_paths, tmp_path, capsys):
    rc = main([
        "convert",
        "--match", synth_paths.home_tracking, synth_paths.away_tracking, synth_paths.events,
        "--match", synth_paths.home_tracking, synth_paths.away_tracking, synth_paths.events,
        "--match-ids", "same,same",
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_convert_empty_match_id_exit_2(synth_paths, tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = main([
        "convert",
        "--match", synth_paths.home_tracking, synth_paths.away_tracking, synth_paths.events,
        "--match-ids", " ",
        "--out", str(out),
    ])
    assert rc == 2
    assert "error: match ids must not be empty" in capsys.readouterr().err
    assert not out.exists()


def test_convert_missing_file_exit_1(synth_paths, tmp_path, capsys):
    rc = main([
        "convert",
        "--match", "/nonexistent.csv", synth_paths.away_tracking, synth_paths.events,
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_convert_malformed_events_exit_1(synth_paths, tmp_path, capsys):
    bad = tmp_path / "bad_events.csv"
    bad.write_text("Team,Type\nHome,PASS\n")
    rc = main([
        "convert",
        "--match", synth_paths.home_tracking, synth_paths.away_tracking, str(bad),
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_convert_truncated_tracking_exit_2(synth_paths, tmp_path, capsys):
    lines = Path(synth_paths.away_tracking).read_text().splitlines(keepends=True)
    clipped = tmp_path / "away_clipped.csv"
    clipped.write_text("".join(lines[:-10]))
    rc = main([
        "convert",
        "--match", synth_paths.home_tracking, str(clipped), synth_paths.events,
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_convert_restarted_period_clock_names_the_match_exit_2(tmp_path, capsys):
    # every period-2 event time moved back by one 60 s period: the event feed
    # restarts its clock at half time while the tracking does not
    home, away, events = write_synth_match(tmp_path, seed=3, period_s=60.0, players_per_side=2)
    lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        row = line.split(",")
        if row[3] == "2":
            row[5], row[7] = (f"{float(row[k]) - 60:.2f}" for k in (5, 7))
            lines[i] = ",".join(row)
    events.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "x.json"
    rc = main(["convert", "--match", str(home), str(away), str(events),
               "--match-ids", "restart", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "match 'restart': period 2 time " in err
    assert "period 1 time " in err


def test_match_ids_count_mismatch_is_a_usage_error(synth_paths, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(convert_args(synth_paths, tmp_path / "x.json",
                          extra=["--match-ids", "one,two"]))
    assert exc.value.code == 2


def test_convert_requires_match_inputs(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_grid_flags_override_config_file(synth_paths, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"cols": 8}, "min_dwell_s": 0.2}))

    from_cfg = tmp_path / "cfg_log.json"
    assert main(convert_args(synth_paths, from_cfg, extra=["--config", str(cfg)])) == 0
    log = read_ocel_json(str(from_cfg))
    assert sum(1 for o in log.objects if o.otype == "grid_position") == 8 * 4

    overridden = tmp_path / "flag_log.json"
    assert main(convert_args(synth_paths, overridden,
                             extra=["--config", str(cfg), "--grid-cols", "5"])) == 0
    log = read_ocel_json(str(overridden))
    assert sum(1 for o in log.objects if o.otype == "grid_position") == 5 * 4


@pytest.fixture(scope="module")
def small_match(tmp_path_factory):
    return write_synth_match(tmp_path_factory.mktemp("small"), period_s=20, players_per_side=3)


GRID_FILE = {"cols": 8, "rows": 3, "pitch_length_m": 100.0, "pitch_width_m": 64.0}

# flag argv, config file, RunConfig field path, file value, flag value, and
# the config file of the flag runs when it is not the first one
SETTINGS = [
    (["--grid-cols", "5"], {"grid": GRID_FILE}, ("grid", "cols"), 8, 5, None),
    (["--grid-rows", "5"], {"grid": GRID_FILE}, ("grid", "rows"), 3, 5, None),
    (["--pitch-length", "110"], {"grid": GRID_FILE}, ("grid", "pitch_length_m"), 100.0, 110.0,
     None),
    (["--pitch-width", "70"], {"grid": GRID_FILE}, ("grid", "pitch_width_m"), 64.0, 70.0, None),
    (["--min-dwell", "0.5"], {"min_dwell_s": 0.2}, ("min_dwell_s",), 0.2, 0.5, None),
    (["--normalize-direction"], {"normalize_direction": True}, ("normalize_direction",),
     True, True, {"normalize_direction": False}),
    (["--scope", "global"], {"scope": "per-match"}, ("scope",),
     IdentityScope.PER_MATCH, IdentityScope.GLOBAL, None),
    (["--activity-map", "flag_map.json"], {"activity_map_path": "file_map.json"},
     ("activity_map_path",), "file_map.json", "flag_map.json", None),
    (["--unknown-events", "reject"], {"unknown_events": "pass"}, ("unknown_events",),
     "pass", "reject", None),
    (["--control-types", "RECOVERY,PASS"], {"control_types": ["PASS", "SHOT"]},
     ("control_types",), ("PASS", "SHOT"), ("RECOVERY", "PASS"), None),
]


def _setting(config, path):
    value = config
    for name in path:
        value = getattr(value, name)
    return value


@pytest.mark.parametrize("flag, file_cfg, path, file_value, flag_value, flag_cfg", SETTINGS,
                         ids=[case[0][0] for case in SETTINGS])
def test_setting_precedence(small_match, tmp_path, monkeypatch,
                            flag, file_cfg, path, file_value, flag_value, flag_cfg):
    """Each setting: the config file beats the default and the flag beats the file."""
    import footocel.cli as cli

    monkeypatch.chdir(tmp_path)
    mapping = resources.files("footocel").joinpath("data/activity_map.json").read_text()
    for name in ("file_map.json", "flag_map.json"):
        Path(name).write_text(mapping)
    seen = []

    def spy(matches, config=None):
        seen.append(config)
        return convert_matches(matches, config)
    monkeypatch.setattr(cli, "convert_matches", spy)

    def run(cfg=None, *extra):
        argv = ["convert", "--match", *map(str, small_match), "--out", "log.json", *extra]
        if cfg is not None:
            Path("cfg.json").write_text(json.dumps(cfg))
            argv += ["--config", "cfg.json"]
        seen.clear()
        main(argv)
        [config] = seen
        return config

    assert _setting(run(), path) == _setting(RunConfig(), path) != file_value
    assert _setting(run(file_cfg), path) == file_value
    flag_cfg = flag_cfg or file_cfg
    under_file, from_flag = run(flag_cfg), run(flag_cfg, *flag)
    assert _setting(under_file, path) != flag_value
    assert _setting(from_flag, path) == flag_value
    # the flag changes its own setting only; grid keys merge one by one
    for other in [("grid", name) for name in GRID_FILE if ("grid", name) != path]:
        assert _setting(from_flag, other) == _setting(under_file, other)
    others = [f.name for f in fields(RunConfig) if f.name != path[0]]
    assert [getattr(from_flag, n) for n in others] == [getattr(under_file, n) for n in others]


def test_unknown_config_key_exit_1(synth_paths, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_size": 6}))
    rc = main(convert_args(synth_paths, tmp_path / "x.json", extra=["--config", str(cfg)]))
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


def convert_small(small_match, tmp_path, *extra):
    return main(["convert", "--match", *map(str, small_match),
                 "--out", str(tmp_path / "x.json"), *extra])


@pytest.mark.parametrize("config, message", [
    ({"sample_rate": 25.0}, "unknown config key 'sample_rate'"),  # tracking is read at 25 Hz
    ({"min_dwell_s": "x"}, "min_dwell_s must be a number, got 'x'"),
    ({"grid": {"cols": "6"}}, "grid.cols must be an integer, got '6'"),
    ({"grid": {"cols": 1.5}}, "grid.cols must be an integer, got 1.5"),
    ({"grid": {"cols": True}}, "grid.cols must be an integer, got True"),
    ({"grid": 6}, "grid must be a JSON object"),
    ({"grid": {"size": 6}}, "unknown config key 'grid.size'"),
    ({"control_types": 5}, "control_types must be an array of strings, got 5"),
    ({"control_types": "PASS"}, "control_types must be an array of strings, got 'PASS'"),
    ({"control_types": [1]}, "control_types must be an array of strings, got [1]"),
    ({"normalize_direction": "no"}, "normalize_direction must be true or false, got 'no'"),
    ({"scope": 1}, "scope must be a string, got 1"),
    ({"activity_map_path": 1}, "activity_map_path must be a string or null, got 1"),
    ({"unknown_events": False}, "unknown_events must be a string, got False"),
    ([], "config must be a JSON object"),
])
def test_config_value_of_wrong_type_exit_1(small_match, tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert convert_small(small_match, tmp_path, "--config", str(cfg)) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


@pytest.mark.parametrize("extra, message", [
    (["--grid-cols", "27"], "at most 26 grid columns supported, got 27"),
    (["--pitch-width", "0"], "pitch dimensions must be positive"),
    (["--min-dwell=-inf"], "min_dwell_s must be >= 0, got -inf"),
    (["--min-dwell", "nan"], "min_dwell_s must be >= 0, got nan"),
    (["--min-dwell", "-1"], "min_dwell_s must be >= 0, got -1.0"),
    (["--control-types", ","], "control_types must not be empty"),
    (["--grid-cols", "0"], "grid must have positive dimensions, got 0x4"),
    (["--scope", "both"], "scope must be 'global' or 'per-match', got 'both'"),
    (["--unknown-events", "drop"], "unknown_events must be 'reject' or 'pass', got 'drop'"),
    (["--min-dwell", "inf"], "min_dwell_s must be finite, got inf"),
    (["--pitch-length", "inf"], "grid.pitch_length_m must be finite, got inf"),
    (["--pitch-width", "inf"], "grid.pitch_width_m must be finite, got inf"),
    (["--grid-rows", "1000000000"], "at most 100 grid rows supported, got 1000000000"),
])
def test_setting_out_of_range_exit_2(small_match, tmp_path, capsys, extra, message):
    assert convert_small(small_match, tmp_path, *extra) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.json").exists()


# a token JSON does not have is unreadable input (exit 1); a value out of range exits 2
@pytest.mark.parametrize("config, rc, err", [
    ({"min_dwell_s": float("inf")}, 1, "error: {cfg}: $: Infinity is not a JSON number"),
    ({"min_dwell_s": float("nan")}, 1, "error: {cfg}: $: NaN is not a JSON number"),
    ({"grid": {"rows": -10 ** 400}}, 2,
     "error: grid must have positive dimensions, got 6x-1" + "0" * 78 + "..."),
    ({"min_dwell_s": -10 ** 400}, 2, "error: min_dwell_s must be >= 0, got -inf"),
    ({"scope": "both"}, 2, "error: scope must be 'global' or 'per-match', got 'both'"),
    ({"unknown_events": "drop"}, 2, "error: unknown_events must be 'reject' or 'pass', got 'drop'"),
    ({"min_dwell_s": 10 ** 400}, 2, "error: min_dwell_s must be finite, got inf"),
    ({"grid": {"pitch_length_m": 10 ** 400}}, 2,
     "error: grid.pitch_length_m must be finite, got inf"),
    ({"grid": {"rows": 10 ** 400}}, 2,
     "error: at most 100 grid rows supported, got 1" + "0" * 79 + "..."),
])
def test_config_non_finite_and_out_of_range(small_match, tmp_path, capsys, config, rc, err):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))  # writes NaN and Infinity tokens
    assert convert_small(small_match, tmp_path, "--config", str(cfg)) == rc
    assert capsys.readouterr().err == err.format(cfg=cfg) + "\n"


# an input value too long to echo in full, where it goes and the exit code
@pytest.mark.parametrize("where, data, value, rc", [
    ("events", None, "T" * 5000, 1),
    ("--config", {"control_types": [1] * 3000}, [1] * 3000, 1),
    ("--config", {"scope": "y" * 5000}, "y" * 5000, 2),
    ("--config", {"grid": {"rows": 10 ** 400}}, 10 ** 400, 2),
    ("--activity-map", {"K" * 5000: 1}, "K" * 5000, 1),
], ids=["team_cell", "control_types", "scope", "grid_rows", "activity_map_key"])
def test_long_input_values_are_echoed_cut(small_match, tmp_path, capsys, where, data, value, rc):
    """An error echoes an input value as its repr cut to 80 characters and "..."."""
    home, away, events = map(str, small_match)
    extra = []
    if where == "events":  # the Team cell of the first event row
        lines = Path(events).read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = value + lines[1][lines[1].index(","):]
        events = tmp_path / "events.csv"
        events.write_text("".join(lines), encoding="utf-8")
    else:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        extra = [where, str(path)]
    assert main(["convert", "--match", home, away, str(events),
                 "--out", str(tmp_path / "x.json"), *extra]) == rc
    err = capsys.readouterr().err
    assert repr(value)[:80] + "..." in err
    assert len(err) < 80 + len(str(tmp_path)) + 100


@pytest.mark.parametrize("ids, value", [
    (["M" * 5000, "M" * 5000], ["M" * 5000, "M" * 5000]),
    (["", "M" * 5000], ["", "M" * 5000]),
], ids=["duplicate", "empty"])
def test_long_match_ids_are_echoed_cut(small_match, tmp_path, capsys, ids, value):
    match = ["--match", *map(str, small_match)]
    assert main(["convert", *match, *match, "--match-ids", ",".join(ids),
                 "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert repr(value)[:80] + "..." in err
    assert len(err) < 200


def exit_code(argv) -> int:
    """main's return value, or the exit code of a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


LONG = "L" * 5000
MOVED = "Player changes position"


def added_object(otype, attributes):
    return lambda data: data["objects"].append(
        {"id": LONG, "type": otype, "attributes": attributes})


def moved_to(label):
    def mutate(data):
        for e in data["events"]:
            if e["type"] == MOVED:
                next(a for a in e["attributes"] if a["name"] == "to_cell")["value"] = label
    return mutate


# a log or query value too long to echo in full: the command, the log edit,
# the value and the exit code
@pytest.mark.parametrize("argv, mutate, value, rc", [
    (["dfg", "--where", LONG], None, LONG, 2),
    (["dfg", "--where", f"{LONG}.team=Home"], None, LONG, 1),
    (["dfg", "--where", f"possession.{LONG}=1"], None, LONG, 1),
    (["dfg", "--types", LONG], None, LONG, 1),
    (["spatial", "--possession", LONG], None, LONG, 1),
    (["possessions"], added_object("possession", []), LONG, 1),
    (["spatial", "--possession", "AA001"],
     added_object("grid_position", [{"name": "column", "value": ""}]), LONG, 1),
    (["spatial", "--possession", "AA001"], moved_to(LONG), LONG, 1),
    (["spatial", "--possession", "AA001"], moved_to("A" + "9" * 100), "A" + "9" * 100, 1),
], ids=["where_clause", "where_type", "where_attribute", "types", "possession",
        "possession_object", "grid_object", "malformed_cell", "cell_outside_grid"])
def test_long_log_and_query_values_are_echoed_cut(
        log_file, tmp_path, capsys, argv, mutate, value, rc):
    path = log_file if mutate is None else mutated(log_file, tmp_path, mutate)
    capsys.readouterr()
    assert exit_code([*argv, "--ocel", str(path)]) == rc
    err = capsys.readouterr().err
    assert repr(value)[:80] + "..." in err
    assert len(err.splitlines()[-1]) < 80 + len(str(path)) + 100


@pytest.mark.parametrize("option", ["--config", "--activity-map"])
def test_settings_files_that_are_not_utf8_exit_1(small_match, tmp_path, capsys, option):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert convert_small(small_match, tmp_path, option, str(binary)) == 1
    assert capsys.readouterr().err.startswith(f"error: {binary}: $: invalid JSON: ")


@pytest.mark.parametrize("option", ["--ocel", "--config", "--activity-map"])
def test_deeply_nested_json_exit_1(small_match, tmp_path, capsys, option):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    if option == "--ocel":
        assert main(["stats", option, str(deep)]) == 1
    else:
        assert convert_small(small_match, tmp_path, option, str(deep)) == 1
        assert not (tmp_path / "x.json").exists()
    assert capsys.readouterr().err == f"error: {deep}: $: invalid JSON: nesting too deep\n"


@pytest.mark.parametrize("match_id, other, scope", [
    ("Home", "team", "global"),
    ("A1", "grid_position", "global"),
    ("AA001", "possession", "global"),
    ("AA001", "possession", "per-match"),
])
def test_match_id_that_is_another_objects_id_exit_2(
        small_match, tmp_path, capsys, match_id, other, scope):
    rc = convert_small(small_match, tmp_path, "--match-ids", match_id, "--scope", scope)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: match id {match_id!r} is also the id of a {other} object\n")
    assert not (tmp_path / "x.json").exists()


def test_activity_map_is_read_once_per_convert(small_match, tmp_path, monkeypatch):
    mapping = tmp_path / "map.json"
    mapping.write_text(resources.files("footocel").joinpath("data/activity_map.json")
                       .read_text(encoding="utf-8"), encoding="utf-8")
    calls = []

    def spy(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(pipeline_module, "load_activity_mapping",
                        spy("map", pipeline_module.load_activity_mapping))
    monkeypatch.setattr(ingest_module, "load_match", spy("match", ingest_module.load_match))
    three = [arg for _ in range(3) for arg in ("--match", *map(str, small_match))]
    assert main(["convert", *three, "--match-ids", "g1,g2,g3", "--activity-map", str(mapping),
                 "--out", str(tmp_path / "x.json")]) == 0
    assert calls == ["map", "match", "match", "match"]


@pytest.mark.parametrize("content, fragment", [
    ('{"PASS": 5}', "entry 'PASS': must be an object"),
    ("{", "$: invalid JSON"),
])
def test_malformed_activity_map_exits_1_before_any_match_is_read(
        small_match, tmp_path, monkeypatch, capsys, content, fragment):
    mapping = tmp_path / "map.json"
    mapping.write_text(content, encoding="utf-8")
    loaded = []
    monkeypatch.setattr(ingest_module, "load_match", lambda *a, **k: loaded.append(a))
    assert convert_small(small_match, tmp_path, "--activity-map", str(mapping)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mapping}") and fragment in err
    assert loaded == []


def test_empty_activity_map_path_exit_1(small_match, tmp_path, capsys):
    assert convert_small(small_match, tmp_path, "--activity-map", "") == 1
    assert "No such file or directory: ''" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("which", [0, 1, 2], ids=["home_tracking", "away_tracking", "events"])
def test_match_csv_that_is_not_utf8_exit_1(small_match, tmp_path, capsys, which):
    files = [Path(p) for p in small_match]
    bad = tmp_path / f"bad_{files[which].name}"
    lines = files[which].read_bytes().splitlines(keepends=True)
    lines[-1] = lines[-1].replace(b",", b",\xff", 1)  # a byte no UTF-8 text starts with
    bad.write_bytes(b"".join(lines))
    files[which] = bad
    assert main(["convert", "--match", *map(str, files), "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == \
        f"error: {bad}: not UTF-8 text: byte 0xff (invalid start byte)\n"


def test_subcommands_open_text_files_as_utf8_only(small_match, tmp_path):
    """No open relies on the locale's encoding: each one would warn, here an error."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    log = tmp_path / "log.json"

    def run(*argv):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "footocel.cli", *argv],
            env=env, capture_output=True, text=True, encoding="utf-8",
        )
        assert done.returncode == 0, done.stderr

    run("convert", "--match", *map(str, small_match), "--out", str(log))
    run("stats", "--ocel", str(log))
    run("dfg", "--ocel", str(log), "--out", str(tmp_path / "dfg.dot"))
    possession = next(o.oid for o in read_ocel_json(log).objects if o.otype == "possession")
    run("spatial", "--ocel", str(log), "--possession", possession,
        "--out", str(tmp_path / "possession.svg"))


def test_importing_the_cli_loads_no_network_modules():
    """Every process starts by importing the CLI; it needs no networking stack."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import footocel.cli; "
            "print(*(m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


def test_importing_footocel_adds_no_network_or_process_packages():
    """Every run pays for what the command line imports, and footocel.cli
    imports every module; none of these packages is needed to convert or
    query a log."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; bare = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "import footocel.cli; "
            "print(*sorted(m for m in set(sys.modules) - bare if m.split('.')[0] in {"
            "'socket', 'ssl', 'http', 'urllib', 'email', 'xml', 'multiprocessing', "
            "'concurrent'}))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                          capture_output=True, text=True, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


def test_stats_subcommand(synth_paths, tmp_path, capsys):
    out = tmp_path / "log.json"
    main(convert_args(synth_paths, out))
    capsys.readouterr()
    assert main(["stats", "--ocel", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("events")
    assert "\npossessions" in printed
    assert main(["stats", "--ocel", str(tmp_path / "missing.json")]) == 1


@pytest.fixture(scope="module")
def log_file(synth_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "log.json"
    assert main(convert_args(synth_paths, out)) == 0
    return out


def mutated(log_path, tmp_path, mutate):
    """A copy of a written log after mutate(data) edits its JSON in place."""
    data = json.loads(log_path.read_text())
    mutate(data)
    out = tmp_path / "mutated.json"
    out.write_text(json.dumps(data))
    return out


def span_row(span, prefix):
    return "\t".join([prefix + span.span_id[2:], span.team, str(span.start_time_s),
                      str(span.end_time_s), span.outcome])


def test_possessions_tsv(log_file, spans, tmp_path, capsys):
    capsys.readouterr()
    assert main(["possessions", "--ocel", str(log_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 5
    assert lines == [span_row(s, "AA") for s in spans]

    def drop_outcome(data):
        first = next(o for o in data["objects"] if o["type"] == "possession")
        first["attributes"] = [a for a in first["attributes"] if a["name"] != "outcome"]
    bad = mutated(log_file, tmp_path, drop_outcome)
    assert main(["possessions", "--ocel", str(bad)]) == 1
    assert "possession 'AA001' lacks outcome" in capsys.readouterr().err


def test_possessions_tsv_of_two_match_log(synth_paths, spans, tmp_path, capsys):
    log_path = tmp_path / "two.json"
    match = ["--match", synth_paths.home_tracking, synth_paths.away_tracking, synth_paths.events]
    assert main(["convert", *match, *match, "--match-ids", "game1,game2",
                 "--out", str(log_path)]) == 0
    capsys.readouterr()
    assert main(["possessions", "--ocel", str(log_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [span_row(s, "AA") for s in spans] + [span_row(s, "AB") for s in spans]


@pytest.mark.parametrize("command", [["possessions"], ["dfg"], ["spatial", "--possession", "AA001"]])
@pytest.mark.parametrize("option", [["--match", "h.csv", "a.csv", "e.csv"],
                                    ["--config", "cfg.json"], ["--min-dwell", "1"]])
def test_log_commands_reject_convert_options(log_file, command, option, capsys):
    """Only convert reads match files and pipeline configuration."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--ocel", str(log_file), *option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["stats"], ["possessions"], ["dfg"],
                                     ["spatial", "--possession", "AA001"]])
def test_log_commands_require_ocel(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    assert "--ocel" in capsys.readouterr().err


def test_dfg_stdout_and_file_agree(synth_paths, tmp_path, capsys):
    log_path = tmp_path / "log.json"
    main(convert_args(synth_paths, log_path))
    capsys.readouterr()

    assert main(["dfg", "--ocel", str(log_path)]) == 0
    stdout_dot = capsys.readouterr().out
    assert stdout_dot.startswith("digraph ocdfg {")

    out = tmp_path / "graph.dot"
    assert main(["dfg", "--ocel", str(log_path), "--out", str(out)]) == 0
    assert out.read_text() == stdout_dot


def test_dfg_where_filters_events(synth_paths, tmp_path, capsys):
    log_path = tmp_path / "log.json"
    main(convert_args(synth_paths, log_path))
    capsys.readouterr()

    main(["dfg", "--ocel", str(log_path), "--types", "ball"])
    full = capsys.readouterr().out
    main(["dfg", "--ocel", str(log_path), "--types", "ball",
          "--where", "possession.team=Home", "--where", "possession.outcome=goal"])
    filtered = capsys.readouterr().out
    assert filtered.count(" -> ") < full.count(" -> ")
    # --types is checked before --where, so a filter keeping no ball is no error
    assert main(["dfg", "--ocel", str(log_path), "--types", "ball",
                 "--where", "possession.outcome=nosuch"]) == 0
    assert " -> " not in capsys.readouterr().out

    assert main(["dfg", "--ocel", str(log_path), "--where", "possession.mood=ok"]) == 1
    with pytest.raises(SystemExit):
        main(["dfg", "--ocel", str(log_path), "--where", "not-a-clause"])
    with pytest.raises(SystemExit):
        main(["dfg", "--ocel", str(log_path), "--types", ","])
    assert main(["dfg", "--ocel", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("command", [["dfg"], ["spatial", "--possession", "AA001"]])
def test_types_must_exist_in_log(log_file, command, capsys):
    capsys.readouterr()
    assert main([*command, "--ocel", str(log_file), "--types", "nosuch"]) == 1
    assert "no objects of type 'nosuch' in the log" in capsys.readouterr().err
    assert main([*command, "--ocel", str(log_file), "--types", "ball,nosuch,other"]) == 1
    assert "'nosuch', 'other'" in capsys.readouterr().err
    for otype in sorted(OBJECT_TYPES):
        assert main([*command, "--ocel", str(log_file), "--types", otype]) == 0


def test_reader_errors_name_the_file(synth_paths, tmp_path, capsys):
    assert main(["possessions", "--ocel", synth_paths.events]) == 1
    err = capsys.readouterr().err
    assert f"error: {synth_paths.events}: $: invalid JSON" in err
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert main(["stats", "--ocel", str(binary)]) == 1
    assert f"error: {binary}: $: invalid JSON" in capsys.readouterr().err


def test_reader_names_the_file_of_an_overlong_integer(tmp_path, capsys):
    # beyond the interpreter's integer digit limit, where it has one, json raises a bare ValueError
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"objectTypes": ' + "9" * 5000 + "}")
    assert main(["stats", "--ocel", str(long_int)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {long_int}: $")


def test_dfg_label_flags(synth_paths, tmp_path, capsys):
    log_path = tmp_path / "log.json"
    main(convert_args(synth_paths, log_path))
    capsys.readouterr()
    main(["dfg", "--ocel", str(log_path), "--no-node-labels", "--no-edge-labels"])
    dot = capsys.readouterr().out
    assert "fontcolor" not in dot
    assert "\\n" not in dot


def test_spatial_subcommand(synth_paths, spans, tmp_path, capsys):
    log_path = tmp_path / "log.json"
    main(convert_args(synth_paths, log_path))
    capsys.readouterr()
    pid = spans[0].span_id

    out = tmp_path / "trace.svg"
    assert main(["spatial", "--ocel", str(log_path),
                 "--possession", pid, "--out", str(out)]) == 0
    svg = out.read_text()
    ET.fromstring(svg)
    assert f"possession {pid} " in svg

    assert main(["spatial", "--ocel", str(log_path),
                 "--possession", pid, "--out", str(out)]) == 0
    assert out.read_text() == svg  # stable across reruns

    assert main(["spatial", "--ocel", str(log_path), "--possession", "ZZ999"]) == 1
    assert "unknown possession" in capsys.readouterr().err


def test_spatial_recovers_grid_from_log(synth_paths, tmp_path, capsys):
    """A log built on a custom grid renders with that grid, not the default."""
    log_path = tmp_path / "log.json"
    main(convert_args(synth_paths, log_path, extra=["--grid-cols", "8", "--grid-rows", "2"]))
    capsys.readouterr()
    assert main(["spatial", "--ocel", str(log_path), "--possession", "AA001"]) == 0
    svg = capsys.readouterr().out
    assert ">H1<" in svg and ">H2<" in svg
    assert ">A3<" not in svg


def test_spatial_rejects_grid_object_without_column(log_file, tmp_path, capsys):
    def blank_column(data):
        cell = next(o for o in data["objects"] if o["id"] == "B2")
        next(a for a in cell["attributes"] if a["name"] == "column")["value"] = ""
    bad = mutated(log_file, tmp_path, blank_column)
    capsys.readouterr()
    assert main(["spatial", "--ocel", str(bad), "--possession", "AA001"]) == 1
    assert "grid object 'B2' has no grid address" in capsys.readouterr().err


def test_spatial_rejects_grid_object_beyond_the_row_bound(log_file, tmp_path, capsys):
    def huge_row(data):
        cell = next(o for o in data["objects"] if o["id"] == "B2")
        next(a for a in cell["attributes"] if a["name"] == "row")["value"] = 10**400
    bad = mutated(log_file, tmp_path, huge_row)
    capsys.readouterr()
    assert main(["spatial", "--ocel", str(bad), "--possession", "AA001"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: grid object 'B2' has no grid address "
                   f"(column 'B', row {str(10**400)[:80]}...)\n")


def test_spatial_rejects_integer_cell_label(log_file, tmp_path, capsys):
    moved = "Player changes position"

    def integer_to_cell(data):
        etype = next(t for t in data["eventTypes"] if t["name"] == moved)
        next(a for a in etype["attributes"] if a["name"] == "to_cell")["type"] = "integer"
        for e in data["events"]:
            if e["type"] == moved:
                next(a for a in e["attributes"] if a["name"] == "to_cell")["value"] = 5
    bad = mutated(log_file, tmp_path, integer_to_cell)
    log = read_ocel_json(str(bad))  # the reader accepts the integer label
    eid = next(e.eid for e in log.events
               if e.etype == moved and ("AA001", "possession") in e.relations)
    capsys.readouterr()
    assert main(["spatial", "--ocel", str(bad), "--possession", "AA001"]) == 1
    assert f"event {eid!r}: malformed cell label 5" in capsys.readouterr().err


def test_dfg_where_on_an_integer_beyond_the_float_range(log_file, tmp_path, capsys):
    def huge_period(data):
        first = next(o for o in data["objects"] if o["type"] == "possession")
        next(a for a in first["attributes"] if a["name"] == "period")["value"] = 10**400
    bad = mutated(log_file, tmp_path, huge_period)
    assert read_ocel_json(str(bad)).object_index["AA001"].attrs["period"] == 10**400
    capsys.readouterr()
    assert main(["dfg", "--ocel", str(bad), "--types", "ball",
                 "--where", "possession.period=5"]) == 0
    assert capsys.readouterr().out.startswith("digraph ocdfg {")
    # the exact decimal still matches it
    assert main(["dfg", "--ocel", str(bad), "--types", "possession",
                 "--where", f"possession.period={10**400}"]) == 0
    assert "possession:" in capsys.readouterr().out


def test_spatial_names_the_event_of_an_integer_x_beyond_the_float_range(
        log_file, tmp_path, capsys):
    def huge_x(data):
        for e in data["events"]:
            if ({"objectId": "AA001", "qualifier": "possession"} in e["relationships"]
                    and any(a["name"] == "x" for a in e["attributes"])):
                next(a for a in e["attributes"] if a["name"] == "x")["value"] = 10**400
                return
        raise AssertionError("no AA001 event has an x")
    bad = mutated(log_file, tmp_path, huge_x)
    eid = next(e.eid for e in read_ocel_json(str(bad)).events if e.attrs.get("x") == 10**400)
    capsys.readouterr()
    assert main(["spatial", "--ocel", str(bad), "--possession", "AA001"]) == 1
    assert f"error: event {eid!r}: " in capsys.readouterr().err


# --- whatever convert writes, the reader accepts ---

# match ids: whitespace, non-ASCII text, ':' and the ids of other objects
_MATCH_IDS = st.one_of(
    st.text(alphabet=" \t\n\u00a0:é⚽Ωab1-", max_size=6),
    st.sampled_from(["game1", "ball", "Home", "Away", "HomePlayer1", "AwayPlayer21", "A1",
                     "AA001", "game1:ball"]),
)


def _mutated(text: str, data) -> str:
    """text with at most one cell blanked or duplicated in place."""
    rows = list(csv.reader(io.StringIO(text)))
    edit = data.draw(st.sampled_from(["none", "blank", "duplicate"]))
    if edit != "none":
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        col = data.draw(st.integers(0, len(row) - 1))
        if edit == "blank":
            row[col] = ""
        else:
            row.insert(col, row[col])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), err.getvalue()
    return rc, out.getvalue()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_whatever_convert_writes_the_reader_accepts(data):
    settings_argv = [
        "--grid-cols", str(data.draw(st.integers(1, 26))),
        "--grid-rows", str(data.draw(st.integers(1, 100))),
        f"--min-dwell={data.draw(st.floats(0, 3))}",
        "--scope", data.draw(st.sampled_from(["global", "per-match"])),
        "--unknown-events", data.draw(st.sampled_from(["reject", "pass"])),
    ]
    if data.draw(st.booleans()):
        settings_argv.append("--normalize-direction")
    n_matches = data.draw(st.integers(1, 2))
    ids = [data.draw(_MATCH_IDS) for _ in range(n_matches)]
    mutated_match = data.draw(st.integers(0, n_matches - 1))
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["convert"]
        for k in range(n_matches):
            texts = synth_match(seed=data.draw(st.integers(0, 2 ** 32)),
                                period_s=data.draw(st.integers(20, 40)),
                                players_per_side=data.draw(st.integers(1, 3)))
            if k == mutated_match:
                which = data.draw(st.integers(0, 2))
                texts = [_mutated(t, data) if i == which else t for i, t in enumerate(texts)]
            paths = [os.path.join(tmp, f"m{k}_{name}.csv") for name in ("home", "away", "events")]
            for path, text in zip(paths, texts):
                Path(path).write_text(text, encoding="utf-8")
            argv += ["--match", *paths]
        out = os.path.join(tmp, "log.json")
        rc, printed = _run([*argv, f"--match-ids={','.join(ids)}", *settings_argv, "--out", out])
        event(f"convert exits {rc}")
        if rc != 0:
            return
        log = read_ocel_json(out)
        again = os.path.join(tmp, "again.json")
        write_ocel_json(log, again)
        assert Path(again).read_bytes() == Path(out).read_bytes()
        # convert printed the stats of the log it held in memory
        assert _run(["stats", "--ocel", out]) == (0, printed.removesuffix(f"wrote {out}\n"))
