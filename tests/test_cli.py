"""End-to-end CLI behavior: subcommands, exit codes, option precedence."""

import json
import xml.etree.ElementTree as ET

import pytest

from footocel.cli import main
from footocel.ocel import read_ocel_json


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
    lines = open(synth_paths.away_tracking).read().splitlines(keepends=True)
    clipped = tmp_path / "away_clipped.csv"
    clipped.write_text("".join(lines[:-10]))
    rc = main([
        "convert",
        "--match", synth_paths.home_tracking, str(clipped), synth_paths.events,
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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


def test_unknown_config_key_exit_1(synth_paths, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_size": 6}))
    rc = main(convert_args(synth_paths, tmp_path / "x.json", extra=["--config", str(cfg)]))
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


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

    assert main(["dfg", "--ocel", str(log_path), "--where", "possession.mood=ok"]) == 1
    with pytest.raises(SystemExit):
        main(["dfg", "--ocel", str(log_path), "--where", "not-a-clause"])
    with pytest.raises(SystemExit):
        main(["dfg", "--ocel", str(log_path), "--types", ","])
    assert main(["dfg", "--ocel", str(tmp_path / "missing.json")]) == 1


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
