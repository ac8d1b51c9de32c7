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


def test_possessions_tsv(synth_paths, capsys):
    rc = main([
        "possessions",
        "--match", synth_paths.home_tracking, synth_paths.away_tracking, synth_paths.events,
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) > 5
    ids = []
    for line in lines:
        span_id, team, start, end, outcome = line.split("\t")
        ids.append(span_id)
        assert span_id.startswith("AA")
        assert team in ("Home", "Away")
        assert float(end) >= float(start)
        assert outcome in ("goal", "shot", "period_end", "out_then_lost", "lost")
    assert len(set(ids)) == len(ids)


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
    with pytest.raises(SystemExit):
        main(["dfg", "--ocel", str(log_path),
              "--match", "a", "b", "c"])  # both input kinds at once
    with pytest.raises(SystemExit):
        main(["dfg"])  # neither input kind


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
