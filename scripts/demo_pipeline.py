#!/usr/bin/env python3
"""Run the whole pipeline end to end on a bundled synthetic match.

Generates Metrica-layout CSVs, converts them to an OCEL 2.0 JSON log,
prints summary statistics, discovers directly-follows graphs, and renders
one possession as SVG.  Everything is deterministic: rerunning into the
same directory reproduces byte-identical artifacts.

Usage: python3 scripts/demo_pipeline.py [--out-dir DIR] [--real DATA_DIR]

With --real pointing at a data/metrica directory (see fetch_metrica.py)
the demo runs on the first sample match instead of synthetic data.
"""

import argparse
import sys
from pathlib import Path

from footocel.mining import discover_ocdfg
from footocel.ocel import OBJECT_TYPE_POSSESSION, stats, write_ocel_json
from footocel.pipeline import MatchPaths, RunConfig, convert_matches
from footocel.render import dfg_to_dot, spatial_instance_svg
from footocel.synth import write_synth_match


def real_match(data_dir: Path) -> MatchPaths:
    base = data_dir / "Sample_Game_1"
    paths = MatchPaths(
        str(base / "Sample_Game_1_RawTrackingData_Home_Team.csv"),
        str(base / "Sample_Game_1_RawTrackingData_Away_Team.csv"),
        str(base / "Sample_Game_1_RawEventsData.csv"),
        "game1",
    )
    for p in (paths.home_tracking, paths.away_tracking, paths.events):
        if not Path(p).is_file():
            raise FileNotFoundError(p)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="demo_output", metavar="DIR")
    parser.add_argument("--real", metavar="DATA_DIR",
                        help="use Sample_Game_1 from this data/metrica directory")
    args = parser.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.real:
        match = real_match(Path(args.real))
        print(f"using the first sample match from {args.real}")
    else:
        raw_dir = out / "raw"
        raw_dir.mkdir(exist_ok=True)
        home, away, events = write_synth_match(raw_dir, prefix="demo")
        match = MatchPaths(str(home), str(away), str(events), "game1")
        print(f"generated synthetic match under {raw_dir}")

    config = RunConfig()
    log = convert_matches([match], config)

    log_path = out / "log.json"
    write_ocel_json(log, str(log_path))
    print(f"wrote {log_path}")

    summary = stats(log)
    (out / "stats.txt").write_text(summary.to_text() + "\n", encoding="utf-8")
    print(summary.to_text())

    dfg = discover_ocdfg(log, ["ball", "player", "team", "possession"])
    dot_path = out / "dfg_multi_type.dot"
    dot_path.write_text(dfg_to_dot(dfg), encoding="utf-8")
    print(f"wrote {dot_path} (render with: dot -Tsvg {dot_path})")

    # the first goal possession in match time, else the first possession
    possessions = sorted((o for o in log.objects if o.otype == OBJECT_TYPE_POSSESSION),
                         key=lambda o: (o.attrs["period"], o.attrs["start_time_s"]))
    shown = next((o for o in possessions if o.attrs["outcome"] == "goal"), possessions[0])
    svg_path = out / f"possession_{shown.oid}.svg"
    svg_path.write_text(spatial_instance_svg(log, shown.oid, ["ball", "player"], config.grid),
                        encoding="utf-8")
    print(f"wrote {svg_path} ({shown.attrs['team']} possession, "
          f"outcome {shown.attrs['outcome']})")

    per_type = dfg.per_type["ball"]
    top_edges = sorted(per_type.edge_counts.items(), key=lambda kv: -kv[1])[:5]
    print("most frequent ball-type directly-follows edges:")
    for (a, b), count in top_edges:
        print(f"  {a} -> {b}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
