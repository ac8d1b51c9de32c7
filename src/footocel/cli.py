"""Command line interface.

Subcommands: convert (files -> OCEL JSON), stats (summarize a log),
possessions (print the log's possession spans), dfg (discover + render a
directly-follows graph), spatial (render one possession's traces as SVG).

Only convert reads match files and pipeline configuration; every other
subcommand reads the log convert wrote (--ocel).  For convert, explicit
flags beat the --config JSON file, which beats built-in defaults.

Exit codes: 0 success; 1 unreadable or unresolvable input (parse errors,
unknown ids/attributes, and in a config or activity map a wrong key or
JSON type); 2 violated invariants (inconsistent files, and a setting out
of range, from a flag or the config file).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Optional, Sequence

from .errors import ConsistencyError, ParseError, QueryError, read_json
from .mining import LogFilter, discover_ocdfg, filter_log
from .ocel import (
    OBJECT_TYPE_POSSESSION,
    OcelLog,
    grid_from_log,
    read_ocel_json,
    stats,
    write_ocel_json,
)
from .pipeline import (
    MatchPaths,
    RunConfig,
    config_from_dict,
    convert_matches,
)
from .render import dfg_to_dot, spatial_instance_svg


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    """The setting flags: each dest is the config key it sets, "grid.<key>" in the grid."""
    g = parser.add_argument_group("pipeline configuration")
    g.add_argument("--config", metavar="JSON", help="config file; flags override it")
    g.add_argument("--grid-cols", dest="grid.cols", type=int, metavar="N")
    g.add_argument("--grid-rows", dest="grid.rows", type=int, metavar="N")
    g.add_argument("--pitch-length", dest="grid.pitch_length_m", type=float, metavar="M",
                   help="pitch length in meters")
    g.add_argument("--pitch-width", dest="grid.pitch_width_m", type=float, metavar="M",
                   help="pitch width in meters")
    g.add_argument("--min-dwell", dest="min_dwell_s", type=float, metavar="S",
                   help="debounce: min seconds in a new cell before a movement event")
    g.add_argument("--normalize-direction", action="store_const", const=True, default=None,
                   help="flip the coordinates of period 2 and every later period "
                        "so attack directions stay constant")
    g.add_argument("--scope", metavar="global|per-match",
                   help="share team/player/ball/grid objects across matches or not")
    g.add_argument("--activity-map", dest="activity_map_path", metavar="JSON",
                   help="replace the built-in provider-type -> activity table")
    g.add_argument("--unknown-events", metavar="reject|pass",
                   help="reject unmapped event types (default) or pass them through")
    g.add_argument("--control-types", metavar="CSV",
                   type=lambda arg: [t.strip() for t in arg.split(",") if t.strip()],
                   help="comma-separated event types that establish possession")


def _add_match_options(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("match inputs")
    g.add_argument("--match", nargs=3, action="append", metavar=("HOME", "AWAY", "EVENTS"),
                   help="one match's home tracking, away tracking and events CSVs (repeatable)")
    g.add_argument("--match-ids", metavar="CSV",
                   help="comma-separated ids aligned with --match (default game1,game2,...)")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The setting flags given, as config keys, over the --config file."""
    keys = {f.name for f in fields(RunConfig)}
    flags: dict = {}
    for dest, value in vars(args).items():
        key, _, sub = dest.rpartition(".")  # "grid.cols": cols of the grid object
        if value is not None and (key or sub) in keys:
            target = flags.setdefault(key, {}) if key else flags
            target[sub] = value
    data = read_json(args.config) if args.config else {}
    return config_from_dict(data, args.config or "<config>", flags)


def _resolve_matches(args: argparse.Namespace, parser: argparse.ArgumentParser) -> list[MatchPaths]:
    if not args.match:
        parser.error("at least one --match HOME AWAY EVENTS is required")
    if args.match_ids:
        ids = [m.strip() for m in args.match_ids.split(",")]
        if len(ids) != len(args.match):
            parser.error(f"--match-ids names {len(ids)} matches but {len(args.match)} given")
    else:
        ids = [f"game{i + 1}" for i in range(len(args.match))]
    return [
        MatchPaths(home, away, events, mid)
        for (home, away, events), mid in zip(args.match, ids)
    ]


def _parse_where(clauses: Sequence[str], parser: argparse.ArgumentParser) -> list[tuple[str, str, str]]:
    out = []
    for clause in clauses:
        head, eq, value = clause.partition("=")
        otype, dot, attr = head.partition(".")
        if not eq or not dot or not otype or not attr:
            parser.error(f"--where must look like TYPE.ATTR=VALUE, got {clause!r}")
        out.append((otype, attr, value))
    return out


def _object_types(arg: str, log: OcelLog, parser: argparse.ArgumentParser) -> list[str]:
    """The --types list; every type named must have objects in the log."""
    types = [t.strip() for t in arg.split(",") if t.strip()]
    if not types:
        parser.error("--types must name at least one object type")
    present = {o.otype for o in log.objects}
    unknown = [t for t in types if t not in present]
    if unknown:
        raise QueryError(f"no objects of type {', '.join(map(repr, unknown))} in the log")
    return types


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_convert(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = _resolve_config(args)
    matches = _resolve_matches(args, parser)
    log = convert_matches(matches, config)
    write_ocel_json(log, args.out)
    print(stats(log).to_text())
    print(f"wrote {args.out}")
    return 0


def cmd_stats(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    print(stats(read_ocel_json(args.ocel)).to_text())
    return 0


_SPAN_COLUMNS = ("team", "start_time_s", "end_time_s", "outcome")


def cmd_possessions(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    for o in read_ocel_json(args.ocel).objects:
        if o.otype != OBJECT_TYPE_POSSESSION:
            continue
        missing = [k for k in _SPAN_COLUMNS if k not in o.attrs]
        if missing:
            raise QueryError(f"possession {o.oid!r} lacks {', '.join(missing)}")
        print("\t".join([o.oid, *(str(o.attrs[k]) for k in _SPAN_COLUMNS)]))
    return 0


def cmd_dfg(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    log = read_ocel_json(args.ocel)
    types = _object_types(args.types, log, parser)  # before --where may drop every object
    by_type: dict[str, list[tuple[str, str]]] = {}
    for otype, attr, value in _parse_where(args.where or [], parser):
        by_type.setdefault(otype, []).append((attr, value))
    for otype, conditions in by_type.items():
        log = filter_log(log, LogFilter(object_type=otype, where=tuple(conditions)))
    dot = dfg_to_dot(discover_ocdfg(log, types),
                     node_labels=not args.no_node_labels, edge_labels=not args.no_edge_labels)
    _write_text(dot, args.out)
    return 0


def cmd_spatial(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    log = read_ocel_json(args.ocel)
    types = _object_types(args.types, log, parser)
    svg = spatial_instance_svg(log, args.possession, types, grid_from_log(log))
    _write_text(svg, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="footocel",
        description="Convert football tracking + event feeds into object-centric "
                    "event logs; segment possessions, discover directly-follows "
                    "graphs and render spatial possession maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert matches to an OCEL JSON log")
    _add_match_options(p)
    _add_config_options(p)
    p.add_argument("--out", required=True, metavar="JSON", help="output log path")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", help="summarize an OCEL JSON log")
    p.add_argument("--ocel", required=True, metavar="JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("possessions", help="print a log's possession spans as TSV")
    p.add_argument("--ocel", required=True, metavar="JSON")
    p.set_defaults(func=cmd_possessions)

    p = sub.add_parser("dfg", help="discover a directly-follows graph, emit DOT")
    p.add_argument("--ocel", required=True, metavar="JSON")
    p.add_argument("--types", default="ball", metavar="CSV",
                   help="object types to discover graphs for (default: ball)")
    p.add_argument("--where", action="append", metavar="TYPE.ATTR=VALUE",
                   help="keep events related to a matching object (repeatable)")
    p.add_argument("--no-node-labels", action="store_true",
                   help="plain activity names without per-type counts")
    p.add_argument("--no-edge-labels", action="store_true",
                   help="edges without '<type>:<count>' labels")
    p.add_argument("--out", metavar="DOT", help="output path (default: stdout)")
    p.set_defaults(func=cmd_dfg)

    p = sub.add_parser("spatial", help="render one possession's traces as SVG")
    p.add_argument("--ocel", required=True, metavar="JSON")
    p.add_argument("--possession", required=True, metavar="ID", help="possession object id")
    p.add_argument("--types", default="ball,player", metavar="CSV",
                   help="object types to draw (default: ball,player)")
    p.add_argument("--out", metavar="SVG", help="output path (default: stdout)")
    p.set_defaults(func=cmd_spatial)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ParseError, QueryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConsistencyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
