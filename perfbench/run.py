"""footocel benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (README.md says why each exists and which layer should move what):
  match_full     one 2 x 3 min match, default config
  matches_multi  three jittered 2 x 1 min matches, --normalize-direction --min-dwell 1
  log_analyze    load, save, OC-DFG and per-possession SVG on match_full's logs

Inputs come from the seed and live in a temporary directory of the
checkout.  Every measured operation runs in a fresh child process
(child.py), one at a time, so its peak RSS is its own; child.py says how
its times are scaled.  --trace 0 reports the end-to-end metrics; --trace 1
runs untraced and traced passes in turn and reports the per-layer metrics
of the traced ones.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from child import REF_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEADLINE_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    n_matches: int
    period_s: float
    jitter_sigma: float = 0.0
    flags: tuple[str, ...] = ()
    # True: the workload times analysis of the log; its few conversions make
    # the logs (and give convert_s), and its peak RSS is the query children's
    analysis: bool = False

    @property
    def convert_share(self) -> float:
        """Share of --seconds spent converting before the query children run."""
        return 0.25 if self.analysis else 0.7


PLAYERS_PER_SIDE = 13  # plus one substitute: 14 tracked players per side, as in the Metrica files

WORKLOADS = {
    "match_full": Workload(1, 180.0),
    "matches_multi": Workload(3, 60.0, 0.003, ("--normalize-direction", "--min-dwell", "1.0")),
    "log_analyze": Workload(1, 180.0, analysis=True),
}

# Each run converts INPUT_SETS independently generated input sets in turn and
# reports medians over all of them, so how much happens in one generated
# match moves a run's figures less.  One set is converted twice, at least,
# and its logs compared byte for byte.
INPUT_SETS = 3
MIN_CONVERTS = INPUT_SETS + 1
QUERY_REPS = 5    # loads and saves per query child
DFG_REPS = 5
SVG_CALLS = 650   # per query child; the p90 has 65 samples beyond it
SETUP_PROBES = 9

# the probe times itself up to "ready"; the reference block after it scales that time
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import footocel; "
    "footocel.RunConfig(); footocel.default_activity_mapping(); print('ready', flush=True); "
    "sys.path.insert(0, sys.argv[2]); from child import reference_s; print(reference_s())"
)


class BenchError(Exception):
    pass


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Session:
    """Runs child processes one at a time and keeps the correctness tally."""

    def __init__(self, name: str, seed: int, work: Path, input_sets: list):
        self.name = name
        self.seed = seed
        self.work = work
        self.input_sets = input_sets
        self.workload = WORKLOADS[name]
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.logs: dict[int, Path] = {}          # input set -> its first log
        self.log_shas: dict[int, str] = {}
        self.stats_events: dict[int, int] = {}   # input set -> events `convert` printed
        self.children = 0

    def _remaining(self) -> float:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("out of time")
        return remaining

    def child(self, spec: dict, traced: bool) -> dict | None:
        self.children += 1
        spec["run_id"] = f"{self.name}-{self.seed}-{self.children}"
        spec["spans"] = str(self.work / f"spans{self.children}.json") if traced else None
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=self._remaining(),
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            self.attempted += 1
            self.failed += 1
            return None
        result = json.loads(lines[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        return result

    def convert(self, k: int, traced: bool = False) -> dict | None:
        """Convert input set k; later logs of a set must match its first byte for byte."""
        out = self.work / f"log{self.children}.json"
        argv = ["convert"]
        for paths in self.input_sets[k].matches:
            argv += ["--match", *map(str, paths)]
        argv += [*self.workload.flags, "--out", str(out)]
        result = self.child({"op": "convert", "argv": argv}, traced)
        if result is None:
            return None
        sha = _sha256(out)
        if k not in self.logs:
            self.logs[k], self.log_shas[k], self.stats_events[k] = out, sha, result["stats_events"]
        else:
            out.unlink()
            if sha != self.log_shas[k] or result["stats_events"] != self.stats_events[k]:
                self.failed += 1
        return result

    def query(self, k: int, reps: int, dfg_reps: int, svg_calls: int,
              traced: bool = False) -> dict | None:
        """Load, save, OC-DFG and SVG calls on the log of input set k."""
        if k not in self.logs:
            raise BenchError(f"input set {k} has no log: its conversion failed")
        result = self.child({
            "op": "query", "log": str(self.logs[k]), "save_to": str(self.work / "saved.json"),
            "reps": reps, "dfg_reps": dfg_reps, "svg_calls": svg_calls,
        }, traced)
        if result is not None and result["events_read"] != self.stats_events[k]:
            self.failed += 1
        return result

    def setup_probe(self) -> tuple[float, float]:
        """Scaled and raw seconds from process start until footocel is set up."""
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                              stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=self._remaining())
        if proc.returncode != 0 or ready.strip() != "ready":
            raise BenchError("set-up probe failed")
        return elapsed * REF_NOMINAL_S / float(rest), elapsed


def _ok(results: list) -> list[dict]:
    ok = [r for r in results if r is not None]
    if not ok:
        raise BenchError("every child process of one kind failed")
    return ok


def _pooled(results: list[dict], key: str) -> list[float]:
    return [v for r in results for v in r[key]]


def end_to_end(session: Session, seconds: float) -> dict[str, float]:
    probes = [session.setup_probe() for _ in range(SETUP_PROBES + 1)][1:]  # first fills caches
    converts, queries = [], []
    start = time.perf_counter()
    while len(converts) < MIN_CONVERTS or \
            time.perf_counter() - start < session.workload.convert_share * seconds:
        converts.append(session.convert(len(converts) % INPUT_SETS))
    while not queries or time.perf_counter() - start < seconds:
        queries.append(session.query(len(queries) % INPUT_SETS, QUERY_REPS, DFG_REPS, SVG_CALLS))
    converts, queries = _ok(converts), _ok(queries)

    def median(results, key, raw=False):
        return statistics.median(_pooled(results, "raw_" + key if raw else key))

    svg = _pooled(queries, "svg_ms")
    print(f"# timed: {len(converts)} conversions, {len(_pooled(queries, 'load_s'))} loads, "
          f"{len(svg)} svg calls (p98 {statistics.quantiles(svg, n=50)[-1]:.4g} ms)")
    print("# raw wall medians: " + " ".join(
        f"{key}={median(results, key, raw=True):.4g}"
        for results, key in ((converts, "convert_s"), (queries, "load_s"), (queries, "save_s"),
                             (queries, "dfg_s"), (queries, "svg_ms")))
        + f" setup_s={statistics.median(raw for _, raw in probes):.4g}")
    peak = queries if session.workload.analysis else converts
    return {
        "convert_s": median(converts, "convert_s"),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in peak),
        "log_mb": statistics.median(log.stat().st_size / 1e6 for log in session.logs.values()),
        "load_s": median(queries, "load_s"),
        "save_s": median(queries, "save_s"),
        "dfg_s": median(queries, "dfg_s"),
        "svg_ms_p50": statistics.median(svg),
        "svg_ms_p90": statistics.quantiles(svg, n=10)[-1],
        "setup_s": statistics.median(scaled for scaled, _ in probes),
    }


def _pass(session: Session, k: int, traced: bool) -> tuple[float, list[dict]]:
    """One pass of the workload on input set k: its operations' time and span dumps."""
    results = [session.convert(k, traced),
               session.query(k, 1, 1, 0, traced)]  # svg_calls=0: one call per possession
    if None in results:
        raise BenchError("a child process of the pass failed")
    dumps = []
    if traced:
        for path in sorted(session.work.glob("spans*.json")):
            dumps.append(json.loads(path.read_text()))
            path.unlink()
    return sum(r["wall_s"] for r in results), dumps


def per_layer(session: Session, seconds: float) -> dict[str, float]:
    from spans import layer_metrics

    ratios, layers = [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        k = len(layers) % INPUT_SETS
        plain, _ = _pass(session, k, traced=False)
        traced, dumps = _pass(session, k, traced=True)
        ratios.append(traced / plain)
        layers.append(layer_metrics(dumps))
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object the last output line carries."""
    from inputs import make_inputs, match_seeds

    wl = WORKLOADS[name]
    section = "per_layer" if trace else "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[section]}
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        seeds = match_seeds(seed, INPUT_SETS * wl.n_matches)
        input_sets = []
        for k in range(INPUT_SETS):
            input_sets.append(make_inputs(work / f"set{k}", seeds[k::INPUT_SETS],
                                          wl.period_s, PLAYERS_PER_SIDE, wl.jitter_sigma))
            print(f"# workload {name} seed {seed} input set {k}: " +
                  " ".join(f"{key}={v}" for key, v in input_sets[k].shape.items()))
        session = Session(name, seed, work, input_sets)
        measured = per_layer(session, seconds) if trace else end_to_end(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    for k in sorted(session.log_shas):
        print(f"# log_sha256 set {k} {session.log_shas[k]}")
    print(f"# failed_ratio {session.failed / session.attempted:.6f} "
          f"({session.failed} of {session.attempted} operations)")
    missing = sorted(set(units) - set(measured))
    if missing and not trace:
        raise BenchError(f"end-to-end metrics not measured: {missing}")
    for metric in missing:
        print(f"# absent: {metric} (the function it times no longer exists)", file=sys.stderr)
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": measured[k], "unit": u}
                    for k, u in units.items() if k in measured},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "footocel" / "__init__.py").is_file():
        print(f"error: no footocel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<14} {metric:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
