"""One measured footocel operation, run in a fresh process by run.py.

    python3 perfbench/child.py '<json spec>'

spec["op"] is "convert" (footocel.cli.main with spec["argv"]) or "query"
(load, save, OC-DFG and per-possession SVG on the log at spec["log"]).
With spec["spans"] set, layer spans are recorded and written to that path.
The last line of standard output is one JSON object with the timings, the
operations attempted and failed, and the peak RSS of this process.

Timings are reference-scaled.  The speed of a shared host drifts by tens
of percent over seconds to minutes, alike for all interpreted code, so raw
wall times of the same work spread too widely to compare two commits.  A
timer signal runs a fixed pure-Python reference block every SAMPLE_EVERY_S
of wall time.  An operation's time, less the time spent in those blocks, is
multiplied by REF_NOMINAL_S over the median block time around it.  The
result reads as seconds on a host where the block takes REF_NOMINAL_S; the
raw times are reported next to it.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import json
import math
import re
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

REF_NOMINAL_S = 0.0015
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.5  # an operation shorter than this is scaled by the blocks around it
PAD_BLOCKS = 20  # blocks run before the first and after the last operation


def _reference_block() -> list:
    """Fixed interpreter-bound work: float formatting and parsing, dict and list traffic."""
    table = {}
    for k in range(2000):
        text = f"{k * 0.731:.5f}"
        table[text] = float(text) + len(table)
    return sorted(table.values())


def _timed_block() -> float:
    enabled = gc.isenabled()
    gc.disable()  # the caller's heap must not make the block slower
    try:
        start = time.perf_counter()
        _reference_block()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_s(n: int = PAD_BLOCKS) -> float:
    """Median time of n reference blocks."""
    return statistics.median(_timed_block() for _ in range(n))


class Sampler:
    """Reference blocks on a timer signal, and the operations they scale."""

    def __init__(self):
        self.times: list[float] = []   # block start times, ascending
        self.blocks: list[float] = []  # block durations
        self.spent = 0.0               # seconds spent in blocks so far
        self.busy = False
        self.ops: list[tuple[str, float, float, float, float]] = []

    def now(self) -> float:
        """A clock that stands still while a reference block runs."""
        return time.perf_counter() - self.spent

    def _tick(self, *_) -> None:
        if self.busy:  # a signal that arrives inside a block is dropped
            return
        self.busy = True
        start = time.perf_counter()
        duration = _timed_block()
        self.times.append(start)
        self.blocks.append(duration)
        self.spent += time.perf_counter() - start
        self.busy = False

    def __enter__(self) -> "Sampler":
        for _ in range(PAD_BLOCKS):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(PAD_BLOCKS):
            self._tick()

    def run(self, key: str, fn, unit: float = 1.0, sampled: bool = False):
        """Run fn and record its time under key, in seconds times unit.

        Unless sampled, no block interrupts fn: a block inside a short
        call would cost it a cache refill that the clock cannot subtract.
        """
        if not sampled:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            start, own = time.perf_counter(), self.now()
            value = fn()
            self.ops.append((key, start, time.perf_counter(), self.now() - own, unit))
        finally:
            if not sampled:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return value

    def scale(self, start: float, end: float) -> float:
        pad = max(0.0, (WINDOW_S - (end - start)) / 2)
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        return REF_NOMINAL_S / statistics.median(self.blocks[lo:hi] or self.blocks)

    def report(self, result: dict) -> None:
        """Add the scaled and raw samples of every operation to result."""
        result["wall_s"] = 0.0
        for key, start, end, own, unit in self.ops:
            scaled = own * self.scale(start, end)
            result.setdefault(key, []).append(scaled * unit)
            result.setdefault("raw_" + key, []).append(own * unit)
            result["wall_s"] += scaled
        result["attempted"] += len(self.ops)
        result["scale"] = REF_NOMINAL_S / statistics.median(self.blocks)


def _convert(spec: dict, sampler: Sampler, result: dict) -> None:
    from footocel.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sampler.run("convert_s", lambda: main(spec["argv"]), sampled=True)
    result["failed"] += code != 0
    # the event count of the in-memory log, as `convert` prints it
    found = re.search(r"^events\s+(\d+)$", out.getvalue(), re.M)
    result["stats_events"] = int(found.group(1)) if found else None


def _query(spec: dict, sampler: Sampler, result: dict) -> None:
    import xml.etree.ElementTree as ET

    from footocel.errors import ConsistencyError
    from footocel.mining import LogFilter, discover_ocdfg, filter_log
    from footocel.ocel import OBJECT_TYPES, read_ocel_json, stats, validate_log, write_ocel_json
    from footocel.render import dfg_to_dot, spatial_instance_svg
    from footocel.spatial import GridSpec

    path, saved = Path(spec["log"]), Path(spec["save_to"])
    original = path.read_bytes()

    for _ in range(spec["reps"]):
        log = sampler.run("load_s", lambda: read_ocel_json(path))
        try:
            validate_log(log)
        except ConsistencyError:
            result["failed"] += 1
    result["events_read"] = len(log.events)

    for _ in range(spec["reps"]):
        sampler.run("save_s", lambda: write_ocel_json(log, saved))
        result["failed"] += saved.read_bytes() != original

    types = sorted(OBJECT_TYPES)
    goals = LogFilter("possession", (("outcome", "goal"),))

    def dfg():
        summary = stats(log)
        dot = dfg_to_dot(discover_ocdfg(log, types))
        discover_ocdfg(filter_log(log, goals), ["ball"])
        return summary, dot

    for _ in range(spec["dfg_reps"]):
        summary, dot = sampler.run("dfg_s", dfg)
        result["failed"] += summary.n_events != len(log.events) or not dot.startswith("digraph")

    possessions = [o.oid for o in log.objects if o.otype == "possession"]
    grid = GridSpec()
    for _ in range(max(1, math.ceil(spec["svg_calls"] / len(possessions)))):
        for pid in possessions:
            svg = sampler.run(
                "svg_ms", lambda: spatial_instance_svg(log, pid, ["ball", "player"], grid), 1e3)
            try:
                ET.fromstring(svg)
            except ET.ParseError:
                result["failed"] += 1


def peak_rss_mb() -> float:
    """Peak resident set of this process's own image, in MB.

    Linux carries the parent's high-water mark into a child's ru_maxrss
    across fork and exec, so VmHWM is read where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(spec: dict) -> dict:
    result = {"attempted": 0, "failed": 0}
    sampler = Sampler()
    tracer = None
    if spec.get("spans"):
        import footocel  # noqa: F401  (binds every module before wrapping)
        from spans import Tracer

        tracer = Tracer(spec["run_id"], clock=sampler.now)
        tracer.install()
    with sampler:
        (_convert if spec["op"] == "convert" else _query)(spec, sampler, result)
    sampler.report(result)
    if tracer is not None:
        tracer.dump(spec["spans"], scale=result["scale"])
    result["rss_mb"] = peak_rss_mb()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
