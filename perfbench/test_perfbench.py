"""Tests of the benchmark itself, on tiny workload shapes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import footocel  # noqa: E402
import spans  # noqa: E402

TINY = {name: replace(wl, period_s=40.0) for name, wl in run.WORKLOADS.items()}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    out = io.StringIO()
    with mock.patch.dict(run.WORKLOADS, TINY), mock.patch.object(run, "SVG_CALLS", 20), \
            contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().splitlines()[-1])


class EveryMetricPrinted(unittest.TestCase):
    def check(self, result: dict, section: str) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(bench(workload, 0), "end_to_end")

    def test_per_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 1)
                self.check(result, "per_layer")
                layer = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(layer["pipeline.matches"], run.WORKLOADS[workload].n_matches)
                self.assertEqual(layer["ingest.normalize_direction_s"] > 0,
                                 workload == "matches_multi")
                self.assertGreater(layer["render.svg_calls"], 0)
                self.assertGreater(layer["trace.overhead_ratio"], 0)

    def test_same_seed_same_log(self):
        hashes = []
        for _ in range(2):
            out = io.StringIO()
            with mock.patch.dict(run.WORKLOADS, TINY), mock.patch.object(run, "SVG_CALLS", 1), \
                    contextlib.redirect_stdout(out):
                run.main(["--workload", "match_full", "--seed", "5", "--seconds", "0.1"])
            hashes += [line.split()[-1] for line in out.getvalue().splitlines()
                       if line.startswith("# log_sha256")]
        self.assertEqual(len(hashes), 2 * run.INPUT_SETS)
        self.assertEqual(hashes[:run.INPUT_SETS], hashes[run.INPUT_SETS:])


class TamperedLogFails(unittest.TestCase):
    def test_tampered_log_counts_as_failed(self):
        original = run.Session.convert

        def convert_then_tamper(session, k, traced=False):
            result = original(session, k, traced)
            data = json.loads(session.logs[k].read_text())
            if data["events"]:
                data["events"].pop()  # the log on disk now disagrees with what was converted
                with open(session.logs[k], "w") as fh:
                    json.dump(data, fh, indent=2, ensure_ascii=False)
                    fh.write("\n")
            return result

        for workload in ("match_full", "log_analyze"):
            with self.subTest(workload=workload), \
                    mock.patch.object(run.Session, "convert", convert_then_tamper):
                result = bench(workload, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)


class MissingTargetIsAbsent(unittest.TestCase):
    def test_removed_function_drops_only_its_metrics(self):
        tracer = spans.Tracer("test")
        with mock.patch.object(spans, "TARGETS", spans.TARGETS + [
                ("footocel.derive", "fused_merge_enrich", None)]), \
                mock.patch.dict(spans.BUSY, {"derive.fused_s": "fused_merge_enrich"}):
            tracer.install()
            try:
                footocel.stats(footocel.OcelLog(objects=[], events=[]))
            finally:
                for module in [m for k, m in sys.modules.items() if k.startswith("footocel")]:
                    for attr, value in list(vars(module).items()):
                        if hasattr(value, "__wrapped__"):
                            setattr(module, attr, value.__wrapped__)
            with tempfile.TemporaryDirectory() as tmp:
                tracer.dump(Path(tmp) / "spans.json")
                metrics = spans.layer_metrics([json.loads((Path(tmp) / "spans.json").read_text())])
        self.assertEqual(tracer.missing, ["fused_merge_enrich"])
        self.assertNotIn("derive.fused_s", metrics)
        self.assertGreater(metrics["ocel.stats_s"], 0)
        self.assertEqual(metrics["derive.enrich_s"], 0)


if __name__ == "__main__":
    unittest.main()
