#!/usr/bin/env python3
"""Tests of the benchmark itself: the output checks, the histogram
percentiles and a smoke-length run of every workload in both modes.

    python3 flowerbench/test_flowerbench.py

The smoke runs build the world runner like a benchmark run does
(.bench_build/).
"""

import contextlib
import io
import json
import os
import unittest

import run

SMOKE = {
    "paper": ["duration=10min"],
    "hot": ["duration=4min"],
    "faults": ["duration=20min"],
    "churn": ["duration=30min"],
}


def smoke_run(workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--set", "metrics_window=2min"]
    for kv in SMOKE[workload]:
        argv += ["--set", kv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


class PercentileTest(unittest.TestCase):
    def test_in_range_interpolates_within_bucket(self):
        # 4 lookups in [0, 25) and 4 in [25, 50).
        value, saturated = run.lookup_percentile(25.0, [4, 4, 0], 0, 150.0, 50)
        self.assertFalse(saturated)
        self.assertAlmostEqual(value, 25.0)
        value, _ = run.lookup_percentile(25.0, [4, 4, 0], 0, 150.0, 75)
        self.assertAlmostEqual(value, 37.5)

    def test_overflow_rank_is_saturated_not_range_end(self):
        # 98 lookups at ~12.5 ms, 2 beyond the 75 ms range at 1000 ms each.
        total = 98 * 12.5 + 2 * 1000.0
        value, saturated = run.lookup_percentile(25.0, [98, 0, 0], 2, total,
                                                 99)
        self.assertTrue(saturated)
        self.assertAlmostEqual(value, 1000.0)
        value, saturated = run.lookup_percentile(25.0, [98, 0, 0], 2, total,
                                                 50)
        self.assertFalse(saturated)
        self.assertLess(value, 25.0)


class CheckTest(unittest.TestCase):
    def world(self, seed, digest, ok=True):
        return {"ok": ok, "seed": seed, "digest": digest, "mode": "plain",
                "workload": "paper"}

    def test_digest_change_across_rounds_is_a_problem(self):
        digests, problems = {}, []
        run.check_round([self.world(1, "aa")], digests, problems)
        run.check_round([self.world(1, "aa")], digests, problems)
        self.assertEqual(problems, [])
        run.check_round([self.world(1, "ab")], digests, problems)
        self.assertEqual(len(problems), 1)

    def test_failed_world_is_a_problem(self):
        problems = []
        run.check_round([self.world(1, "aa", ok=False)], {}, problems)
        self.assertEqual(len(problems), 1)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_and_units_match_the_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        for w in spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


class SmokeTest(unittest.TestCase):
    """Every workload, untraced and traced, with every check live."""

    def check(self, workload):
        code, report, result = smoke_run(workload, 0)
        self.assertEqual(code, 0, report["problems"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))
        self.assertEqual(len(report["digests"]), run.WORLDS[workload])
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

        code, traced_report, traced = smoke_run(workload, 1)
        self.assertEqual(code, 0, traced_report["problems"])
        self.assertTrue(traced["correct"])
        self.assertEqual(set(traced["metrics"]), set(run.PER_LAYER_UNITS))
        # Traced worlds must reproduce the untraced records exactly.
        self.assertEqual(traced_report["digests"], report["digests"])
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        self.assertGreater(layer["core.submit_calls"], 0)
        self.assertGreater(layer["workload.next_ns_mean"], 0)
        self.assertGreater(layer["sim.window_wall_ms_max"], 0)
        self.assertGreater(layer["cache.contains_ns"], 0)
        return layer

    def test_paper(self):
        self.check("paper")

    def test_hot(self):
        layer = self.check("hot")
        self.assertGreater(layer["cache.objects_per_peer"], 0)

    def test_faults(self):
        layer = self.check("faults")
        self.assertGreater(layer["net.injected_drops"], 0)
        self.assertGreater(layer["gossip.shuffles"], 0)

    def test_churn(self):
        layer = self.check("churn")
        self.assertGreater(layer["cache.stale_redirects_per_query"], 0)


if __name__ == "__main__":
    unittest.main()
