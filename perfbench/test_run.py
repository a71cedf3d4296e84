#!/usr/bin/env python3
"""Tests of the benchmark's own logic: the percentile rule, the
correctness gate, span accounting and the shape of the result line.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last test runs the real benchmark on `sim-sweep` at the default
seed, which also checks the recorded digests; it is skipped until a
first `python3 perfbench/run.py ...` has built the harness.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def record(passes, seed=run.DEFAULT_SEED, workload="fig10-compile"):
    return {"workload": workload, "seed": seed, "passes": passes,
            "peak_rss_mb": 10.0, "setup_counts": {}}


def pas(sub, ops, wall=1.0, traced=False, counts=None):
    return {"sub": sub, "wall_s": wall, "traced": traced,
            "counts": counts or {},
            "ops": [{"id": i, "digest": d, "ok": True, "ms": 1.0,
                     "step_ms": 1000.0 * wall / len(ops), "legal": 1}
                    for i, d in ops]}


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(run.top_percentile(19))
        self.assertEqual(run.top_percentile(20), 50)
        self.assertEqual(run.top_percentile(99), 50)
        self.assertEqual(run.top_percentile(100), 90)
        self.assertEqual(run.top_percentile(999), 90)
        self.assertEqual(run.top_percentile(1000), 99)
        self.assertEqual(run.top_percentile(10000), 99.9)

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.percentile(xs, 50), 50)
        self.assertEqual(run.percentile(xs, 90), 90)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)
        self.assertEqual(run.percentile([5], 90), 5)
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class CorrectnessGate(unittest.TestCase):
    def test_stable_digests_pass(self):
        rec = record([pas(0, [("a", "1"), ("b", "2")]),
                      pas(1, [("a", "3"), ("b", "4")]),
                      pas(0, [("a", "1"), ("b", "2")])])
        got = run.check_ops(rec, run.pass_digests(rec))
        self.assertEqual(got, (6, 0, []))

    def test_pass_disagreement_fails(self):
        rec = record([pas(0, [("a", "1")]), pas(0, [("a", "9")])], seed=7)
        attempted, failed, errors = run.check_ops(rec, {})
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("earlier pass", errors[0])

    def test_default_seed_compares_with_record(self):
        rec = record([pas(0, [("a", "1"), ("b", "2")])])
        _, failed, errors = run.check_ops(rec, {"s0/a": "1", "s0/b": "X"})
        self.assertEqual(failed, 1)
        self.assertIn("s0/b", errors[0])
        # Other seeds have no recorded digests to compare with.
        rec["seed"] = 5
        self.assertEqual(run.check_ops(rec, {})[1], 0)

    def test_failed_check_counts(self):
        rec = record([pas(0, [("a", "1")])], seed=3)
        rec["passes"][0]["ops"][0].update(ok=False, error="mismatch")
        self.assertEqual(run.check_ops(rec, {})[1], 1)


class Metrics(unittest.TestCase):
    def test_mean_of_sub_medians(self):
        passes = [pas(0, [], wall=w) for w in (1.0, 3.0, 2.0)]
        passes += [pas(1, [], wall=w) for w in (10.0, 12.0)]
        self.assertEqual(
            run.mean_of_sub_medians(passes, lambda p: p["wall_s"]),
            (2.0 + 11.0) / 2)

    def test_self_time_subtracts_children(self):
        spans = [
            {"name": "bench.pass", "dur": 100.0,
             "args": {"id": 0, "parent": -1, "pass": 0, "task": -1}},
            {"name": "x", "dur": 30.0,
             "args": {"id": 1, "parent": 0, "pass": 0, "task": 0}},
            {"name": "x", "dur": 20.0,
             "args": {"id": 2, "parent": 0, "pass": 0, "task": 1}},
        ]
        st = run.self_times(spans)[0]
        self.assertAlmostEqual(st["bench.pass"], 50e-6)
        self.assertAlmostEqual(st["x"], 50e-6)

    def test_fastest_repetition_per_operation(self):
        passes = [pas(0, [("a", "1"), ("b", "2")], wall=w)
                  for w in (1.0, 0.5, 0.8)]
        passes[0]["ops"][1]["step_ms"] = 100.0
        self.assertAlmostEqual(run.fastest_sum(passes, "step_ms"), 0.35)

    def test_end_to_end_has_every_metric(self):
        rec = record([pas(0, [("a", "1"), ("b", "2")], wall=0.5),
                      pas(1, [("a", "3"), ("b", "4")], wall=1.0)])
        m = run.end_to_end(rec, [0.2, 0.1, 0.3])
        self.assertEqual(set(m), set(run.END_TO_END))
        self.assertEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["wall_s"], 0.75)
        self.assertAlmostEqual(m["ops_per_s"], (4.0 + 2.0) / 2)


class OutputShape(unittest.TestCase):
    def setUp(self):
        root = os.path.dirname(run.HERE)
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_metric_lists_match_benchmark_json(self):
        e2e = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layer, run.PER_LAYER)
        self.assertLessEqual(len(layer), 128)
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_result_line_parses(self):
        metrics = {k: 1.5 for k in run.END_TO_END}
        line = run.result_line(4, 1, metrics, run.END_TO_END)
        out = json.loads(line)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertFalse(out["correct"])
        self.assertEqual(out["metrics"]["setup_s"],
                         {"value": 1.5, "unit": "s"})

    def test_recorded_digests_cover_every_workload(self):
        digests = run.load_digests()
        self.assertEqual(set(digests), set(run.WORKLOADS))
        self.assertEqual(set(digests["fig10-compile"]),
                         {"s%d/%s.u%d" % (s, k, u) for s in range(4)
                          for k in run.KERNELS for u in run.UNROLLS})
        self.assertEqual(set(digests["sim-sweep"]),
                         {"s0/" + k for k in run.KERNELS})
        self.assertEqual(set(digests["dse"]), {"s0/explore"})


@unittest.skipUnless(
    os.path.exists(os.path.join(run.BUILD_DIR, "perfbench")),
    "benchmark harness not built yet")
class EndToEnd(unittest.TestCase):
    def test_sim_sweep_reproduces_recorded_digests(self):
        out = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", "sim-sweep", "--seed", str(run.DEFAULT_SEED),
             "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, check=True, cwd=os.path.dirname(run.HERE))
        result = json.loads(out.stdout.decode().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 160)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
