"""Tests of the benchmark's own helpers: percentiles, medians,
quartiles, spreads, count identities and the metric lists.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import shutil
import statistics
import tempfile
import unittest

import benchstats
import run

class Percentiles(unittest.TestCase):
    def test_median_odd_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 2, 3]), 2.5)

    def test_median_empty(self):
        with self.assertRaises(ValueError):
            benchstats.median([])

    def test_percentile_interpolates(self):
        v = [10, 20, 30, 40, 50]
        self.assertEqual(benchstats.percentile(v, 0), 10)
        self.assertEqual(benchstats.percentile(v, 100), 50)
        self.assertEqual(benchstats.percentile(v, 50), 30)
        self.assertAlmostEqual(benchstats.percentile(v, 90), 46.0)
        self.assertAlmostEqual(benchstats.percentile(v, 12.5), 15.0)

    def test_percentile_unsorted_and_single(self):
        self.assertEqual(benchstats.percentile([5, 1, 3], 50), 3)
        self.assertEqual(benchstats.percentile([7], 99), 7)

    def test_percentile_bad_q(self):
        with self.assertRaises(ValueError):
            benchstats.percentile([1, 2], 101)
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50)

    def test_p99_of_1_to_100(self):
        self.assertAlmostEqual(benchstats.percentile(list(range(1, 101)), 99), 99.01)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        v = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 3.0, 5.0, 7.0]
        self.assertEqual(benchstats.quartiles(v), tuple(statistics.quantiles(v, n=4)))

    def test_known_values(self):
        # exclusive method: positions (n+1)p
        self.assertEqual(benchstats.quartiles([1, 2, 3, 4, 5, 6, 7]), (2, 4, 6))

    def test_iqr_share(self):
        v = [9, 10, 10, 10, 11]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        self.assertAlmostEqual(benchstats.iqr_share(v), (q3 - q1) / q2)
        self.assertEqual(benchstats.iqr_share([5, 5, 5, 5]), 0)

    def test_iqr_share_rejects_zero_median(self):
        with self.assertRaises(ValueError):
            benchstats.iqr_share([0, 0, 0])
        with self.assertRaises(ValueError):
            benchstats.quartiles([1])


class CountIdentities(unittest.TestCase):
    def test_finegrain_identity(self):
        e = {"tasks_run": 1000, "fetches": 2000, "evicts": 2000,
             "fetch_bytes": 2000 * 1024, "evict_bytes": 2000 * 1024, "dedup_hits": 0}
        self.assertIsNone(benchstats.finegrain_identity(e))
        e["evicts"] = 1999
        self.assertIn("evicts", benchstats.finegrain_identity(e))

    def test_counts_repeat(self):
        a = {"fetches": 3, "evicts": 3}
        self.assertIsNone(benchstats.counts_repeat([a, dict(a), dict(a)]))
        self.assertIsNone(benchstats.counts_repeat([]))
        msg = benchstats.counts_repeat([a, {"fetches": 3, "evicts": 4}])
        self.assertIn("evicts", msg)
        self.assertIn("trial 1", msg)
        self.assertIn("dedup", benchstats.counts_repeat([a, dict(a, dedup=1)]))

    def test_reference_match(self):
        ref = {"fetches": 10, "total_time_bits": 42}
        self.assertIsNone(benchstats.reference_match(dict(ref, extra=1), ref))
        self.assertIn("total_time_bits",
                      benchstats.reference_match({"fetches": 10, "total_time_bits": 41}, ref))


def fake_trial(rate=1000.0, trace=False):
    """A finegrain_tasks-shaped trial result, as hmr_perfbench prints it."""
    tasks = 1000
    return {"crashed": False, "correct": True, "message": "", "trace": trace,
            "setup_s": 0.002, "peak_rss_kb": 16384, "iter_s": [0.001] * 40,
            "wall_s": tasks / rate, "cpu_s": 0.01, "tasks": tasks,
            "attempted": tasks, "failed": 0, "fetches": 2 * tasks, "evicts": 2 * tasks,
            "fetch_bytes": 2 * tasks * 1024, "evict_bytes": 2 * tasks * 1024,
            "exact": {"tasks_run": tasks, "fetches": 2 * tasks, "evicts": 2 * tasks,
                      "fetch_bytes": 2 * tasks * 1024, "evict_bytes": 2 * tasks * 1024,
                      "dedup_hits": 0},
            "layers": {}, "layer_source": {}, "host": {}}


class FailureIsolation(unittest.TestCase):
    """An abort inside one trial is a failed run with its message; the
    other trials still give the metrics."""

    def test_aborting_trial_is_recorded(self):
        tmp = tempfile.mkdtemp(dir=os.path.dirname(os.path.abspath(__file__)))
        try:
            exe = os.path.join(tmp, "aborts")
            with open(exe, "w") as f:
                f.write("#!/bin/sh\n"
                        "echo 'hmr: CHECK failed: res.ok at src/rt/runtime.cpp:634: "
                        "migration failed' >&2\n"
                        "kill -ABRT $$\n")
            os.chmod(exe, 0o755)
            t = run.run_trial(exe, "finegrain_tasks", 1, False, 0)
        finally:
            shutil.rmtree(tmp)
        self.assertTrue(t["crashed"])
        self.assertIn("SIGABRT", t["message"])
        self.assertIn("runtime.cpp:634", t["message"])

    def test_fold_counts_a_crash_without_losing_the_run(self):
        crash = {"crashed": True, "trace": False, "message": "exit -6 (SIGABRT): boom"}
        trials = [fake_trial(), crash, fake_trial(), fake_trial()]
        result, problems, _ = run.fold("finegrain_tasks", False, trials)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 3001)
        self.assertAlmostEqual(result["metrics"]["ok_frac"]["value"], 0.75)
        self.assertAlmostEqual(result["metrics"]["tasks_per_s"]["value"], 1000.0)
        self.assertTrue(any("boom" in p for p in problems))

    def test_fold_clean_run(self):
        result, problems, _ = run.fold("finegrain_tasks", False, [fake_trial(), fake_trial()])
        self.assertTrue(result["correct"], problems)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_fold_rejects_a_count_that_does_not_repeat(self):
        a, b = fake_trial(), fake_trial()
        b["exact"] = dict(b["exact"], evicts=1999)
        result, problems, _ = run.fold("finegrain_tasks", False, [a, b])
        self.assertFalse(result["correct"])
        self.assertTrue(any("evicts" in p for p in problems))


class MetricLists(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])

    def test_des_reference_is_complete(self):
        ref = run.load_reference()
        for k in ("tasks_completed", "fetches", "evicts", "fetch_bytes",
                  "evict_bytes", "dedup_hits", "total_time_bits"):
            self.assertIn(k, ref)


if __name__ == "__main__":
    unittest.main()
