"""Unit tests for the benchmark runner's statistics and verdicts.

    python3 benchmark/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(100), 90.0)   # exactly 10
        self.assertEqual(run.tail_percentile(110), 90.0)
        self.assertEqual(run.tail_percentile(199), 90.0)   # p95: 9.95
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(999), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_too_few_samples(self):
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertIsNone(run.tail_percentile(19))

    def test_run_rejects_unsupported_tail(self):
        rows = {"tail_percentile": {"value": 90.0},
                "op_ms_tail": {"samples": 99}}
        result = {"correct": True, "failed": 0, "metrics": {"m": {}}}
        problems = run.run_problems(result, rows, ["m"])
        self.assertEqual(len(problems), 1)
        self.assertIn("fewer than 10", problems[0])
        rows["op_ms_tail"]["samples"] = 100
        self.assertEqual(run.run_problems(result, rows, ["m"]), [])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3 = run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))
        self.assertAlmostEqual(run.spread([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)

    def test_single_value(self):
        self.assertEqual(run.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(run.spread([2.0]), 0.0)


class VerdictTest(unittest.TestCase):
    A = [100.0, 101.0, 99.0, 100.5, 99.5]

    def test_ok_within_bound(self):
        b = [x * 1.03 for x in self.A]
        self.assertEqual(run.verdict(self.A, b, 0.05, "lower"), "ok")

    def test_regressed_beyond_bound(self):
        b = [x * 1.10 for x in self.A]
        self.assertEqual(run.verdict(self.A, b, 0.05, "lower"), "regressed")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [80.0, 120.0, 100.0, 90.0, 115.0]
        self.assertEqual(run.verdict(self.A, noisy, 0.05, "lower"),
                         "unresolved")

    def test_all_runs_better_overrides_spread(self):
        better = [50.0, 70.0, 60.0, 55.0, 65.0]
        self.assertEqual(run.verdict(self.A, better, 0.05, "lower"), "ok")

    def test_higher_is_better(self):
        lower = [x * 0.9 for x in self.A]
        self.assertEqual(run.verdict(self.A, lower, 0.05, "higher"),
                         "regressed")
        self.assertEqual(run.verdict(lower, self.A, 0.05, "higher"), "ok")


if __name__ == "__main__":
    unittest.main()
