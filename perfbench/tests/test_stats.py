"""Unit tests for the benchmark's percentile rule, failure accounting, output
checks and host fingerprints.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import host  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 0.5), 50)
        self.assertEqual(stats.percentile(xs, 0.95), 95)
        self.assertEqual(stats.percentile(list(reversed(xs)), 0.95), 95)
        self.assertEqual(stats.percentile([7.0], 0.95), 7.0)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)

    def test_p95_needs_two_hundred_samples(self):
        self.assertEqual(stats.beyond(200, 0.95), stats.MIN_BEYOND)
        self.assertLess(stats.beyond(199, 0.95), stats.MIN_BEYOND)
        self.assertEqual(stats.beyond(20, 0.5), stats.MIN_BEYOND)
        self.assertLess(stats.beyond(19, 0.5), stats.MIN_BEYOND)

    def test_workload_rates_give_enough_answers(self):
        # At the benchmark's run length both open-loop workloads send enough
        # lines for p95 to have ten answers beyond it.
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
        serve = -(-seconds // workloads.PERIOD) * workloads.BURST
        stream = -(-seconds // workloads.TICK_PERIOD) * workloads.SESSIONS
        for sent in (serve, stream):
            self.assertGreaterEqual(stats.beyond(int(sent), workloads.TAIL_Q), stats.MIN_BEYOND)

    def test_too_few_answers_count_as_a_failure(self):
        class Child:
            peak_rss_mb, cpu_s, exit_code = 1.0, 1.5, 0

        answered = [(0.0, 0.1 * k) for k in range(1, 150)]
        ledger = stats.Ledger()
        for _ in answered:
            ledger.ok()
        workloads._latency_result([0.1], answered, ledger, Child(), 1.0, [(1, 2)], [(1, 2)], [0.0])
        self.assertEqual(ledger.reasons, {"too_few_answers_for_p95": 1})


class Spreads(unittest.TestCase):
    def test_quartile_spread_matches_statistics_quantiles(self):
        # statistics.quantiles' default ("exclusive") method.
        vals = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, q2, q3 = 11.75, 14.5, 17.25
        self.assertAlmostEqual(stats.quartile_spread(vals), (q3 - q1) / q2)

    def test_busy_time_merges_overlaps(self):
        self.assertAlmostEqual(stats.busy_time([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]), 4.0)
        self.assertEqual(stats.busy_time([]), 0.0)


class FailAccounting(unittest.TestCase):
    def test_every_unit_counts_once(self):
        ledger = stats.Ledger()
        for problem in (None, None, "missing_answer", None, "error:queue_full", "missing_answer"):
            ledger.check(problem)
        self.assertEqual(ledger.attempted, 6)
        self.assertEqual(ledger.failed, 3)
        self.assertEqual(ledger.reasons, {"missing_answer": 2, "error:queue_full": 1})
        self.assertAlmostEqual(ledger.fail_frac, 0.5)

    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(stats.Ledger().fail_frac, 1.0)

    def test_grid_checks(self):
        values = [[1.0, None], [None, 4.0]]
        good = {"id": 3, "ok": True, "q05": [[1.0, 1.5], [2.0, 4.0]],
                "median": [[1.0, 2.0], [3.0, 4.0]], "q95": [[1.0, 2.5], [3.5, 4.0]]}
        check = workloads.check_grid_answer
        self.assertIsNone(check(good, 3, values))
        self.assertEqual(check(dict(good, id=4), 3, values), "id_mismatch")
        self.assertEqual(check({"id": 3, "ok": False, "error": {"kind": "queue_full"}}, 3, values),
                         "error:queue_full")
        self.assertEqual(check(dict(good, median=[[1.0, None], [3.0, 4.0]]), 3, values),
                         "null_cell")
        self.assertEqual(check(dict(good, median=[[1.0, 2.0], [3.0]]), 3, values), "bad_shape")
        self.assertEqual(check(dict(good, median=[[1.0, 3.0], [3.0, 4.0]]), 3, values),
                         "quantiles_unordered")
        self.assertEqual(check(dict(good, median=[[1.0, 2.0], [3.0, 4.1]],
                                    q95=[[1.0, 2.5], [3.5, 4.1]]), 3, values),
                         "observed_cell_changed")

    def test_interpolation_reference(self):
        self.assertEqual(workloads._interp([None, 1.0, None, 3.0, None]), [1.0, 1.0, 2.0, 3.0, 3.0])
        self.assertEqual(workloads._interp([None, None]), [0.0, 0.0])

    def test_stream_checks(self):
        checker = workloads.StreamChecker()
        tick = ("data", [1.0, None, 3.0], [1.0, 2.0, 3.0])
        ok = {"id": 1, "ok": True, "session": 0, "step": 0, "watermark": 0, "imputed": True,
              "revisions": [{"node": 1, "step": 0, "q05": 1.0, "q50": 2.0, "q95": 3.0}]}
        self.assertIsNone(checker.check(1, 0, tick, ok))
        self.assertEqual(checker.last_q50[(0, 1, 0)], 2.0)
        # The next answer arrives out of input order.
        self.assertEqual(checker.check(2, 0, tick, dict(ok, id=3)), "out_of_order")
        checker = workloads.StreamChecker()
        checker.check(1, 0, tick, dict(ok, watermark=1))
        self.assertEqual(checker.check(2, 0, ("reimpute",), dict(ok, id=2, watermark=0)),
                         "watermark_regressed")
        checker = workloads.StreamChecker()
        self.assertEqual(checker.check(1, 0, tick, dict(ok, revisions=[])), "revision_set")


class Fingerprints(unittest.TestCase):
    def test_host_keys_must_match_but_revision_may_differ(self):
        a = {"cores": 2, "simd_tier": "Avx2", "par_threads": 2, "ST_PAR_THREADS": "",
             "rustc": "rustc 1.95.0", "rev": "git:aaa"}
        self.assertEqual(host.mismatch(a, dict(a, rev="git:bbb")), [])
        self.assertEqual(host.mismatch(a, dict(a, cores=4, simd_tier="Sse2")),
                         ["cores", "simd_tier"])


if __name__ == "__main__":
    unittest.main()
