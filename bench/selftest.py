"""Self-tests for the benchmark's metric arithmetic and its metric catalogue.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from stats import (  # noqa: E402
    TAIL_MIN_BEYOND,
    dumps,
    end_to_end,
    loads,
    nearest_rank,
    percentile_ms,
    ranked,
    tail,
    REF_NOMINAL_S,
    reference_slowdown,
)
from tracing import Tracer  # noqa: E402


class RankingTest(unittest.TestCase):
    def test_failures_rank_above_every_success(self):
        latencies = [0.001, 0.5, 0.002, 0.3]
        oks = [False, True, False, True]
        order = ranked(latencies, oks)
        self.assertEqual([failed for failed, _ in order], [False, False, True, True])
        # The slowest success still ranks below the fastest failure.
        self.assertEqual(order[1], (False, 0.5))

    def test_percentile_on_a_failure_is_missed(self):
        latencies = [0.01 * i for i in range(1, 101)]
        oks = [i % 5 != 0 for i in range(100)]  # 20 failures
        self.assertIsNone(percentile_ms(latencies, oks, 90.0))
        self.assertIsNotNone(percentile_ms(latencies, oks, 50.0))
        self.assertIsNone(percentile_ms([0.1, 0.2, 0.3], [False, False, True], 50.0))

    def test_percentile_never_uses_successes_alone(self):
        # Two successes and one failure: the p50 is the slower success,
        # not the median of the successes.
        self.assertAlmostEqual(percentile_ms([0.1, 0.3, 0.01], [True, True, False], 50.0), 300.0)

    def test_tail_keeps_at_least_ten_ops_beyond(self):
        for count in range(1, 300):
            pct, value = tail([0.001 * i for i in range(count)], [True] * count)
            if count <= TAIL_MIN_BEYOND:
                self.assertIsNone(pct)
                self.assertIsNone(value)
                continue
            rank = nearest_rank(count, pct)
            self.assertEqual(count - rank, TAIL_MIN_BEYOND, count)
            # One rank higher would leave fewer than ten beyond it.
            self.assertLess(count - (rank + 1), TAIL_MIN_BEYOND)
            self.assertAlmostEqual(value, 0.001 * (rank - 1) * 1e3)

    def test_tail_lands_on_failure_when_eleven_fail(self):
        count = 100
        for failures, missed in ((10, False), (11, True)):
            oks = [True] * (count - failures) + [False] * failures
            pct, value = tail([0.01] * count, oks)
            self.assertEqual(pct, 90.0)
            self.assertEqual(value is None, missed)


class JsonTest(unittest.TestCase):
    def test_non_finite_values_are_refused(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with self.assertRaises(ValueError):
                dumps({"value": bad})
        for text in ('{"v": NaN}', '{"v": Infinity}', '{"v": -Infinity}', '{"v": nan}'):
            with self.assertRaises(ValueError):
                loads(text)

    def test_end_to_end_record_is_strict_json(self):
        metrics = end_to_end([0.1, 0.2, 0.05], [True, False, True], 0.35, 1.5, 0.5, 60.0)
        text = dumps(metrics)
        self.assertEqual(loads(text)["op_tail_ms"], None)
        self.assertNotIn("NaN", text)
        self.assertNotIn("Infinity", text)
        self.assertAlmostEqual(metrics["error_rate"], 1 / 3)
        self.assertAlmostEqual(metrics["goodput_raw_per_s"], 2 / 0.35)
        # A host 1.5x slower than nominal: goodput at nominal speed.
        self.assertAlmostEqual(metrics["goodput_per_s"], 1.5 * 2 / 0.35)

    def test_reference_slowdown_is_a_median(self):
        for kind, nominal in REF_NOMINAL_S.items():
            samples = [3 * nominal, 2 * nominal, 30 * nominal]
            self.assertAlmostEqual(reference_slowdown(samples, kind), 3.0)


class TracerTest(unittest.TestCase):
    def test_self_time_and_innermost_error(self):
        tracer = Tracer()

        def failing():
            raise ValueError("log-determinant -800.0 is below -700.0")

        def op():
            tracer.call("linalg.a", sum, [1, 2])
            tracer.call("gaussian.b", failing)

        with self.assertRaises(ValueError):
            tracer.call("bench.op", op)
        summary = tracer.summary()
        self.assertEqual(summary["errors"], {
            "gaussian": {"type.ValueError": 1, "cause.log_det_floor": 1}
        })
        # Self times partition the root span.
        op_ms = summary["functions"]["bench.op"][0]
        self.assertAlmostEqual(sum(summary["self_ms"].values()), op_ms, places=9)


class CatalogueTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            cls.spec = json.load(handle)

    def test_per_layer_names_match_the_computed_metrics(self):
        empty = {
            "layers": {"functions": {}, "self_ms": {}, "errors": {}},
            "defects": {"attempted": 0, "failed": 0, "errors": {}},
            "counters": {},
            "latencies_s": [1.0],
            "ref_run": 1.0,
            "ref_kind": "interpreter",
        }
        imports = {
            "cli.import_ms": 1.0,
            "cli.import_numpy_ms": 1.0,
            "cli.import_scipy_linalg_ms": 1.0,
        }
        computed = run.layer_metrics(empty, empty, empty, imports)
        listed = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(sorted(listed), sorted(computed))
        self.assertLessEqual(len(listed), 128)

    def test_end_to_end_entries(self):
        entries = self.spec["end_to_end"]
        for m in entries:
            self.assertEqual(run.E2E_UNITS[m["name"]], m["unit"])
            self.assertLessEqual(m["bound"], 0.25)
        bounds = {m["name"]: m["bound"] for m in entries}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_every_metric_name_is_unique(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(len(n) <= 64 for n in names))


if __name__ == "__main__":
    unittest.main()
