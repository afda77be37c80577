"""Tests of compare.py: quartiles, the verdict rules and failure flagging.

    cd perfbench && python3 -m unittest -v test_compare
"""

import unittest

import compare

SPEC = {
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "plan.planning_ms", "unit": "ms", "better": "lower"}],
}


def report(workload, seed, metrics, trace=False, extra=None):
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "extra": extra or {"failed_frac": 0.0},
        "result": {"correct": True, "attempted": 10, "failed": 0,
                   "metrics": {k: {"value": v, "unit": ""}
                               for k, v in metrics.items()}},
    }


def runs(values, name="latency_p50_ms", **kw):
    return {("w", False): {seed: report("w", seed, {name: v}, **kw)
                           for seed, v in enumerate(values)}}


class SummaryTest(unittest.TestCase):
    def test_quartiles_and_spread(self):
        med, q1, q3, spread = compare.summary([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(spread, 1.0)

    def test_single_run_has_no_spread(self):
        self.assertEqual(compare.summary([3.0]), (3.0, 3.0, 3.0, 0.0))


class VerdictTest(unittest.TestCase):
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def pairs(self, change):
        return list(zip(self.base, change))

    def test_worse_beyond_bound(self):
        change = [v * 1.2 for v in self.base]
        status, move = compare.verdict(self.base, change, "lower", 0.1,
                                       self.pairs(change))
        self.assertEqual(status, "worse")
        self.assertAlmostEqual(move, 0.2)

    def test_within_bound_is_same(self):
        change = [v * 1.05 for v in self.base]
        status, _ = compare.verdict(self.base, change, "lower", 0.1,
                                    self.pairs(change))
        self.assertEqual(status, "same")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        status, _ = compare.verdict(self.base, noisy, "lower", 0.1, self.pairs(noisy))
        self.assertEqual(status, "unresolved")

    def test_noisy_but_disjoint_is_resolved(self):
        noisy_base = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [200 + i for i in range(10)]
        status, _ = compare.verdict(noisy_base, change, "lower", 0.1,
                                    list(zip(noisy_base, change)))
        self.assertEqual(status, "worse")

    def test_gain_needs_nine_of_ten_pair_wins(self):
        change = [v * 0.8 for v in self.base]
        status, _ = compare.verdict(self.base, change, "lower", 0.1,
                                    self.pairs(change))
        self.assertEqual(status, "gain")
        # Same medians, but two of ten pairs lost: no gain claimed.
        change[0], change[1] = 150, 150
        status, _ = compare.verdict(self.base, change, "lower", 0.5, self.pairs(change))
        self.assertEqual(status, "same")

    def test_higher_is_better(self):
        change = [v * 0.8 for v in self.base]
        status, move = compare.verdict(self.base, change, "higher", 0.1,
                                       self.pairs(change))
        self.assertEqual(status, "worse")
        self.assertAlmostEqual(move, 0.2)


class CompareTest(unittest.TestCase):
    def test_flags_worse_metric_and_exit_signal(self):
        base = runs([10.0] * 10)
        change = runs([13.0] * 10)
        rows, worse = compare.compare(base, change, SPEC)
        self.assertTrue(worse)
        by_name = {r[1]: r for r in rows}
        self.assertEqual(by_name["latency_p50_ms"][7], "worse")

    def test_any_failure_is_worse(self):
        base = runs([10.0] * 3)
        change = runs([10.0] * 3, extra={"failed_frac": 0.01})
        rows, worse = compare.compare(base, change, SPEC)
        self.assertTrue(worse)
        self.assertEqual({r[1]: r for r in rows}["failed_frac"][7], "worse")

    def test_traced_runs_list_layers_without_verdict(self):
        base = {("w", True): {1: report("w", 1, {"plan.planning_ms": 2.0}, trace=True)}}
        change = {("w", True): {
            1: report("w", 1, {"plan.planning_ms": 1.0}, trace=True)}}
        rows, worse = compare.compare(base, change, SPEC)
        self.assertFalse(worse)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][0], "w (traced)")
        self.assertAlmostEqual(rows[0][5], -0.5)
        self.assertIn("plan.planning_ms", compare.render(rows))


    def test_summarize_reports_quartiles_and_extras(self):
        summary = compare.summarize(runs([1.0, 2.0, 3.0, 4.0, 5.0]))
        latency = summary["w"]["latency_p50_ms"]
        self.assertEqual(latency["median"], 3.0)
        self.assertEqual(latency["runs"], 5)
        self.assertEqual(summary["w"]["failed_frac"]["median"], 0.0)


if __name__ == "__main__":
    unittest.main()
