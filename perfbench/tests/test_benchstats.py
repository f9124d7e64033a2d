"""Tests of perfbench/benchstats.py; run with
PYTHONPATH=perfbench python3 -m unittest discover -s perfbench/tests
(or python3 perfbench/run.py --selftest)."""

import statistics
import unittest

import benchstats


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles_match_the_statistics_module(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
        self.assertEqual(benchstats.median(v), 3.5)
        q = statistics.quantiles(v, n=4)
        self.assertEqual(benchstats.quartiles(v), (q[0], q[2]))

    def test_quartiles_of_one_value(self):
        self.assertEqual(benchstats.quartiles([7.0]), (7.0, 7.0))

    def test_tail_needs_ten_samples_beyond_it(self):
        hundred = list(range(1, 101))
        # p95 has only 5 samples beyond it; p90 has exactly 10.
        self.assertEqual(benchstats.tail_percentile(hundred), ("p90", 90))
        thousand = list(range(1, 1001))
        self.assertEqual(benchstats.tail_percentile(thousand), ("p99", 990))
        # 25 samples: p75 (rank 19) has 6 beyond, p50 (rank 13) has 12.
        self.assertEqual(benchstats.tail_percentile(list(range(25))),
                         ("p50", 12))

    def test_percentile_is_nearest_rank_like_the_tail(self):
        # 36 samples in two modes: the 18th smallest is the p50, where
        # statistics.median would average the two modes.
        v = [0.001] * 18 + [0.1] * 18
        self.assertEqual(benchstats.percentile(v, 50), 0.001)
        self.assertEqual(benchstats.tail_percentile(v), ("p50", 0.001))
        self.assertEqual(benchstats.percentile([4, 1, 3, 2], 75), 3)

    def test_tail_falls_back_to_the_maximum_below_twenty_samples(self):
        self.assertEqual(benchstats.tail_percentile([3, 1, 2]), ("max", 3))

    def test_tail_is_order_independent(self):
        self.assertEqual(benchstats.tail_percentile(list(range(100, 0, -1))),
                         ("p90", 90))


class SpanTest(unittest.TestCase):
    @staticmethod
    def span(sid, parent, start, end, name="x", detail=""):
        return {"id": sid, "parent": parent, "job": 1, "name": name,
                "detail": detail, "start_ns": start, "end_ns": end}

    def test_covered_merges_overlaps(self):
        self.assertEqual(benchstats.covered([(10, 30), (20, 40), (50, 60)]),
                         40)
        self.assertEqual(benchstats.covered([]), 0)

    def test_self_time_subtracts_children_clipped_to_the_parent(self):
        spans = [self.span(1, 0, 0, 100),
                 self.span(2, 1, 10, 30), self.span(3, 1, 20, 40),
                 self.span(4, 1, 90, 120)]
        st = benchstats.self_times(spans)
        # Children cover [10, 40) and [90, 100) of the parent.
        self.assertEqual(st[1], 60)
        self.assertEqual(st[2], 20)
        self.assertEqual(st[4], 30)

    def test_ranking_sums_self_time_by_name_and_detail(self):
        spans = [self.span(1, 0, 0, 100, "job"),
                 self.span(2, 1, 0, 50, "gc.collect", "minor"),
                 self.span(3, 1, 60, 70, "gc.collect", "minor")]
        ranking = benchstats.self_time_ranking(spans)
        self.assertEqual(ranking, [("gc.collect[minor]", 60, 2),
                                   ("job", 40, 1)])


if __name__ == "__main__":
    unittest.main()
