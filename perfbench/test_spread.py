"""Tests of the cross-run statistics: python3 -m unittest discover perfbench"""

import statistics
import unittest

from spread import seeds, spread
from run import bad_numbers


class SpreadTest(unittest.TestCase):
    def test_quartiles_are_the_exclusive_method(self):
        # statistics.quantiles' default ('exclusive') on 1..10:
        # Q1 = 2.75, median = 5.5, Q3 = 8.25.
        med, share = spread(list(range(1, 11)))
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(share, (8.25 - 2.75) / 5.5)

    def test_two_outliers_per_side_barely_move_the_spread(self):
        steady = [10.0] * 6
        _, base = spread(steady + [10.0] * 4)
        _, noisy = spread([1.0, 2.0] + steady + [50.0, 90.0])
        self.assertEqual(base, 0.0)
        # Q1 and Q3 each sit a quarter of the way into the first and last
        # outlier gaps: (10 + 0.25·40) - (2 + 0.75·8) = 12.
        self.assertAlmostEqual(noisy, 12.0 / 10.0)

    def test_spread_is_scale_free(self):
        values = [4.1, 4.3, 4.0, 4.6, 4.2, 4.4, 4.5, 4.2, 4.3, 4.1]
        self.assertAlmostEqual(spread(values)[1], spread([v * 1000 for v in values])[1])

    def test_matches_statistics_directly(self):
        values = [7.1, 7.5, 7.4, 7.6, 6.8, 8.0, 7.2]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(spread(values), (med, (q3 - q1) / med))

    def test_seed_ranges(self):
        self.assertEqual(seeds("1-10"), list(range(1, 11)))
        self.assertEqual(seeds("7"), [7])


class OutputCheckTest(unittest.TestCase):
    def test_missing_null_and_non_numeric_values_are_named(self):
        values = {"a": 1.5, "b": None, "c": "fast", "d": True, "e": float("nan")}
        self.assertEqual(bad_numbers(values, ["a", "b", "c", "d", "e", "f"]),
                         ["b", "c", "d", "e", "f"])


if __name__ == "__main__":
    unittest.main()
