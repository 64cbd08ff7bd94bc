#!/usr/bin/env python3
"""Unit tests for steady.py's helpers: python3 perfbench/test_steady.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from steady import digests, quartile_spread  # noqa: E402


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        # quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
        self.assertAlmostEqual(quartile_spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(quartile_spread([3.0] * 10), 0.0)

    def test_is_relative_to_the_median(self):
        base = [9.0, 10.0, 10.0, 10.5, 11.0, 10.0, 9.5, 10.0, 10.2, 9.8]
        self.assertAlmostEqual(quartile_spread([2 * v for v in base]), quartile_spread(base))

    def test_ignores_order(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        self.assertEqual(quartile_spread(v), quartile_spread(sorted(v)))


class Digests(unittest.TestCase):
    def test_finds_one_digest_per_pass(self):
        out = ("# records (untraced): 10 scored, digest 00ab, success_ratio 0\n"
               "# records (traced): 10 scored, digest 00ab, success_ratio 0\n")
        self.assertEqual(digests(out), ["00ab", "00ab"])


if __name__ == "__main__":
    unittest.main()
