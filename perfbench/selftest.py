"""Self-test of the benchmark's own metric code; needs no program.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import unittest
from pathlib import Path

import run
from hostspeed import NOMINAL_MS, HostSpeed
from metrics import (
    at_speed, covered, loglog_slope, nearest_ancestor, percentile, ratio, samples_beyond,
    self_times,
)
from tracer import Tracer
from workloads import WORKLOADS, Op


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))          # 1..100, unsorted
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 90), 90)
        self.assertEqual(percentile(values, 100), 100)
        self.assertEqual(percentile([7.0], 90), 7.0)
        self.assertEqual(percentile(list(range(1, 11)), 90), 9)

    def test_ten_samples_beyond_p90_need_a_hundred(self):
        self.assertEqual(samples_beyond(100, 90), 10)
        self.assertEqual(samples_beyond(99, 90), 9)
        self.assertGreaterEqual(samples_beyond(run.MIN_OPS, 90), 10)

    def test_rejects_empty_and_bad_rank(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1], 0)


class SelfTime(unittest.TestCase):
    def test_children_overlap_and_clipping(self):
        # parent [0,10]; children [1,3] and [2,4] overlap, [9,12] sticks out
        starts, ends = [0.0, 1.0, 2.0, 9.0, 1.5], [10.0, 3.0, 4.0, 12.0, 2.5]
        parents = [-1, 0, 0, 0, 1]                 # span 4 is a grandchild
        own = self_times(starts, ends, parents)
        self.assertAlmostEqual(own[0], 10 - (3 + 1))   # [1,4] and [9,10]
        self.assertAlmostEqual(own[1], 2 - 1)          # minus the grandchild
        self.assertAlmostEqual(own[2], 2)
        self.assertAlmostEqual(own[4], 1)

    def test_covered_union(self):
        self.assertAlmostEqual(covered([(0, 2), (1, 3), (5, 6)], 0, 10), 4)
        self.assertAlmostEqual(covered([(0, 2)], 1, 10), 1)
        self.assertEqual(covered([], 0, 1), 0)

    def test_nearest_ancestor(self):
        names = ["a", "b", "a", "c", "c"]
        parents = [-1, 0, 1, 2, -1]
        self.assertEqual(nearest_ancestor(names, parents, {"a"}), [-1, 0, 0, 2, -1])


class Ratios(unittest.TestCase):
    def test_empty_base(self):
        self.assertEqual(ratio(3, 4), 0.75)
        self.assertEqual(ratio(5, 0), 0.0)

    def test_slope(self):
        self.assertAlmostEqual(loglog_slope([(8, 64), (16, 256), (32, 1024)]), 2.0)
        self.assertEqual(loglog_slope([(8, 1.0)]), 0.0)

    def test_layer_ratio_bases(self):
        """Two checks with 4 and 3 probe heights making 3 and 2 supp calls;
        one invariant check over 5 moves making 4 leq_s calls; one handler
        that re-validates after its constructor."""
        t = Tracer()
        t.active = True

        def span(name, extra=None, children=()):
            idx = t._open(t._id(name))
            for child in children:
                child()
            t._close(idx)
            if extra is not None:
                t.extra[idx] = extra

        def restrict(same):
            return lambda: span("ascent.AscentLevel.restrict", same)

        def supp():
            span("ascent.supp", children=[restrict(False)])

        span("conditions.check_condition", 4, [supp, supp, supp])
        span("conditions.check_condition", 3, [supp, supp])
        span("ascent.supp", children=[restrict(True)])          # outside any check
        span("game.check_run_invariants", 5, [lambda: span("conditions.leq_s")] * 4)
        span("conditions.leq_s")                                 # outside the invariants
        span("cli.cmd_extend", children=[
            lambda: span("conditions.one_step_extension",
                         children=[lambda: span("conditions.check_condition", 2)]),
            lambda: span("conditions.check_condition", 2)])
        ops = [Op("x", "x", lambda: None, None)]
        recs = [run.Record(0, 0.5, True, {})]
        with contextlib.redirect_stdout(io.StringIO()):
            m, na = run.layer_metrics("verify", ops, recs, t, traced_rate=1.0, base_rate=2.0)
        self.assertEqual(m["conditions.check_condition.calls"], 4)
        self.assertEqual(m["conditions.c2.supp_per_check"], 5 / 4)
        self.assertEqual(m["conditions.c2.useful_ratio"], (3 + 2 + 1 + 1) / 5)
        self.assertEqual(m["ascent.restrict.same_height_ratio"], 1 / 6)
        self.assertEqual(m["game.invariants.leq_s_per_move"], 4 / 5)
        self.assertEqual(m["cli.reverify.check_condition_calls"], 1)
        self.assertEqual(m["conditions.invalid_share"], 0.0)
        self.assertEqual(m["trace.overhead_ratio"], 0.5)
        self.assertEqual(m["conditions.calls"], 4 + 6)
        self.assertIn("cli.compute_ms", na)
        self.assertNotIn("conditions.c2.useful_ratio", na)


class HostScaling(unittest.TestCase):
    def test_times_and_rates_scale_the_rest_stays(self):
        values = {"t_ms": 10.0, "t_s": 2.0, "rate": 40.0, "n": 7, "share": 0.5}
        units = [("t_ms", "ms"), ("t_s", "s"), ("rate", "ops/s"), ("n", "count"),
                 ("share", "ratio")]
        self.assertEqual(at_speed(values, units, 0.5),
                         {"t_ms": 5.0, "t_s": 1.0, "rate": 80.0, "n": 7, "share": 0.5})

    def test_factor_is_nominal_over_median_sample(self):
        host = HostSpeed()
        host.samples = [NOMINAL_MS * 2e-3, NOMINAL_MS * 4e-3, NOMINAL_MS * 1e-3]
        self.assertAlmostEqual(host.factor(), 0.5)   # a host at half speed

    def test_samples_are_spaced(self):
        host = HostSpeed()
        host.maybe_sample()
        host.maybe_sample()
        self.assertEqual(len(host.samples), 1)
        self.assertGreater(host.samples[0], 0)


class ContractFile(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.E2E_METRICS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.LAYER_METRICS)


if __name__ == "__main__":
    unittest.main()
