"""Tests of the benchmark's own statistics and output checks.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from layers import core_layers, critic_gflops, render_table, Row  # noqa: E402
from stats import TAIL_BEYOND, digest, median, ratio, same_trajectory, tail  # noqa: E402


class TailRule(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))
        t = tail(reversed(values))
        self.assertEqual(t.value, 90)
        self.assertEqual(sum(v > t.value for v in values), TAIL_BEYOND)
        self.assertAlmostEqual(t.percentile, 90.0)
        self.assertEqual(t.samples, 100)

    def test_percentile_rises_with_sample_count(self):
        self.assertAlmostEqual(tail(range(1000)).percentile, 99.0)
        self.assertEqual(tail(range(1000)).value, 989)

    def test_smallest_sample_that_supports_a_tail(self):
        t = tail([5.0] * 10 + [1.0])
        self.assertEqual(t.value, 1.0)
        self.assertAlmostEqual(t.percentile, 100.0 / 11)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            tail(range(TAIL_BEYOND))

    def test_median(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            median([])


class Ratios(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        r = ratio(139, 420, "eval.requested")
        self.assertAlmostEqual(r.value, 139 / 420)
        self.assertEqual((r.numerator, r.base, r.base_name), (139, 420, "eval.requested"))
        self.assertIn("/ 420 (eval.requested)", r.describe())

    def test_zero_base_reports_zero_and_keeps_the_base(self):
        r = ratio(0, 0, "eval.requested")
        self.assertEqual(r.value, 0.0)
        self.assertEqual(r.base, 0)
        self.assertIn("(eval.requested)", r.describe())

    def test_hit_ratio_is_reported_against_requests(self):
        rep = {"wall_s": 2.0, "workers": 4, "setup_s": 0.001,
               "circuits": {"evaluations": 64, "failed": 0, "sessions_created": 0, "busy_s": 4.0},
               "eval": {"service": {"requested": 128, "hits": 64, "misses": 64, "coalesced": 0,
                                    "simulations": 64}}}
        values, bases, _ = run.rep_layers("ota_mc_yield", rep)
        self.assertAlmostEqual(values["eval.hit_ratio"], 0.5)
        self.assertEqual(bases["eval.hit_ratio"].base_name, "eval.requested")
        self.assertEqual(bases["eval.pool_utilization"].base, 8.0)
        self.assertAlmostEqual(values["eval.pool_utilization"], 0.5)


def ota_rep(traced, foms):
    return {"rep": 0, "traced": traced, "foms": foms, "checks": [],
            "circuits": {"evaluations": 300, "failed": 0, "sessions_created": 0},
            "wall_s": 1.0, "iterations": []}


class Digests(unittest.TestCase):
    trajectory = [0.25, 0.125, 1e-3, 7.0]

    def test_identical_trajectories_agree(self):
        self.assertTrue(same_trajectory(self.trajectory, list(self.trajectory)))
        self.assertEqual(digest([1, 2.0]), digest([1.0, 2]))  # JSON writes 1.0 as 1

    def test_one_ulp_perturbation_is_caught(self):
        perturbed = list(self.trajectory)
        perturbed[2] = math.nextafter(perturbed[2], 1.0)
        self.assertFalse(same_trajectory(self.trajectory, perturbed))

    def test_order_and_length_matter(self):
        self.assertFalse(same_trajectory(self.trajectory, self.trajectory[::-1]))
        self.assertFalse(same_trajectory(self.trajectory, self.trajectory[:-1]))
        self.assertFalse(same_trajectory([True], [1]))

    def test_traced_run_check_fails_on_a_perturbed_trajectory(self):
        untraced = ota_rep(False, self.trajectory)
        raw = {"reps": [untraced, ota_rep(True, list(self.trajectory))]}
        checks = dict(run.run_checks("ota_ma_opt", raw, [(raw["reps"][0], raw["reps"][1])]))
        self.assertTrue(checks["rep0.traced_trajectory_identical"])

        perturbed = list(self.trajectory)
        perturbed[0] = math.nextafter(perturbed[0], 0.0)
        raw = {"reps": [untraced, ota_rep(True, perturbed)]}
        checks = dict(run.run_checks("ota_ma_opt", raw, [(raw["reps"][0], raw["reps"][1])]))
        self.assertFalse(checks["rep0.traced_trajectory_identical"])
        self.assertTrue(checks["rep0.traced_counters_identical"])

    def test_warm_rerun_check_compares_job_streams(self):
        stream = {"trajectory": [0, True, False, 0.5]}
        changed = {"trajectory": [0, True, False, math.nextafter(0.5, 1.0)]}
        for warm, expected in ((stream, True), (changed, False)):
            rep = {"rep": 0, "traced": False, "checks": [],
                   "jobs": [{"name": "ldo-cold", "stream": stream},
                            {"name": "ldo-warm", "stream": warm}]}
            checks = dict(run.run_checks("daemon_tenants", {"reps": [rep]}, []))
            self.assertEqual(checks["rep0u.warm_rerun_trajectory_identical"], expected)


class Layers(unittest.TestCase):
    iterations = [
        {"wall_s": 0.10, "near_sampling": False,
         "spans": [["critic-train", -1, 0.04],
                   ["actor-train", 0, 0.03], ["simulate", 0, 0.01],
                   ["actor-train", 1, 0.02], ["simulate", 1, 0.03],
                   ["elite-update", -1, 0.001], ["elite-update", -1, 0.001]]},
        {"wall_s": 0.02, "near_sampling": True,
         "spans": [["near-sample", -1, 0.01], ["simulate", -1, 0.005]]},
    ]

    def test_critical_path_follows_the_slowest_lane(self):
        core = core_layers(self.iterations)
        self.assertEqual((core.iterations, core.ns_iterations, core.critic_rounds), (2, 1, 1))
        # Lane 1 (0.02 + 0.03) finishes after lane 0 (0.03 + 0.01).
        self.assertAlmostEqual(core.actor_crit_s, 0.02)
        self.assertAlmostEqual(core.sim_crit_s, 0.03 + 0.005)
        self.assertAlmostEqual(core.actor_lane_s, 0.05)
        self.assertAlmostEqual(core.crit_s(), 0.04 + 0.02 + 0.035 + 0.01 + 0.002)
        self.assertLessEqual(core.crit_s(), sum(it["wall_s"] for it in self.iterations))

    def test_jobs_add_up(self):
        core = core_layers(self.iterations)
        both = core + core
        self.assertEqual(both.iterations, 4)
        self.assertAlmostEqual(both.critic_s, 2 * core.critic_s)

    def test_critic_flops_from_shapes(self):
        # OTA: 2 x 16 inputs, 2 x 100 hidden, 9 outputs.
        weights = 32 * 100 + 100 * 100 + 100 * 9
        self.assertAlmostEqual(critic_gflops(1, 16, 9), 50 * 64 * weights * 6 / 1e9)

    def test_table_shows_share_of_wall(self):
        table = render_table([Row("core.critic", 3, 1.0, 1.0), Row("eval", 2, None, 0.5)], 4.0)
        self.assertIn("25.0%", table)
        self.assertIn("100.0%", table)


if __name__ == "__main__":
    unittest.main()
