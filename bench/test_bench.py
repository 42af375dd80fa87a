"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def job(key, code, latency, sha="x"):
    return {"key": key, "tag": key[:2], "word": [1], "t": 2, "code": code,
            "latency_s": latency, "sha256": sha}


N = calibrate.NOMINAL_S


def nominal(jobs: int) -> list[list[float]]:
    """Calibration slots of a process that ran at nominal speed."""
    return [[N]] * (jobs + 1)


def setup(seconds, calibration=N):
    return {"setup_s": seconds, "calibration_s": [[calibration]]}


class Latency(unittest.TestCase):
    def test_failed_config_counts_as_infinite(self):
        self.assertEqual(run.median_failed_inf([1, 2, 3, 0.5],
                                               [True, True, True, False]),
                         2.5)

    def test_fixing_a_false_trail_never_reads_as_slowdown(self):
        before = run.median_failed_inf([1, 2, 3, 0.1],
                                       [True, True, True, False])
        after = run.median_failed_inf([1, 2, 3, 9.0], [True] * 4)
        self.assertLessEqual(after, before)

    def test_mostly_failing_workload_reports_worst_finite_value(self):
        batch = {"jobs": [job("a", 5, 1.0), job("b", 5, 1.0),
                          job("c", 0, 1.0)],
                 "peak_rss_mb": 10.0,
                 "calibration_s": nominal(3)}
        metrics = run.end_to_end([batch], [setup(0.2)])
        self.assertEqual(metrics["cfg_p50_s"][0], run.WORST)
        self.assertTrue(math.isfinite(metrics["cfg_p50_s"][0]))


class Goodput(unittest.TestCase):
    def test_only_successful_configs_count(self):
        self.assertEqual(run.goodput(8, 4.0), 2.0)

    def test_end_to_end_with_failures(self):
        # Latencies are medians per config over the batches, so the one
        # slow batch (c at 9.0 s) does not show.
        batches = [{"jobs": [job("a", 0, 1.0 * k), job("b", 5, 0.1),
                             job("c", 0, c), job("d", 0, 3.0)],
                    "peak_rss_mb": rss,
                    "calibration_s": nominal(4)}
                   for k, c, rss in ((1, 2.0, 20.0), (0.5, 9.0, 30.0),
                                     (1.5, 2.0, 25.0))]
        m = run.end_to_end(batches, [setup(0.3), setup(0.1), setup(0.2)])
        self.assertEqual(m["goodput_cfg_per_s"], (3 / 6.1, "configs/s"))
        self.assertEqual(m["ok_frac"], (0.75, "ratio"))
        self.assertEqual(m["cfg_p50_s"], (2.5, "s"))
        self.assertEqual(m["peak_rss_mb"], (25.0, "MB"))
        self.assertEqual(m["setup_s"], (0.2, "s"))

    def test_config_failing_in_any_batch_counts_as_failed(self):
        batches = [{"jobs": [job("a", code, 1.0), job("b", 0, 2.0)],
                    "calibration_s": nominal(2)} for code in (0, 5, 0)]
        self.assertEqual(run.per_config(batches), ([1.0, 2.0], [False, True]))


class NominalSpeed(unittest.TestCase):
    def test_times_are_scaled_by_their_own_process(self):
        # The batches ran at half, nominal and double speed.
        batches = [{"jobs": [job("a", 0, 4.0)],
                    "calibration_s": [[N, 2 * N], [3 * N]]},
                   {"jobs": [job("a", 0, 3.0)], "calibration_s": nominal(1)},
                   {"jobs": [job("a", 0, 1.0)],
                    "calibration_s": [[N / 2], [N / 2]]}]
        self.assertEqual(run.per_config(batches), ([2.0], [True]))
        self.assertEqual(run.per_config(batches, nominal=False),
                         ([3.0], [True]))
        times = run.timings(batches, [setup(0.4, 2 * N), setup(0.1)])
        self.assertAlmostEqual(times["setup_s"][0], 0.15)

    def test_each_job_takes_the_samples_around_it(self):
        w = calibrate.WINDOW
        # The machine slowed to half speed during job 1.
        slots = [[N] * w, [N] * w, [2 * N] * w, [2 * N] * w]
        self.assertEqual(calibrate.job_factors(slots), [1.0, 2 / 3, 0.5])

    def test_a_window_widens_until_it_holds_enough_samples(self):
        slots = [[N]] * 6 + [[2 * N]] * 18
        factors = calibrate.job_factors(slots)
        # Job 0 sees slots 0..8, job 5 slots 1..10, the last job 15..23.
        self.assertEqual(factors[0], 1.0)
        self.assertAlmostEqual(factors[5], 2 / 3)
        self.assertEqual(factors[-1], 0.5)
        self.assertEqual(len(factors), 23)


class SelfTime(unittest.TestCase):
    def setUp(self):
        self.now = 0.0
        self._clock = tracer.perf_counter
        tracer.perf_counter = lambda: self.now

    def tearDown(self):
        tracer.perf_counter = self._clock

    def tick(self, dt):
        self.now += dt

    def test_children_are_subtracted_from_the_layer(self):
        t = tracer.Tracer()
        inner = t.wrap("inner", "low", lambda: self.tick(3))

        def body():
            self.tick(1)
            inner()
            inner()
            self.tick(2)
        t.wrap("outer", "high", body)()
        self.assertEqual(t.inclusive["outer"], 9)
        self.assertEqual(t.inclusive["inner"], 6)
        self.assertEqual(t.self_time["high"], 3)
        self.assertEqual(t.self_time["low"], 6)
        self.assertEqual(t.calls["inner"], 2)

    def test_raising_span_is_closed_and_counted(self):
        t = tracer.Tracer()

        def boom():
            self.tick(4)
            raise KeyError("x")
        inner = t.wrap("inner", "low", boom)

        def body():
            self.tick(1)
            try:
                inner()
            except KeyError:
                pass
        t.wrap("outer", "high", body)()
        self.assertEqual(t.self_time["high"], 1)
        self.assertEqual(t.self_time["low"], 4)
        self.assertEqual(t.raised["inner", "KeyError"], 1)

    def test_counts_are_taken_outside_the_span(self):
        t = tracer.Tracer()

        def count(tr, result):
            self.tick(100)
            tr.counts["items"] += len(result)
        t.wrap("f", "layer", lambda: [1, 2, 3], count)()
        self.assertEqual(t.counts["items"], 3)
        self.assertEqual(t.inclusive["f"], 0)


class Digests(unittest.TestCase):
    def test_agreeing_batches_extend_the_record(self):
        record = {}
        batches = [{"jobs": [job("a", 0, 1, "h1"), job("b", 5, 1, "h2")]}] * 2
        self.assertEqual(run.digest_mismatches(batches, record), [])
        self.assertEqual(record, {"a": "h1", "b": "h2"})

    def test_disagreement_is_reported_once(self):
        record = {"a": "h1"}
        batches = [{"jobs": [job("a", 0, 1, "other")]}] * 3
        self.assertEqual(run.digest_mismatches(batches, record), ["a"])

    def test_failing_configs_are_listed_once(self):
        batches = [{"jobs": [job("B3x", 5, 1), job("A3y", 0, 1)]}] * 2
        self.assertEqual(run.failing_configs(batches),
                         [{"tag": "B3", "word": [1], "t": 2, "code": 5}])


class Inputs(unittest.TestCase):
    def test_word_counts(self):
        for tag, count in workloads.W0_WORD_COUNTS.items():
            words = workloads.reduced_words_of_w0(tag)
            self.assertEqual(len(words), count)
            self.assertEqual(len(set(words)), count)
        self.assertEqual(len(workloads.sweep_rank3()), 100)

    def test_greedy_words_and_module_dims(self):
        self.assertEqual(workloads.greedy_w0("B4"),
                         (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 4, 3, 2, 4, 3, 4))
        for tag, length in workloads.GREEDY_LENGTHS.items():
            self.assertEqual(len(workloads.greedy_w0(tag)), length)
        instances = workloads.LADDER + workloads.ENUMERATE[:-1]
        self.assertEqual([workloads.module_dim(*k) for k in instances],
                         [16, 42, 8, 16, 32, 26, 132, 165, 52, 78, 27, 32])
        self.assertEqual(len(workloads.ladder_envelope()), 6)
        self.assertEqual(len(workloads.build_enumerate()), 7)

    def test_seed_fixes_the_order_only(self):
        a = [j.key for j in workloads.jobs_for("sweep_rank3", 1)]
        b = [j.key for j in workloads.jobs_for("sweep_rank3", 1)]
        c = [j.key for j in workloads.jobs_for("sweep_rank3", 2)]
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(sorted(a), sorted(c))


if __name__ == "__main__":
    unittest.main()
