"""Self-tests of the benchmark harness.

    python3 zwbench/selftest.py

Checks that schedules are a function of the seed, that a wrong output
lowers `completed_share`, that the reference loop allocates no objects
the garbage collector tracks, that the oracles agree with each other, and
that a traced pass repeats its counts exactly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import refloop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def schedule_hash(name: str, seed: int) -> str:
    spec, ops = workloads.WORKLOADS[name].generate(seed)
    return hashlib.sha256(json.dumps([spec, ops], sort_keys=True).encode()).hexdigest()


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(schedule_hash(name, 7), schedule_hash(name, 7))
                self.assertNotEqual(schedule_hash(name, 7), schedule_hash(name, 8))


class CompletedShareTest(unittest.TestCase):
    def test_wrong_answer_lowers_completed_share(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                spec, ops = wl.generate(3)
                ops = ops[:6]
                right = [wl.expected(spec, op) for op in ops]
                wrong = list(right)
                wrong[2] += "\n"
                ok = run.check_outputs(wl, spec, ops, [right, right])
                self.assertEqual(sum(ok), len(ops))
                ok_wrong = run.check_outputs(wl, spec, ops, [wrong, wrong])
                ok_unstable = run.check_outputs(wl, spec, ops, [right, wrong])
                norm = [{"ops": [0.01] * len(ops), "total": 0.01 * len(ops), "setup": 0.1}]
                raw = [{"peak_rss_kb": 1024}]
                share = run.end_to_end(norm, raw, ok_wrong)[0]["completed_share"]
                self.assertEqual(share, (len(ops) - 1) / len(ops))
                self.assertEqual(sum(ok_unstable), len(ops) - 1)


class ReferenceLoopTest(unittest.TestCase):
    def test_allocates_no_tracked_objects(self):
        def tracked_allocations(calls: int) -> int:
            gc.collect()
            before = gc.get_count()[0]
            for _ in range(calls):
                refloop.ref_loop()
            return gc.get_count()[0] - before

        enabled = gc.isenabled()
        gc.disable()
        try:
            self.assertEqual(tracked_allocations(5), tracked_allocations(0))
        finally:
            if enabled:
                gc.enable()

    def test_local_factors(self):
        refs = [refloop.REF_NOMINAL_S] * 5 + [2 * refloop.REF_NOMINAL_S] * 8
        factors = refloop.local_factors(refs)
        self.assertEqual(len(factors), len(refs) - 1)
        self.assertEqual(factors[0], 1.0)
        self.assertEqual(factors[-1], 0.5)


class StatisticsTest(unittest.TestCase):
    def test_tail_percentile_leaves_ten_beyond(self):
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(108), 90)
        self.assertEqual(run.tail_percentile(200), 95)
        self.assertEqual(run.tail_percentile(12), 50)
        values = sorted(range(1, 101))
        self.assertEqual(run.nearest_rank(values, 90), 90)


class OracleTest(unittest.TestCase):
    def test_codec_round_trip(self):
        for q in (Fraction(22, 7), Fraction(-3, 7), Fraction(1, 1009) + 2, Fraction(5), Fraction(-1, 2)):
            w = oracles.encode(q)
            self.assertEqual(oracles.value_of(w), q)
            self.assertTrue(all(d != 0 and abs(d) <= abs(p) for p, d in w))

    def test_codec_matches_documented_example(self):
        self.assertEqual(oracles.fmt_word(oracles.encode(Fraction(2))), "2:2,3:1")

    def test_schreier_small_cases(self):
        from zwords.ordinals import OMEGA

        self.assertTrue(oracles.schreier_member((3, 5, 9), OMEGA))
        self.assertFalse(oracles.schreier_member((3, 5), OMEGA))
        self.assertEqual(oracles.schreier_canon((2, 5, 7, 9), OMEGA), "[2,5]|7,9")


class TraceTest(unittest.TestCase):
    def test_traced_counts_repeat(self):
        name = "codec-cli"
        first = run.run_worker(name, 5, "--trace")["trace"]
        second = run.run_worker(name, 5, "--trace")["trace"]
        self.assertEqual(first["counters"], second["counters"])
        self.assertEqual({k: v["calls"] for k, v in first["layers"].items()},
                         {k: v["calls"] for k, v in second["layers"].items()})
        self.assertGreater(first["layers"]["cli"]["calls"], 0)
        self.assertGreater(first["counters"]["rationals.digits"], 0)


if __name__ == "__main__":
    unittest.main()
