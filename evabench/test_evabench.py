#!/usr/bin/env python3
"""Tests of the benchmark itself: request-list determinism, the percentile
helper, and a toy-scale smoke run of every workload, traced and untraced.

    python3 evabench/test_evabench.py
"""

import json
import random
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def request_list(workload, seed):
    out = subprocess.run(
        [str(run.BUILD / "evabench_load"), "--workload", workload,
         "--seed", str(seed), "--rate", "20", "--open-seconds", "5",
         "--dump", "60"],
        capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def requests_of_phase(lines, phase):
    return [json.loads(l.split(" ", 3)[3]) for l in lines
            if l.startswith("%d " % phase)]


class RequestListTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_same_list(self):
        for w in run.WORKLOADS:
            self.assertEqual(request_list(w, 5), request_list(w, 5))

    def test_other_seed_other_list(self):
        for w in run.WORKLOADS:
            self.assertNotEqual(request_list(w, 5), request_list(w, 6))

    def test_fresh_requests_have_unique_seeds(self):
        lines = request_list("fleet_fresh", 5)
        seeds = [r["seed"] for p in (0, 1, 2)
                 for r in requests_of_phase(lines, p)]
        self.assertEqual(len(seeds), len(set(seeds)))
        self.assertNotIn(0, seeds)

    def test_fresh_shares_are_dealt_in_blocks(self):
        reqs = requests_of_phase(request_list("fleet_fresh", 5), 2)[:40]
        for block in (reqs[:20], reqs[20:]):
            self.assertEqual(Counter(r["n"] for r in block),
                             {1: 4, 2: 4, 4: 7, 8: 5})
            self.assertEqual(Counter(r["priority"] for r in block),
                             {"high": 3, "normal": 14, "low": 3})

    def test_two_fresh_in_every_25_repeat_requests(self):
        lines = request_list("fleet_repeat", 5)
        pool = {r["seed"] for r in requests_of_phase(lines, 0)[8:]}
        reqs = requests_of_phase(lines, 1)[:50]
        for block in (reqs[:25], reqs[25:]):
            self.assertEqual(sum(r["seed"] not in pool for r in block), 2)

    def test_repeat_traffic_reuses_a_small_pool(self):
        reqs = requests_of_phase(request_list("fleet_repeat", 5), 1)
        keys = [(r["type"], r["n"], r["seed"]) for r in reqs]
        self.assertLess(len(set(keys)), len(keys) // 2)


class TailTest(unittest.TestCase):
    def test_p99_of_1000_samples_has_10_beyond(self):
        v = list(range(1000))
        value, used, n = run.tail(v, 99)
        self.assertEqual((used, n), (99.0, 1000))
        self.assertEqual(sum(x > value for x in v), 10)

    def test_lowered_to_the_highest_supported_percentile(self):
        rng = random.Random(1)
        for n in (21, 50, 137, 500, 999):
            v = [rng.random() for _ in range(n)]
            value, used, _ = run.tail(v, 99)
            beyond = sum(x > value for x in v)
            self.assertEqual(beyond, 10, n)
            self.assertLess(used, 99.0)
            # One rank higher would leave fewer than 10 samples beyond.
            self.assertAlmostEqual(used, 100.0 * (n - 10) / n)

    def test_never_below_the_median(self):
        v = list(range(15))
        value, used, _ = run.tail(v, 99)
        self.assertEqual(value, 7)
        self.assertAlmostEqual(used, 100.0 * 8 / 15)

    def test_no_samples_is_a_failed_check(self):
        with self.assertRaises(run.CheckFailed):
            run.tail([], 99)


def response(items, request_id, cached):
    lines = [json.dumps({"request_id": request_id, "decoded": True,
                         "valid": False, "fom": 0.0, "netlist": nl,
                         "cached": cached}) for nl in items]
    lines.append(json.dumps({"done": True, "request_id": request_id,
                             "status": "ok", "items": len(items),
                             "stages": {"decode_ms": 3.0, "cache_ms": 0.5,
                                        "verify_ms": 1.5}}))
    return lines


class ProbeCheckTest(unittest.TestCase):
    def probe(self, router_items):
        return {"request": json.dumps({"n": 2}),
                "router": response(router_items, 7, True),
                "replicas": [{"lines": response(["a", "b"], 3, False)},
                             {"lines": response(["a", "b"], 9, True)}],
                "replay": response(["a", "b"], 0, False)}

    def test_request_id_and_cached_are_ignored(self):
        failures = []
        stage_ms, failed = run.check_probes([self.probe(["a", "b"])], failures)
        self.assertEqual((failures, failed), ([], 0))
        self.assertEqual(stage_ms, [5.0, 5.0])

    def test_different_items_fail(self):
        failures = []
        _, failed = run.check_probes([self.probe(["a", "c"])], failures)
        self.assertEqual(failed, 1)
        self.assertIn("router items differ", failures[0])

    def test_missing_terminator_fails(self):
        p = self.probe(["a", "b"])
        p["replicas"][1]["lines"].pop()
        failures = []
        _, failed = run.check_probes([p], failures)
        self.assertEqual(failed, 1)
        self.assertIn("replica 1 did not answer ok", failures[0])


class SpecTest(unittest.TestCase):
    def test_workloads_and_rates_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        for w in spec["workloads"]:
            rate = "%g req/s" % run.WORKLOADS[w["name"]]["rate"]
            self.assertIn(rate, w["why"])


class SmokeTest(unittest.TestCase):
    """Each workload at toy scale: checks pass and every metric of
    BENCHMARK.json is printed with its unit."""

    def smoke(self, workload, trace):
        out = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "3", "--trace", str(trace), "--toy"],
            capture_output=True, text=True, timeout=170)
        lines = out.stdout.strip().splitlines()
        self.assertEqual(out.returncode, 0, out.stdout[-3000:])
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        want = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        stamp = json.loads(lines[-2][len("STAMP "):])
        for key in ("commit", "nproc", "build_type", "loadavg_start", "seed",
                    "phases"):
            self.assertIn(key, stamp)
        for phase in stamp["phases"].values():
            self.assertEqual(set(phase), {"attempted", "succeeded", "failed"})

    def test_fleet_fresh(self):
        self.smoke("fleet_fresh", 0)
        self.smoke("fleet_fresh", 1)

    def test_fleet_repeat(self):
        self.smoke("fleet_repeat", 0)
        self.smoke("fleet_repeat", 1)


if __name__ == "__main__":
    unittest.main()
