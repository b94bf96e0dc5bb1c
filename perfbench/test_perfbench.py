#!/usr/bin/env python3
"""The benchmark's own tests: correctness checks, determinism, layer split.

    python3 perfbench/test_perfbench.py

Builds the bench binaries like run.py does (into $CARGO_TARGET_DIR or
.bench_build) and takes about a minute and a half on a 4-core machine.
Seed 1 is the development seed; seed 2 is held out, so a later claim can
be re-checked on inputs nobody tuned against.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DEV_SEED = 1
HELD_OUT_SEED = 2
SECONDS = 0.1  # the binaries still run their minimum number of repeats

_cache = {}


def bench(workload, seed, traced=False):
    """(returncode, repeats, process) of one short bench-binary run, memoised."""
    key = (workload, seed, traced)
    if key not in _cache:
        binary = os.path.join(run.build(), "ntco_perfbench")
        if traced:
            binary += "_traced"
        _cache[key] = run.run_binary(binary, workload, seed, SECONDS)
    return _cache[key]


def layers(workload):
    return bench(workload, DEV_SEED, traced=True)[1][0]["layers"]


class CorrectnessAndDeterminism(unittest.TestCase):
    def test_every_workload_passes_its_checks_on_both_seeds(self):
        for seed in (DEV_SEED, HELD_OUT_SEED):
            for w in run.WORKLOADS:
                with self.subTest(workload=w, seed=seed):
                    rc, repeats, _ = bench(w, seed)
                    self.assertGreaterEqual(len(repeats), 3)
                    self.assertEqual(run.check(rc, repeats), [])

    def test_t4_reproduces_t1_exactly(self):
        for seed in (DEV_SEED, HELD_OUT_SEED):
            for w in ("diurnal_day", "replan_burst", "vehicular_churn"):
                with self.subTest(workload=w, seed=seed):
                    self.assert_same_model(bench(w, seed)[1][0],
                                           bench(w + "_t4", seed)[1][0])

    def assert_same_model(self, t1, t4):
        self.assertEqual(t1["threads"], 1)
        self.assertEqual(t4["threads"], 4)
        self.assertEqual(t1["digest"], t4["digest"])
        self.assertEqual(t1["modelled"], t4["modelled"])

    def test_seeds_give_different_inputs(self):
        a = bench("replan_burst", DEV_SEED)[1][0]
        b = bench("replan_burst", HELD_OUT_SEED)[1][0]
        self.assertNotEqual(a["digest"], b["digest"])

    def test_tracing_changes_no_modelled_result(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                rc, traced, _ = bench(w, DEV_SEED, traced=True)
                self.assertEqual(run.check(rc, traced), [])
                self.assertEqual(traced[0]["digest"],
                                 bench(w, DEV_SEED)[1][0]["digest"])


class LayerSeparation(unittest.TestCase):
    def test_every_per_layer_metric_is_reported(self):
        names = {n for n, _, _ in run.PER_LAYER} - {"bench.trace_overhead"}
        self.assertEqual(names, set(layers("diurnal_day")))

    def test_cache_hit_ratio(self):
        self.assertEqual(layers("replan_burst")["broker.cache_hit_ratio"], 0)
        self.assertGreater(layers("diurnal_day")["broker.cache_hit_ratio"], 0.8)
        self.assertGreater(
            layers("vehicular_churn")["broker.cache_hit_ratio"], 0.8)

    def test_planning_share_orders_the_workloads(self):
        share = {w: layers(w)["broker.plan_share"]
                 for w in ("replan_burst", "diurnal_day", "vehicular_churn")}
        self.assertGreater(share["replan_burst"], share["diurnal_day"])
        self.assertGreater(share["diurnal_day"], share["vehicular_churn"])

    def test_dataplane_works_only_at_four_threads(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                dp = [layers(w)[k] for k in
                      ("dataplane.epochs", "dataplane.mean_occupancy",
                       "dataplane.worker_items_max_over_min")]
                if w.endswith("_t4"):
                    self.assertTrue(all(v > 0 for v in dp))
                else:
                    self.assertEqual(dp, [0, 0, 0])


class Contract(unittest.TestCase):
    def test_end_to_end_output(self):
        r = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "replan_burst", "--seed", str(HELD_OUT_SEED), "--seconds", "0.1",
             "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, check=False)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        out = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertEqual(set(out["metrics"]), {n for n, _, _ in run.END_TO_END})
        for v in out["metrics"].values():
            self.assertGreater(v["value"], 0)

    def test_fails_without_the_sources(self):
        # Only BENCHMARK.json and perfbench/: the build cannot succeed.
        bare = os.path.join(run.build(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        r = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "diurnal_day",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, check=False,
            timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
