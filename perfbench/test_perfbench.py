#!/usr/bin/env python3
"""Tests of the benchmark's own input generator and counts.

    python3 perfbench/run.py --selftest      (or run this file directly)

Builds the load generator first, then checks that
  * one seed writes byte-identical input files and another seed different
    ones, for every workload;
  * every planted search query's best match lands at its planted position;
  * the counts the program computes deterministically (cells per op, the
    cascade kill rates, the SIMD block share, pool chunks) repeat exactly
    across two traced runs of one seed, on search and pairwise.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: build, paths, parameters)

SELFTEST_DIR = os.path.join(run.BUILD_ROOT, "selftest")


def params(workload):
    config = run.load_json(os.path.join(run.HERE, "workloads.json"))
    return ["--%s=%s" % kv
            for kv in config["workloads"][workload]["params"].items()]


def generate(workload, seed, name):
    directory = os.path.join(SELFTEST_DIR, name)
    shutil.rmtree(directory, ignore_errors=True)
    subprocess.run([run.LOADGEN, "gen", "--workload=" + workload,
                    "--seed=%d" % seed, "--dir=" + directory]
                   + params(workload), check=True)
    return directory


def files_under(directory):
    found = []
    for root, _, names in os.walk(directory):
        for name in names:
            found.append(os.path.relpath(os.path.join(root, name), directory))
    return sorted(found)


def traced_metrics(workload, seed):
    code, out = run.run_once(workload, seed, 1, 1)
    if code != 0:
        raise AssertionError("%s traced run exited %d" % (workload, code))
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError("%s traced run failed checks" % workload)
    return {name: m["value"] for name, m in result["metrics"].items()}


class GeneratorTest(unittest.TestCase):

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in ("search", "pairwise", "serve"):
            with self.subTest(workload=workload):
                first = generate(workload, 7, workload + "-a")
                again = generate(workload, 7, workload + "-b")
                other = generate(workload, 8, workload + "-c")
                names = files_under(first)
                self.assertTrue(names)
                self.assertEqual(names, files_under(again))
                self.assertEqual(names, files_under(other))
                for name in names:
                    self.assertTrue(filecmp.cmp(
                        os.path.join(first, name), os.path.join(again, name),
                        shallow=False), name + " differs for one seed")
                    self.assertFalse(filecmp.cmp(
                        os.path.join(first, name), os.path.join(other, name),
                        shallow=False), name + " equal for two seeds")

    def test_planted_queries_land_on_their_plants(self):
        # An untraced search run asks every query at least once and fails
        # an operation whose planted query misses its plant.
        for seed in (1, 2, 3):
            with self.subTest(seed=seed):
                code, out = run.run_once("search", seed, 1, 0)
                self.assertEqual(code, 0, out)
                result = json.loads(out.strip().splitlines()[-1])
                self.assertEqual(result["failed"], 0, out)
                self.assertGreaterEqual(result["attempted"], 2048)


class DeterministicCountsTest(unittest.TestCase):

    EXACT = {
        "search": ["core.cells_per_op", "core.lb_kim_kill_rate",
                   "core.lb_keogh_kill_rate", "core.early_abandon_rate",
                   "core.full_dtw_per_op"],
        "pairwise": ["core.cells_per_op", "simd.block_share",
                     "common.pool_chunks_per_op"],
    }

    def test_counts_repeat_exactly(self):
        for workload, names in self.EXACT.items():
            with self.subTest(workload=workload):
                first = traced_metrics(workload, 5)
                second = traced_metrics(workload, 5)
                self.assertGreater(first["core.cells_per_op"], 0)
                for name in names:
                    self.assertEqual(first[name], second[name], name)


def setUpModule():
    run.build()


def tearDownModule():
    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
