#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting and CLI.

    python3 perfbench/test_reference.py

Builds the benchmark (as run.py does) and checks that a deliberately wrong
pinned reference is counted as failed collectives rather than silently
passed, that the pinned reference passes, and that the CLI rejects what
it does not know. Scratch files go under the build directory.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class ReferenceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = str(run.build())
        cls.scratch = run.build_dir() / "test"
        cls.scratch.mkdir(parents=True, exist_ok=True)
        cls.pinned = json.loads((run.BENCH_DIR / "reference.json").read_text())

    def drive(self, workload, reference, *extra):
        path = self.scratch / f"reference-{workload}.json"
        path.write_text(json.dumps(reference))
        return subprocess.run(
            [self.binary, "--workload", workload, "--seed", "7", "--seconds",
             "1", "--trace", "0", "--reference", str(path), *extra],
            capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)

    def assert_all_failed(self, workload, reference):
        proc = self.drive(workload, reference)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json(proc.stdout)
        self.assertFalse(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])

    def perturbed(self, key, field, value):
        ref = json.loads(json.dumps(self.pinned))
        ref[key][field] = value
        return ref

    def test_pinned_reference_passes(self):
        proc = self.drive("adapt_percall_64", self.pinned)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json(proc.stdout)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_wrong_virtual_time_counts_as_failed(self):
        pinned = self.pinned["adapt_64"]["virtual_ns_per_coll"]
        ref = self.perturbed("adapt_64", "virtual_ns_per_coll", pinned + 1)
        # One shared pin: both 64-rank workloads fail against it.
        self.assert_all_failed("adapt_percall_64", ref)
        self.assert_all_failed("adapt_persistent_64", ref)

    def test_wrong_fabric_virtual_time_counts_as_failed(self):
        pinned = self.pinned["fabric_bcast_1024"]["virtual_ns_per_coll"]
        self.assert_all_failed(
            "fabric_bcast_1024",
            self.perturbed("fabric_bcast_1024", "virtual_ns_per_coll",
                           pinned - 1))

    def test_wrong_finish_hash_counts_as_failed(self):
        # Virtual time still matches; only the finish-time hash is off.
        self.assert_all_failed(
            "sharded_bcast_4096",
            self.perturbed("sharded_bcast_4096", "finish_hash",
                           "0123456789abcdef"))

    def test_cli_rejects_unknown_flag(self):
        proc = self.drive("adapt_percall_64", self.pinned, "--sedd", "1")
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")

    def test_help_prints_usage_without_running(self):
        proc = subprocess.run([self.binary, "--help"], capture_output=True,
                              text=True, timeout=30)
        self.assertEqual(proc.returncode, 0)
        self.assertIn("usage:", proc.stdout)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
