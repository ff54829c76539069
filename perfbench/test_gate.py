#!/usr/bin/env python3
"""Tests of the benchmark's exact-result gate.

    python3 perfbench/test_gate.py

Run from the repository root.  The end-to-end cases build and run the
benchmark (hw_zoo, one-second runs) against a copy of the committed
references, once untouched and once with one reference value changed.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

GOLDEN = run.REFERENCES[0.05]


def bench_cell(ref):
    """A benchmark cell record with the values of reference cell \\p ref."""
    cell = {"label": "%s/%s" % (ref["workload"], ref["mode"]),
            "workload": ref["workload"], "mode": ref["mode"],
            "scale": ref["scale"], "pair_pf": int(ref["pair_pf"]),
            "markov": int(ref["markov"])}
    for mine, path in run.CHECKED:
        value = ref
        for part in path:
            value = value[part]
        cell[mine] = value
    return cell


class ReferenceFailures(unittest.TestCase):
    def setUp(self):
        self.refs = run.load_references(".", [0.05])
        self.cells = [bench_cell(r) for r in self.refs.values()]

    def test_matching_cells_pass(self):
        self.assertTrue(self.cells)
        self.assertEqual(run.reference_failures(self.cells, self.refs), [])

    def test_every_checked_field_trips_the_gate(self):
        for mine, _ in run.CHECKED:
            cells = copy.deepcopy(self.cells)
            cells[0][mine] += 1
            failures = run.reference_failures(cells, self.refs)
            self.assertEqual(len(failures), 1, mine)
            self.assertIn(mine, failures[0])

    def test_cell_without_reference_fails(self):
        cells = copy.deepcopy(self.cells[:1])
        cells[0]["workload"] = "nosuch"
        self.assertEqual(len(run.reference_failures(cells, self.refs)), 1)


class EndToEnd(unittest.TestCase):
    def setUp(self):
        build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="gate_test_", dir=build_root)
        os.makedirs(os.path.join(self.root, os.path.dirname(GOLDEN)))
        shutil.copy(GOLDEN, os.path.join(self.root, GOLDEN))

    def tearDown(self):
        shutil.rmtree(self.root)

    def run_bench(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "hw_zoo", "--seed", "1", "--seconds", "1", "--ref-root",
             self.root], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        return done.returncode, json.loads(done.stdout.splitlines()[-1]), \
            done.stderr

    def test_untouched_reference_passes(self):
        code, out, _ = self.run_bench()
        self.assertEqual(code, 0)
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertEqual(out["attempted"], 12)
        self.assertEqual(out["metrics"]["sim_cycles"]["value"], 494379129)

    def test_tampered_reference_trips_the_gate(self):
        path = os.path.join(self.root, GOLDEN)
        with open(path) as f:
            doc = json.load(f)
        for r in doc["results"]:
            if (r["workload"], r["mode"], r["pair_pf"], r["tuned"]) == \
                    ("mcf", "original", True, False):
                r["l2"]["misses"] += 1
        with open(path, "w") as f:
            json.dump(doc, f)
        code, out, err = self.run_bench()
        self.assertEqual(code, 1)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 1)
        self.assertIn("mcf/original+pair: l2_misses", err)


if __name__ == "__main__":
    unittest.main()
