#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Checks the metric declarations in BENCHMARK.json against the layer map,
runs every workload at the reduced size (a 1k-gate DAG, a 3-circuit
batch) with tracing off and on and expects every output check to pass,
and expects a run outside a full checkout to fail.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


class Declarations(unittest.TestCase):
    def setUp(self):
        self.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        self.layer_map = load(os.path.join(HERE, "layer_map.json"))

    def test_metric_names_units_directions(self):
        names = []
        for section in ["end_to_end", "per_layer"]:
            for m in self.bench[section]:
                names.append(m["name"])
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ["higher", "lower"])
        self.assertEqual(len(names), len(set(names)), "metric names repeat")

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        setup = next(m for m in self.bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        for name, bound in bounds.items():
            self.assertTrue(0 < bound <= 0.25, name)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_layer_map_covers_every_layer_metric(self):
        layers = self.layer_map["layers"]
        declared = [m["name"] for m in self.bench["per_layer"]]
        self.assertEqual(sorted(layers), sorted(declared))
        workloads = {w["name"] for w in self.bench["workloads"]} | {"*"}
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        for name, entry in layers.items():
            for metric, workload in entry["moves"]:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, workloads, name)


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class ReducedRuns(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        for w in bench["workloads"]:
            for trace, section in [(0, "end_to_end"), (1, "per_layer")]:
                with self.subTest(workload=w["name"], trace=trace):
                    r = run(w["name"], trace)
                    self.assertEqual(r.returncode, 0, r.stdout[-2000:] + r.stderr[-2000:])
                    lines = r.stdout.strip().splitlines()
                    env = json.loads(lines[0])
                    self.assertEqual(env["workload"], w["name"])
                    res = json.loads(lines[-1])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(sorted(res["metrics"]),
                                     sorted(m["name"] for m in bench[section]))
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_replay_passes_its_checks(self):
        # not a declared workload (see README.md), so run.py refuses it;
        # the executable run.py builds still runs it
        self.assertEqual(run("dag10k", 0).returncode, 0)  # builds it
        exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
        for trace in [0, 1]:
            r = subprocess.run(
                [exe, "--workload", "iscas_replay", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--reduced",
                 "--work-dir", os.path.join(HERE, "_work", "replay")],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            self.assertEqual(r.returncode, 0, r.stdout[-2000:] + r.stderr[-2000:])
            res = json.loads(r.stdout.strip().splitlines()[-1])
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)

    def test_fails_without_the_program_sources(self):
        stripped = os.path.join(HERE, "_work", "stripped")
        shutil.rmtree(stripped, ignore_errors=True)
        os.makedirs(stripped)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
            shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                            ignore=shutil.ignore_patterns("_*"))
            r = run("iscas_batch", 0, cwd=stripped)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(stripped, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
