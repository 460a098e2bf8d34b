"""Metric-name stability: BENCHMARK.json and the benchmark binary must name
the same workloads and metrics, with the same units, in the same order.

    python3 -m unittest discover -s perfbench/tests

Builds the benchmark (as perfbench/run.py does) if it is not built yet.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class MetricNamesTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)
        run.build()
        out = subprocess.run([run.BINARY, "--metric-names"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        cls.binary = {"end_to_end": [], "per_layer": [], "workload": []}
        for line in out.splitlines():
            kind, *rest = line.split()
            cls.binary[kind].append(tuple(rest))

    def test_workloads_match(self):
        self.assertEqual([(w["name"],) for w in self.spec["workloads"]],
                         self.binary["workload"])

    def test_metrics_match_with_units(self):
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in self.spec[kind]],
                self.binary[kind], kind)

    def test_contract_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
