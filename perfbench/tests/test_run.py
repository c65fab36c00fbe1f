"""Tests of perfbench/run.py: the result line's shape and BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import importlib.util
import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(os.path.dirname(HERE), "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SPEC = {
    "end_to_end": [{"name": "setup_s", "unit": "s"},
                   {"name": "host_mbps", "unit": "MB/s"}],
    "per_layer": [{"name": "dedup.hash_s", "unit": "s"}],
}


def report(**metrics):
    return {
        "workload": "chunk_stream", "seed": 1, "trace": False, "reps": 3,
        "correct": True, "attempted": 5, "failed": 0,
        "metrics": {k: {"value": v[0], "unit": v[1]}
                    for k, v in metrics.items()},
        "samples": {"host_mbps": {"n": 3, "median": 2.5, "q1": 2.0, "q3": 3.0,
                                  "tail_level": None, "tail_value": 0,
                                  "values": [2.0, 2.5, 3.0]}},
        "gates": {"chunks_equal_serial": {"checks": 5, "failures": 0}},
        "failures": [], "notes": [],
    }


class ResultLineTest(unittest.TestCase):
    def test_untraced_line_has_exactly_the_end_to_end_metrics(self):
        r = report(setup_s=(0.123456789, "s"), host_mbps=(2.5, "MB/s"),
                   error_rate=(0, "ratio"), restore_mbps=(9.0, "MB/s"))
        line = run.result_line(r, SPEC, trace=0)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(list(line["metrics"]), ["setup_s", "host_mbps"])
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 0.123456789, "unit": "s"})
        self.assertIs(line["correct"], True)
        self.assertEqual((line["attempted"], line["failed"]), (5, 0))
        # One JSON object on one line, numbers with all their digits.
        text = json.dumps(line)
        self.assertNotIn("\n", text)
        self.assertEqual(json.loads(text), line)

    def test_traced_line_has_exactly_the_per_layer_metrics(self):
        r = report(**{"dedup.hash_s": (0.5, "s"), "setup_s": (1.0, "s")})
        line = run.result_line(r, SPEC, trace=1)
        self.assertEqual(list(line["metrics"]), ["dedup.hash_s"])

    def test_missing_metric_or_unit_mismatch_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.result_line(report(setup_s=(1.0, "s")), SPEC, trace=0)
        with self.assertRaises(run.BenchError):
            run.result_line(report(setup_s=(1.0, "ms"), host_mbps=(1, "MB/s")),
                            SPEC, trace=0)

    def test_nothing_attempted_is_an_error(self):
        r = report(setup_s=(1.0, "s"), host_mbps=(2.0, "MB/s"))
        r["attempted"] = 0
        with self.assertRaises(run.BenchError):
            run.result_line(r, SPEC, trace=0)

    def test_failed_gate_is_reported_not_hidden(self):
        r = report(setup_s=(1.0, "s"), host_mbps=(2.0, "MB/s"))
        r["correct"], r["failed"] = False, 2
        line = run.result_line(r, SPEC, trace=0)
        self.assertIs(line["correct"], False)
        self.assertEqual(line["failed"], 2)

    def test_table_names_every_metric_with_its_unit(self):
        r = report(setup_s=(0.25, "s"), host_mbps=(2.5, "MB/s"))
        text = "\n".join(run.format_table(r, {"seed": 1}))
        self.assertRegex(text, r"setup_s\s+0\.25 s")
        self.assertRegex(text, r"host_mbps\s+2\.5 MB/s\s+\(median of n=3")
        self.assertIn("gate chunks_equal_serial", text)


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json has the required keys, names, units and bounds."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_keys_and_command(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        s = self.spec
        unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [e["name"] for g in ("workloads", "end_to_end", "per_layer")
                 for e in s[g]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, run.NAME_RE)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], unit_re)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], unit_re)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
