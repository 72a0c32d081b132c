"""Dashboard: report classification and HTML assembly."""

import json
import os
import tempfile
import unittest

from vcoma_sweep import dashboard as D


def write(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        if isinstance(doc, str):
            f.write(doc)
        else:
            json.dump(doc, f)


def current_report(name="fig8"):
    return {"bench": name, "schema": D.BENCH_SCHEMA, "git": "abc1234",
            "wall_ms": 12.0, "executed": 3, "failures": 0}


class ClassifyTest(unittest.TestCase):
    def test_schema_and_git_gate(self):
        with tempfile.TemporaryDirectory() as d:
            write(os.path.join(d, "BENCH_new.json"), current_report())
            write(os.path.join(d, "BENCH_old.json"),
                  {"bench": "old", "schema": 1, "wall_ms": 1.0,
                   "executed": 0, "failures": 0})
            write(os.path.join(d, "BENCH_nogit.json"),
                  {"bench": "g", "schema": D.BENCH_SCHEMA,
                   "wall_ms": 1.0, "executed": 0, "failures": 0})
            write(os.path.join(d, "BENCH_junk.json"), "{nope")
            write(os.path.join(d, "BENCH_alien.json"), {"hello": 1})
            write(os.path.join(d, "sub", "BENCH_deep.json"),
                  current_report("deep"))
            current, stale = D.classify_reports(D.find_reports(d))
        self.assertEqual(sorted(doc["bench"] for _p, doc in current),
                         ["deep", "fig8"])
        self.assertEqual(len(stale), 4)
        reasons = " | ".join(r for _p, r in stale)
        self.assertIn("stale format", reasons)
        self.assertIn("unreadable", reasons)
        self.assertIn("not a BenchReport", reasons)


class BuildTest(unittest.TestCase):
    def test_dashboard_flags_stale_reports(self):
        with tempfile.TemporaryDirectory() as d:
            write(os.path.join(d, "BENCH_fig8.json"), current_report())
            write(os.path.join(d, "BENCH_old.json"),
                  {"bench": "old", "schema": 1, "wall_ms": 1.0,
                   "executed": 0, "failures": 0})
            out = os.path.join(d, "dashboard.html")
            text, n_current, n_stale = D.build_dashboard(
                d, out_path=out)
            self.assertTrue(os.path.getsize(out))
        self.assertEqual((n_current, n_stale), (1, 1))
        self.assertIn("BENCH_old.json", text)   # listed as ignored
        self.assertIn("abc1234", text)          # git stamp surfaced
        self.assertIn("3 simulation(s) executed", text)
        self.assertIn("Ignored", text)

    def test_empty_tree(self):
        with tempfile.TemporaryDirectory() as d:
            text, n_current, n_stale = D.build_dashboard(d)
        self.assertEqual((n_current, n_stale), (0, 0))
        self.assertIn("No current bench reports", text)


if __name__ == "__main__":
    unittest.main()
