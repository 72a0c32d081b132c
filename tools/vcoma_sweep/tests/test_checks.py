"""The folded-in CI checker, exercised through its main()."""

import contextlib
import io
import json
import os
import tempfile
import unittest

from vcoma_sweep.checks import stats as check_stats

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "smoke_results.jsonl")


def run_main(argv):
    """Run check-stats' main, capturing (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            check_stats.main(argv)
        except SystemExit as e:
            code = e.code or 0
    return code, out.getvalue(), err.getvalue()


class StatsCheckTest(unittest.TestCase):
    def test_fixture_passes(self):
        code, out, err = run_main([FIXTURE, "--require-vcoma"])
        self.assertEqual(code, 0, err)
        self.assertIn("4 stats line(s) OK", out)

    def test_tampered_totals_fail(self):
        with open(FIXTURE, "r", encoding="utf-8") as f:
            line = f.readline()
        obj = json.loads(line)
        obj["totals"]["refs"] += 1
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "s.jsonl")
            with open(p, "w", encoding="utf-8") as f:
                f.write(json.dumps(obj) + "\n")
            code, _out, err = run_main([p])
        self.assertEqual(code, 1)
        self.assertIn("totals.refs", err)

    def test_empty_file_fails(self):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "s.jsonl")
            open(p, "w").close()
            code, _out, err = run_main([p])
        self.assertEqual(code, 1)
        self.assertIn("no JSONL lines", err)


class BenchCheckTest(unittest.TestCase):
    def bench_doc(self, **over):
        doc = {"bench": "x", "schema": 2, "git": "abc",
               "wall_ms": 1.0, "executed": 0, "failures": 0}
        doc.update(over)
        return doc

    def check(self, doc):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "BENCH_x.json")
            with open(p, "w", encoding="utf-8") as f:
                json.dump({k: v for k, v in doc.items()
                           if v is not None}, f)
            return run_main([FIXTURE, "--bench-glob", p])

    def test_schema2_with_git_passes(self):
        code, out, _err = self.check(self.bench_doc())
        self.assertEqual(code, 0)
        self.assertIn("bench report(s) OK", out)

    def test_schema1_without_git_still_accepted(self):
        # pre-stamp reports remain valid here; the dashboard is the
        # layer that refuses them.
        code, _out, _err = self.check(
            self.bench_doc(schema=1, git=None))
        self.assertEqual(code, 0)

    def test_schema2_without_git_fails(self):
        code, _out, err = self.check(self.bench_doc(git=None))
        self.assertEqual(code, 1)
        self.assertIn("git stamp", err)


if __name__ == "__main__":
    unittest.main()
