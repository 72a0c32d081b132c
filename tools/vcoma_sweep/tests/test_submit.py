"""Submission planning: grouping rules, command shapes and
provenance parsing."""

import os
import unittest

from vcoma_sweep import spec as M
from vcoma_sweep import submit as B


def expand(sweeps, defaults=None):
    return M.Spec({"name": "t", "defaults": defaults or {},
                   "sweeps": sweeps}).expand()


class PlanTest(unittest.TestCase):
    def test_pure_cross_product_is_one_invocation(self):
        cfgs = expand([{"id": "s", "workloads": ["RADIX", "FFT"],
                        "schemes": ["L0", "VCOMA"]}])
        plan = B.plan_invocations(cfgs)
        self.assertEqual(len(plan), 1)
        self.assertEqual(plan[0].workloads, ["RADIX", "FFT"])
        self.assertEqual(plan[0].schemes, ["L0-TLB", "V-COMA"])
        self.assertEqual(len(plan[0].configs), 4)

    def test_axis_combinations_split(self):
        cfgs = expand([{"id": "s", "workloads": ["RADIX"],
                        "schemes": ["L0"],
                        "knobs": {"entries": [8, 32, 128]}}])
        plan = B.plan_invocations(cfgs)
        self.assertEqual(len(plan), 3)
        self.assertEqual([p.configs[0].knobs["entries"] for p in plan],
                         [8, 32, 128])

    def test_override_degrades_to_per_config(self):
        cfgs = expand([{
            "id": "s", "workloads": ["RAYTRACE", "RADIX"],
            "schemes": ["L0", "VCOMA"],
            "overrides": [{"match": {"workload": "RAYTRACE",
                                     "scheme": "VCOMA"},
                           "set": {"raytrace_v2": True}}]}])
        plan = B.plan_invocations(cfgs)
        # the patched config breaks knob uniformity -> no comma lists,
        # but the spec order is preserved across the invocations.
        submitted = [c.key() for p in plan for c in p.configs]
        self.assertEqual(submitted, [c.key() for c in cfgs])
        self.assertTrue(all(len(p.configs) == 1 or
                            all(c.knobs == p.configs[0].knobs
                                for c in p.configs)
                            for p in plan))

    def test_comma_in_workload_token_forces_per_config(self):
        cfgs = expand([{"id": "s",
                        "workloads": ["KVLOOKUP:skew=1.2,read=0.9",
                                      "GRAPH"],
                        "schemes": ["L0"]}])
        plan = B.plan_invocations(cfgs)
        self.assertEqual(len(plan), 2)
        self.assertTrue(all(len(p.configs) == 1 for p in plan))

    def test_two_sweeps_never_merge(self):
        cfgs = expand([
            {"id": "a", "workloads": ["RADIX"], "schemes": ["L0"]},
            {"id": "b", "workloads": ["RADIX"], "schemes": ["L0"]}])
        self.assertEqual(len(B.plan_invocations(cfgs)), 2)


class CommandTest(unittest.TestCase):
    def setUp(self):
        self.cfgs = expand([{"id": "s", "workloads": ["RADIX", "FFT"],
                             "schemes": ["L0", "VCOMA"]}])
        self.inv = B.plan_invocations(self.cfgs)[0]

    def test_batch_command(self):
        cmd = B.Options(batch="BATCH").command(self.inv, "out.jsonl")
        self.assertEqual(cmd[0], "BATCH")
        self.assertIn("--workloads", cmd)
        self.assertEqual(cmd[cmd.index("--workloads") + 1],
                         "RADIX,FFT")
        self.assertEqual(cmd[cmd.index("--schemes") + 1],
                         "L0-TLB,V-COMA")
        self.assertEqual(cmd[-2:], ["--jsonl", "out.jsonl"])
        self.assertIn("--untimed", cmd)

    def test_single_config_uses_singular_flags(self):
        one = B.plan_invocations(self.cfgs[:1])[0]
        cmd = B.Options(batch="B").command(one, "o.jsonl")
        self.assertIn("--workload", cmd)
        self.assertIn("--scheme", cmd)
        self.assertNotIn("--workloads", cmd)

    def test_batch_binary_from_environment(self):
        saved = os.environ.get("VCOMA_BATCH")
        os.environ["VCOMA_BATCH"] = "/opt/x/vcoma_batch"
        try:
            self.assertEqual(B.Options().batch, "/opt/x/vcoma_batch")
        finally:
            if saved is None:
                del os.environ["VCOMA_BATCH"]
            else:
                os.environ["VCOMA_BATCH"] = saved

    def test_knob_flags_cover_every_flagged_knob(self):
        cmd = B.Options(batch="B").command(self.inv, "o")
        for flag in ("--entries", "--assoc", "--nodes", "--scale",
                     "--seed", "--am-assoc", "--xlat-penalty"):
            self.assertIn(flag, cmd)

    def test_dry_run_lists_configs_and_commands(self):
        lines = B.dry_run_lines(self.cfgs, B.Options(batch="B"))
        self.assertIn("4 config(s):", lines[0])
        self.assertIn("1 batch invocation(s):", lines[5])
        self.assertTrue(lines[1].strip().startswith("RADIX-L0-TLB-"))


class ProvenanceTest(unittest.TestCase):
    def test_batch_stderr_lines_become_cache_flags(self):
        result = B.SubmitResult()
        B._parse_provenance(
            "vcoma_batch: A-V-COMA-e8 (cached)\n"
            "warn: something unrelated\n"
            "vcoma_batch: B-L0-TLB-e8 (simulated)\n"
            "vcoma_batch: C-L0-TLB-e8: failed: boom\n", result)
        self.assertEqual(result.cached, {"A-V-COMA-e8": True,
                                         "B-L0-TLB-e8": False})


if __name__ == "__main__":
    unittest.main()
