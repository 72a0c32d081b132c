#!/usr/bin/env python3
"""Measure a baseline of the end-to-end metrics and write baseline.json.

Each workload's definition (configs, schemes, scale, jobs, loop and
reason) is recorded beside its figures.

Runs every workload of BENCHMARK.json (or those named) once per seed, untraced, and
records per workload and metric the median, quartiles, trial count and
run-to-run spread: (q3 - q1) / median, with the quartiles of Python's
statistics.quantiles(n=4). Also records nproc, the build type and
`git describe`. Prints each spread beside the metric's bound from
BENCHMARK.json.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1]
                                  [--out perfbench/baseline.json] [workload ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (the benchmark's own build helper)


def describe_git():
    try:
        res = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=run.ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        return res.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    binary, out, env = run.build()
    result = {"run_seconds": bench["run_seconds"],
              "nproc": os.cpu_count(), "build_type": run.BUILD_TYPE,
              "git_describe": describe_git(),
              "date": time.strftime("%Y-%m-%d", time.gmtime()),
              "workloads": {}}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    for workload in workloads:
        res = subprocess.run([binary, "--describe", "--workload", workload],
                             stdout=subprocess.PIPE, env=env, text=True,
                             check=True, cwd=run.ROOT)
        definition = json.loads(res.stdout)
        definition["why"] = whys.get(workload, "not in BENCHMARK.json")
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [binary, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0",
                   "--references", run.REFERENCES,
                   "--work-dir", os.path.join(out, "work")]
            res = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                                 text=True, cwd=run.ROOT)
            row = json.loads(res.stdout.strip().splitlines()[-1])
            if res.returncode or not row["correct"]:
                sys.exit("baseline: %s seed %d failed" % (workload, seed))
            rows.append(row)
        metrics = {}
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            metrics[name] = summarise(values)
            metrics[name]["unit"] = rows[0]["metrics"][name]["unit"]
            metrics[name]["values"] = values
            print("%-13s %-14s median %-12.6g spread %.4f (bound %s)"
                  % (workload, name, metrics[name]["median"],
                     metrics[name]["spread"], bounds.get(name)))
        result["workloads"][workload] = {
            "definition": definition,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "metrics": metrics}
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
