#!/usr/bin/env python3
"""Build and run the vcoma host-cost benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload splash-l0 --seed 1 --seconds 30 --trace 0

The first run configures and builds the simulator library and the
perfbench program into .bench_build/ (or $CARGO_TARGET_DIR when set);
later runs rebuild only what changed. Build output goes to stderr, so
the last stdout line is the program's JSON result.

    python3 perfbench/run.py --write-references [--seeds N]

regenerates perfbench/references.txt: the digest of every config's
stats JSON for workload seeds 1..N and of every paper-grid table.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.txt")
WORKLOADS = ["splash-l0", "splash-vcoma", "dc-replay", "paper-grid"]
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def environment(out):
    """The caller's environment with temp files kept inside the checkout."""
    env = dict(os.environ)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build():
    """Configure and build; return the program's path or exit non-zero."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources at %s/src; run from the "
                 "root of a repository checkout" % ROOT)
    out = build_dir()
    cmake = os.path.join(out, "cmake")
    env = environment(out)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", cmake, "-j", jobs, "--target", "perfbench"]]
    if not os.path.isfile(os.path.join(cmake, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", cmake,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(cmake, "perfbench"), out, env


def write_references(binary, out, env, seeds):
    lines = ["# Reference digests (FNV-1a 64) of the benchmark's outputs: "
             "each config's writeRunStatsJson",
             "# sheet, and each paper-grid table's text (seed 0: the grid "
             "does not take the workload seed).",
             "# Regenerate with: python3 perfbench/run.py "
             "--write-references --seeds %d" % seeds,
             "# <workload seed> <workload> <output> <digest>"]
    runs = [(w, s) for w in WORKLOADS if w != "paper-grid"
            for s in range(1, seeds + 1)] + [("paper-grid", 0)]
    for workload, seed in runs:
        cmd = [binary, "--emit-references", "--workload", workload,
               "--seed", str(seed), "--work-dir", os.path.join(out, "work")]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                             text=True, cwd=ROOT)
        if res.returncode:
            sys.exit("perfbench: %s failed" % " ".join(cmd))
        lines += [l[4:] for l in res.stdout.splitlines()
                  if l.startswith("REF ")]
        print("%s seed %d done" % (workload, seed), file=sys.stderr)
    with open(REFERENCES, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--references", default=REFERENCES)
    ap.add_argument("--write-references", action="store_true")
    ap.add_argument("--seeds", type=int, default=4)
    args = ap.parse_args()
    if not args.write_references and not args.workload:
        ap.error("--workload is required")

    binary, out, env = build()
    if args.write_references:
        write_references(binary, out, env, args.seeds)
        return 0
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--references", args.references,
           "--work-dir", os.path.join(out, "work")]
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
