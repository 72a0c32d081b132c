#!/usr/bin/env python3
"""Self-test of the benchmark's correctness check.

Runs a short splash-vcoma run twice: against the stored
references, where it must pass, and against a copy in which one
config's digest is perturbed, where the program must report
correct=false, count the config as failed and exit non-zero.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (the benchmark's own build helper)

WORKLOAD = "splash-vcoma"
TARGET = "1 splash-vcoma FFT/V-COMA "


def drive(binary, out, env, references):
    cmd = [binary, "--workload", WORKLOAD, "--seed", "1", "--seconds", "1",
           "--trace", "0", "--references", references,
           "--work-dir", os.path.join(out, "work")]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                         cwd=run.ROOT)
    return res.returncode, json.loads(res.stdout.strip().splitlines()[-1])


def main():
    binary, out, env = run.build()
    code, result = drive(binary, out, env, run.REFERENCES)
    if code != 0 or not result["correct"] or result["failed"]:
        sys.exit("selftest: the stored references do not pass (%d, %s)"
                 % (code, result))

    with open(run.REFERENCES) as f:
        lines = f.read().splitlines()
    hits = [i for i, l in enumerate(lines) if l.startswith(TARGET)]
    if len(hits) != 1:
        sys.exit("selftest: no unique reference line for %r" % TARGET)
    digest = lines[hits[0]].split()[-1]
    flipped = "%016x" % (int(digest, 16) ^ 1)
    lines[hits[0]] = TARGET + flipped
    perturbed = os.path.join(out, "work", "perturbed-references.txt")
    os.makedirs(os.path.dirname(perturbed), exist_ok=True)
    with open(perturbed, "w") as f:
        f.write("\n".join(lines) + "\n")

    code, result = drive(binary, out, env, perturbed)
    os.remove(perturbed)
    if code == 0 or result["correct"] or result["failed"] < 1:
        sys.exit("selftest: a perturbed digest was not caught (%d, %s)"
                 % (code, result))
    print("selftest: ok (stored references pass; the perturbed digest "
          "fails %d of %d configs, exit %d)"
          % (result["failed"], result["attempted"], code))
    return 0


if __name__ == "__main__":
    sys.exit(main())
