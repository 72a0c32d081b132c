"""Validate the observability outputs of a vcoma run.

Usage (from the repository root, with PYTHONPATH=tools):
    python3 -m vcoma_sweep check-stats STATS.jsonl
        [--trace TRACE.json] [--bench-glob 'BENCH_*.json']
        [--require-vcoma]

Checks, per JSONL line in STATS.jsonl:
  * the line parses as JSON with schema == 1;
  * totals.refs equals the sum of the per-CPU refs;
  * every CPU's cycle buckets sum to its "accounted" field;
  * xlatOverTotalStallPct recomputes from the totals;
  * shadow-sweep points never report more misses than accesses;
  * the DLB filtering invariant for V-COMA lines: the home DLBs see
    only the remote protocol traffic, so filteredRefs + the DLB's
    demand accesses account for all processor references.

With --trace, also checks the Chrome trace file: valid JSON, a
traceEvents list, and per-(pid, tid) monotonically non-decreasing
timestamps for the non-metadata events.

With --bench-glob, every matching BENCH_*.json must parse and carry
the report fields bench_util.hh writes (both the schema-1 era and
the current schema-2 + git-stamp format are accepted here; the
dashboard is the layer that refuses stale formats).

Exit status 0 on success, 1 with a message on the first failure.
"""

import argparse
import glob
import json
import math
import sys


def fail(msg):
    print(f"check_stats_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def reject_constant(token):
    # Python's json module accepts Infinity/-Infinity/NaN by default,
    # but RFC 8259 forbids them and the in-tree C++ parser rejects
    # them; the writer must emit null instead.
    raise ValueError(f"non-finite JSON constant {token!r} (RFC 8259 "
                     "forbids it; the writer should emit null)")


def load_json(text, where):
    try:
        return json.loads(text, parse_constant=reject_constant)
    except ValueError as e:
        fail(f"{where}: not strict JSON: {e}")


def check_stats_line(line_no, obj):
    where = f"stats line {line_no}"
    if obj.get("schema") != 1:
        fail(f"{where}: schema != 1")

    for key in ("workload", "scheme", "numNodes", "totals", "cpus",
                "shadow", "tlb", "pressureProfile", "caches", "protocol",
                "network", "dlb", "latency"):
        if key not in obj:
            fail(f"{where}: missing key {key!r}")

    totals = obj["totals"]
    cpus = obj["cpus"]

    if totals["refs"] != sum(c["refs"] for c in cpus):
        fail(f"{where}: totals.refs != sum of per-CPU refs")

    for i, c in enumerate(cpus):
        buckets = (c["busy"] + c["sync"] + c["locStall"] + c["remStall"] +
                   c["xlatStall"])
        if buckets != c["accounted"]:
            fail(f"{where}: cpu {i}: cycle buckets sum {buckets} != "
                 f"accounted {c['accounted']}")

    stall = totals["locStall"] + totals["remStall"]
    expect = 100.0 * totals["xlatStall"] / stall if stall else 0.0
    if not math.isclose(expect, obj["xlatOverTotalStallPct"],
                        rel_tol=1e-9, abs_tol=1e-9):
        fail(f"{where}: xlatOverTotalStallPct {obj['xlatOverTotalStallPct']}"
             f" != recomputed {expect}")

    for p in obj["shadow"]:
        if p["demandMisses"] > p["demandAccesses"]:
            fail(f"{where}: shadow point {p['entries']}/{p['assoc']}: "
                 "demand misses exceed accesses")
        if p["writebackMisses"] > p["writebackAccesses"]:
            fail(f"{where}: shadow point {p['entries']}/{p['assoc']}: "
                 "writeback misses exceed accesses")

    dlb = obj["dlb"]
    req = dlb["requestersPerEntry"]
    if req["count"] and not (1 <= req["min"] <= req["max"]):
        fail(f"{where}: requestersPerEntry range is nonsense: {req}")

    if obj["scheme"] == "V-COMA" and totals["refs"]:
        # Filtering: references either stop below the home DLB or show
        # up as DLB demand traffic. (tlb.* holds the DLB counts for
        # V-COMA — the scheme has no per-node TLBs.)
        absorbed = dlb["filteredRefs"]
        seen = obj["tlb"]["accesses"]
        if absorbed + seen != totals["refs"]:
            fail(f"{where}: V-COMA filtering invariant broken: "
                 f"filtered {absorbed} + DLB accesses {seen} != "
                 f"refs {totals['refs']}")

    return obj


def check_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = load_json(f.read(), path)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: no traceEvents list")
    last = {}
    counted = 0
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "M":
            continue
        if ph not in ("X", "i"):
            fail(f"{path}: event {i}: unexpected ph {ph!r}")
        for key in ("name", "pid", "tid", "ts"):
            if key not in e:
                fail(f"{path}: event {i}: missing {key!r}")
        track = (e["pid"], e["tid"])
        if track in last and e["ts"] < last[track]:
            fail(f"{path}: event {i}: timestamps not monotonic on "
                 f"track {track}: {e['ts']} < {last[track]}")
        last[track] = e["ts"]
        counted += 1
    return counted


def check_bench(pattern):
    paths = sorted(glob.glob(pattern))
    if not paths:
        fail(f"no bench reports match {pattern!r}")
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            doc = load_json(f.read(), path)
        for key in ("bench", "schema", "wall_ms", "executed"):
            if key not in doc:
                fail(f"{path}: missing {key!r}")
        if doc["wall_ms"] < 0:
            fail(f"{path}: negative wall_ms")
        # schema >= 2 reports carry the build stamp the dashboard
        # keys its staleness rule on.
        if doc["schema"] >= 2 and "git" not in doc:
            fail(f"{path}: schema {doc['schema']} report without a "
                 "git stamp")
    return paths


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("stats",
                    help="JSONL file written via VCOMA_STATS_JSON")
    ap.add_argument("--trace", help="Chrome trace via VCOMA_TRACE_EVENTS")
    ap.add_argument("--bench-glob", help="glob of BENCH_*.json reports")
    ap.add_argument("--require-vcoma", action="store_true",
                    help="fail unless at least one line is a V-COMA run "
                         "with nonzero DLB effect counters")
    args = ap.parse_args(argv)

    lines = 0
    vcoma_evidence = False
    with open(args.stats, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            obj = load_json(line, f"stats line {line_no}")
            check_stats_line(line_no, obj)
            lines += 1
            dlb = obj["dlb"]
            if (obj["scheme"] == "V-COMA" and dlb["filteredRefs"] > 0 and
                    dlb["requestersPerEntry"]["count"] > 0):
                vcoma_evidence = True
    if lines == 0:
        fail(f"{args.stats}: no JSONL lines (did the sweep hit the cache? "
             "set VCOMA_NO_CACHE=1)")
    print(f"check_stats_json: {lines} stats line(s) OK")

    if args.require_vcoma and not vcoma_evidence:
        fail("no V-COMA line with nonzero DLB effect counters")

    if args.trace:
        n = check_trace(args.trace)
        print(f"check_stats_json: trace OK ({n} events)")

    if args.bench_glob:
        paths = check_bench(args.bench_glob)
        print(f"check_stats_json: {len(paths)} bench report(s) OK")


if __name__ == "__main__":
    main()
