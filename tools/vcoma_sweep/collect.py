"""Collect: batch JSONL (or sheet files) -> one normalized table.

vcoma_batch's `--jsonl` output carries one record per submitted
config, in submission order; the spec expansion produced that same
order, so provenance is a positional join -- and each pairing is
cross-checked against the record's own workload/scheme echo, so a
reordered or truncated file fails loudly instead of mislabelling.

Each normalized row carries:

  * provenance: cache key, sweep id, workload, scheme, every knob,
    the cache-hit flag and the wall time of the invocation that
    carried it (when the submit layer observed them);
  * derived metrics: refs, exec time, the five cycle buckets,
    translation-structure accesses/misses, walks per 1k refs, miss
    percentage, misses per node, the xlat-over-stall share and the
    pressure profile (for Fig. 11).

Failed configs become rows with an "error" field and no metrics; the
renderers skip them (the same n/a* discipline the ASCII tables use).
"""

import json
import os

from .spec import SpecError


class CollectError(ValueError):
    """JSONL/sheets that do not line up with the spec expansion."""


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token!r} (RFC 8259 "
                     "forbids it)")


def _load_record(text, where):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as e:
        raise CollectError(f"{where}: not strict JSON: {e}") from None


def _derive(row, rec, where):
    """Fill @row's metric columns from one stats record."""
    try:
        totals = rec["totals"]
        refs = totals["refs"]
        stall = totals["locStall"] + totals["remStall"]
        tlb = rec["tlb"]
        row.update({
            "num_nodes": rec["numNodes"],
            "exec_time": rec["execTime"],
            "refs": refs,
            "busy": totals["busy"],
            "sync": totals["sync"],
            "loc_stall": totals["locStall"],
            "rem_stall": totals["remStall"],
            "xlat_stall": totals["xlatStall"],
            "xlat_over_total_stall_pct": rec["xlatOverTotalStallPct"],
            "tlb_accesses": tlb["accesses"],
            "tlb_misses": tlb["misses"],
            "walks_per_1k_refs":
                1000.0 * tlb["misses"] / refs if refs else 0.0,
            "miss_pct":
                100.0 * tlb["misses"] / refs if refs else 0.0,
            "misses_per_node":
                tlb["misses"] / rec["numNodes"] if rec["numNodes"]
                else 0.0,
            "stall": stall,
            "pressure_profile": rec["pressureProfile"],
        })
    except (KeyError, TypeError) as e:
        raise CollectError(f"{where}: malformed stats record "
                           f"(missing {e})") from None


def _row_for(cfg, rec, where):
    row = cfg.provenance()
    if "error" in rec and "totals" not in rec:
        key = rec.get("key")
        if key is not None and key != cfg.key():
            raise CollectError(
                f"{where}: failed-config key {key!r} does not match "
                f"spec config {cfg.key()!r} -- the JSONL does not "
                "line up with the spec (stale file? reordered "
                "sweep?)")
        row["error"] = str(rec["error"])
        return row
    base = cfg.workload.partition(":")[0]
    echoed = rec.get("workload", "")
    if echoed.upper() not in (cfg.workload.upper(), base.upper()):
        raise CollectError(
            f"{where}: record workload {echoed!r} does not match spec "
            f"config {cfg.key()!r} -- the JSONL does not line up "
            "with the spec (stale file? reordered sweep?)")
    if rec.get("scheme") != cfg.scheme:
        raise CollectError(
            f"{where}: record scheme {rec.get('scheme')!r} != spec "
            f"scheme {cfg.scheme!r} for {cfg.key()}")
    _derive(row, rec, where)
    return row


def collect_jsonl(configs, jsonl_path, submit_result=None):
    """Join the JSONL file against the expanded configs."""
    try:
        with open(jsonl_path, "r", encoding="utf-8") as f:
            lines = [ln for ln in (raw.strip() for raw in f) if ln]
    except OSError as e:
        raise CollectError(f"cannot read {jsonl_path!r}: {e}") from None
    if len(lines) != len(configs):
        raise CollectError(
            f"{jsonl_path}: {len(lines)} record(s) for "
            f"{len(configs)} expanded config(s) -- remove stale "
            "output files and re-run the sweep")
    rows = []
    for i, (cfg, line) in enumerate(zip(configs, lines), start=1):
        where = f"{jsonl_path}:{i}"
        row = _row_for(cfg, _load_record(line, where), where)
        if submit_result is not None:
            row["cached"] = submit_result.cached.get(cfg.key())
            row["wall_ms"] = submit_result.wall_ms.get(cfg.key())
        rows.append(row)
    return rows


def collect_sheets(configs, sheet_dir):
    """Same table from a directory of per-config sheet files (the
    `--out-dir` interface, for sweeps run without `--jsonl`)."""
    rows = []
    for cfg in configs:
        path = os.path.join(sheet_dir, cfg.key() + ".json")
        if not os.path.exists(path):
            row = cfg.provenance()
            row["error"] = f"sheet {path} missing"
            rows.append(row)
            continue
        with open(path, "r", encoding="utf-8") as f:
            rows.append(_row_for(cfg, _load_record(f.read(), path),
                                 path))
    return rows


def write_results(rows, path, spec_name):
    """Persist the normalized table (results.json) -- the renderers'
    and any downstream analysis' single input."""
    doc = {"schema": 1, "spec": spec_name, "rows": rows}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def read_results(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = _load_record(f.read(), path)
    if doc.get("schema") != 1 or not isinstance(doc.get("rows"), list):
        raise CollectError(f"{path}: not a vcoma_sweep results table")
    return doc


def sweep_rows(rows, sweep_id):
    """The rows of one sweep, errors filtered out (and counted)."""
    mine = [r for r in rows if r.get("sweep") == sweep_id]
    good = [r for r in mine if "error" not in r]
    return good, len(mine) - len(good)


__all__ = ["CollectError", "SpecError", "collect_jsonl",
           "collect_sheets", "write_results", "read_results",
           "sweep_rows"]
