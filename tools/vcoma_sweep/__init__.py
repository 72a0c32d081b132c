"""vcoma_sweep -- declarative sweep orchestration + figure pipeline.

A sweep is declared as data (a JSON spec: schemes x workloads x knobs,
cross-product expansion with per-config overrides), submitted through
`vcoma_batch` (a local Runner that simulates uncached configs in
parallel), collected from its `--jsonl` output into one normalized
result table with provenance, and rendered as the paper's Fig. 8-11
SVGs plus a BENCH_*.json history dashboard.

Everything is Python stdlib only -- the SVGs are emitted directly, so
CI needs no matplotlib -- and every simulation byte still comes out
of the C++ tree: the same spec produces byte-identical collected
JSONL whatever the job count or cache state.

Entry point: ``python3 -m vcoma_sweep --help`` (run from `tools/`, or
with `tools/` on PYTHONPATH).
"""

__all__ = [
    "spec", "submit", "collect", "render", "svg", "dashboard", "checks",
]

__version__ = "1.0"
