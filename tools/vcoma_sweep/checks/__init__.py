"""CI validators:

  * :mod:`vcoma_sweep.checks.stats` -- validates VCOMA_STATS_JSON
    JSONL sheets, Chrome traces, BENCH_*.json reports and
    vcoma_served /stats replies.
  * :mod:`vcoma_sweep.checks.perf` -- gates BENCH_perf_core.json
    ratios against bench/perf_baseline.json.

Run them as ``PYTHONPATH=tools python3 -m vcoma_sweep check-stats ...``
/ ``check-perf ...`` from the repository root.
"""

from . import perf, stats  # noqa: F401

__all__ = ["stats", "perf"]
