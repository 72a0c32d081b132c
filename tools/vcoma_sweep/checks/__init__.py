"""CI validators:

  * :mod:`vcoma_sweep.checks.stats` -- validates VCOMA_STATS_JSON
    JSONL sheets, Chrome traces and BENCH_*.json reports.

Run it as ``PYTHONPATH=tools python3 -m vcoma_sweep check-stats ...``
from the repository root.
"""

from . import stats  # noqa: F401

__all__ = ["stats"]
