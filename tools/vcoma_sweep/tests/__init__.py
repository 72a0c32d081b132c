"""Unit tests for the vcoma_sweep package.

Run from the repo's tools/ directory (or let ctest do it):

    python3 -m unittest discover -s vcoma_sweep/tests -t .

The tests are hermetic: no simulator binary is needed. The collector
tests run against a committed JSONL fixture (real vcoma_batch
--jsonl output); the render tests compare against committed SVG
golden files (set VCOMA_UPDATE_GOLDENS=1 to regenerate after an
intentional rendering change).
"""
