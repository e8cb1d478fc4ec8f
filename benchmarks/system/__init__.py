"""The repo's system benchmark: five workloads, end-to-end metrics, per-layer spans.

Run ``PYTHONPATH=src python -m benchmarks.system run`` for the full report
(interleaved rounds, traced round, correctness gate), or
``python3 benchmarks/system/run.py --workload W --seed N --seconds S --trace T``
for the one-workload form ``BENCHMARK.json`` names.  See ``README.md`` here.
"""
