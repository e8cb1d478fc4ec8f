"""Benchmark engines that measure the *system* rather than the paper.

``repro.bench.serving`` holds the seeded multi-tenant workload model and the
percentile math that ``benchmarks/system`` (``BENCHMARK.json``)
builds its ``serve_open`` arrivals and its percentiles from.
"""
