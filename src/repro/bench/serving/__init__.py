"""Seeded serving workloads and latency math for measuring one service.

Every number the repo had before this package measured a *single* query; the
system the paper envisions serves query populations — many analysts, shared
ledger, shared store, shared shard pool.  Two pieces describe such a
population and read its latencies:

* :mod:`~repro.bench.serving.workload` — the seeded open-loop workload
  model.  Tenant activity and camera popularity are zipf-skewed, arrivals
  follow an exponential (Poisson-process) clock, and every draw comes from
  the same splitmix64 counter-hash discipline as the detector, so a schedule
  is a pure function of its config and replays bit-for-bit.
* :mod:`~repro.bench.serving.metrics` — percentile/latency math: exact
  nearest-rank percentiles (bit-equal to ``numpy``'s ``inverted_cdf``) and a
  mergeable log-bucketed :class:`~repro.bench.serving.metrics.LatencyHistogram`
  whose shard-merge is exact (merge of histograms == histogram of merged
  samples).

``benchmarks/system`` builds its ``serve_open`` arrivals from
:func:`generate_schedule` and reads its percentiles with :func:`percentile`.
"""

from repro.bench.serving.metrics import LatencyHistogram, percentile
from repro.bench.serving.workload import ArrivalEvent, WorkloadConfig, \
    WorkloadSchedule, generate_schedule, zipf_weights

__all__ = [
    "ArrivalEvent",
    "LatencyHistogram",
    "WorkloadConfig",
    "WorkloadSchedule",
    "generate_schedule",
    "percentile",
    "zipf_weights",
]
