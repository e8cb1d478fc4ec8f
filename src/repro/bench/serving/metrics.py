"""Latency/percentile math for serving measurements.

Latency under load is a *distribution*, and the interesting part is its
tail — means hide exactly the percentile behaviour (p99/p999) a service is
judged on (the "Anycast Performance in Context" methodology).  Two
representations live here:

* :func:`percentile` — exact nearest-rank percentiles over raw samples,
  defined to be bit-equal to ``numpy.percentile(..., method="inverted_cdf")``
  (the property tests pin this against numpy on arbitrary samples).  Use it
  whenever the samples fit in memory.
* :class:`LatencyHistogram` — a mergeable log-bucketed sketch for runs whose
  samples live on different shards.  Merging histograms is exact bucket-count
  addition, so ``merge(hist(A), hist(B)) == hist(A + B)`` holds *exactly*
  (not approximately), and a percentile read off a merged histogram equals
  the one read off a histogram of the concatenated samples.  Quantile error
  against the raw samples is bounded by one bucket width (~9% relative at
  the default resolution).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

from repro.utils import checks

__all__ = [
    "LatencyHistogram",
    "percentile",
]


def percentile(samples: Sequence[float], level: float) -> float | None:
    """Nearest-rank percentile of ``samples`` (``None`` for an empty sample).

    For ``n`` sorted samples the value is ``sorted[ceil(level/100 * n) - 1]``
    (clamped into range): the smallest sample whose empirical CDF reaches
    ``level`` — identical to ``numpy.percentile(samples, level,
    method="inverted_cdf")``, always an actual sample, never an
    interpolation.  A one-sample distribution answers that sample at every
    level.
    """
    checks.probability("percentile level / 100", level / 100.0, ValueError)
    if not samples:
        return None
    ordered = sorted(samples)
    rank = math.ceil(level / 100.0 * len(ordered))
    return ordered[min(max(rank - 1, 0), len(ordered) - 1)]


class LatencyHistogram:
    """Log-bucketed latency sketch whose shard-merge is exact.

    Bucket ``k`` covers ``[resolution * base**k, resolution * base**(k+1))``
    with ``base = 2 ** (1 / buckets_per_octave)``; samples below the
    resolution (including zero and negatives, which a wall-clock delta can
    produce on coarse clocks) land in a dedicated underflow bucket.  Because
    bucketing is a pure per-sample function, histograms built on different
    shards from disjoint sample sets merge by adding counts — bit-exactly
    the histogram of the union — which is the property that makes per-shard
    collection safe (pinned by the hypothesis tests).
    """

    def __init__(self, *, resolution_s: float = 1e-6,
                 buckets_per_octave: int = 8) -> None:
        self.resolution_s = checks.real("resolution_s", resolution_s, ValueError, above=0)
        self.buckets_per_octave = checks.count("buckets_per_octave", buckets_per_octave,
                                               ValueError, 1)
        self._counts: dict[int, int] = {}
        self._underflow = 0
        self._total = 0

    # ------------------------------------------------------------- recording

    def _bucket(self, sample: float) -> int | None:
        """Bucket index of a sample, or None for the underflow bucket."""
        if sample < self.resolution_s:
            return None
        return math.floor(math.log2(sample / self.resolution_s)
                          * self.buckets_per_octave)

    def record(self, sample: float) -> None:
        """Add one latency sample."""
        bucket = self._bucket(sample)
        if bucket is None:
            self._underflow += 1
        else:
            self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self._total += 1

    def record_many(self, samples: Iterable[float]) -> None:
        for sample in samples:
            self.record(sample)

    # --------------------------------------------------------------- merging

    def _compatible(self, other: "LatencyHistogram") -> bool:
        return (self.resolution_s == other.resolution_s
                and self.buckets_per_octave == other.buckets_per_octave)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Exact union: bucket counts add; no resampling, no loss."""
        if not self._compatible(other):
            raise ValueError("cannot merge histograms with different bucketing")
        merged = LatencyHistogram(resolution_s=self.resolution_s,
                                  buckets_per_octave=self.buckets_per_octave)
        merged._counts = dict(self._counts)
        for bucket, count in other._counts.items():
            merged._counts[bucket] = merged._counts.get(bucket, 0) + count
        merged._underflow = self._underflow + other._underflow
        merged._total = self._total + other._total
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (self._compatible(other) and self._total == other._total
                and self._underflow == other._underflow
                and self._counts == other._counts)

    # --------------------------------------------------------------- reading

    @property
    def count(self) -> int:
        return self._total

    def quantile(self, level: float) -> float | None:
        """Upper edge of the bucket holding the nearest-rank quantile.

        Always an upper bound of the exact :func:`percentile` of the
        recorded samples, at most one bucket width above it (underflow
        answers the resolution).  ``None`` on an empty histogram.
        """
        checks.probability("quantile level / 100", level / 100.0, ValueError)
        if self._total == 0:
            return None
        rank = max(1, math.ceil(level / 100.0 * self._total))
        if rank <= self._underflow:
            return self.resolution_s
        seen = self._underflow
        for bucket in sorted(self._counts):
            seen += self._counts[bucket]
            if seen >= rank:
                return self.resolution_s * 2.0 ** (
                    (bucket + 1) / self.buckets_per_octave)
        return self.resolution_s * 2.0 ** (
            (max(self._counts) + 1) / self.buckets_per_octave)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form: config, totals, and sparse bucket counts."""
        return {"resolution_s": self.resolution_s,
                "buckets_per_octave": self.buckets_per_octave,
                "count": self._total,
                "underflow": self._underflow,
                "buckets": {str(bucket): self._counts[bucket]
                            for bucket in sorted(self._counts)}}
