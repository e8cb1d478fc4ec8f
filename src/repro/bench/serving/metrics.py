"""Percentile math for serving measurements.

Latency under load is a *distribution*, and the interesting part is its
tail — means hide exactly the percentile behaviour (p99/p999) a service is
judged on (the "Anycast Performance in Context" methodology).
:func:`percentile` reads exact nearest-rank percentiles over raw samples,
defined to be bit-equal to ``numpy.percentile(..., method="inverted_cdf")``
(the property tests pin this against numpy on arbitrary samples).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.utils import checks

__all__ = ["percentile"]


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
