"""Reductions and verdicts: supported percentile, round summaries, compare."""

from __future__ import annotations

import math
import statistics
from typing import Any, Sequence

from repro.bench.serving import percentile

#: Percentile levels tried from the top; the first with enough tail wins.
PERCENTILE_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_TAIL = 10


def supported_percentile(count: int) -> float:
    """The highest ladder level with at least ``MIN_TAIL`` samples beyond it.

    Nearest-rank: level ``p`` of ``n`` samples is the ``ceil(p/100 * n)``-th
    smallest, so ``n - ceil(p/100 * n)`` samples lie beyond it.  Falls back to
    the median when even p75 is unsupported.
    """
    for level in PERCENTILE_LADDER:
        if count - math.ceil(level / 100.0 * count) >= MIN_TAIL:
            return level
    return PERCENTILE_LADDER[-1]


def capped_percentile(samples: Sequence[float], level: float) -> tuple[float, float]:
    """``(value, level used)``: ``level`` if the samples support it, else the
    highest supported level below it."""
    used = min(level, supported_percentile(len(samples)))
    return percentile(samples, used), used


def summary(values: Sequence[float]) -> dict[str, Any]:
    """Median with min/max kept, over per-round values."""
    return {"value": statistics.median(values), "min": min(values),
            "max": max(values), "rounds": list(values)}


def decile_medians(samples: Sequence[float]) -> tuple[float, float]:
    """Medians of the first and last tenth of ``samples`` (lifetime growth)."""
    width = max(1, len(samples) // 10)
    return statistics.median(samples[:width]), statistics.median(samples[-width:])


def worsening(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative = better)."""
    return (new - base) / base if better == "lower" else (base - new) / base


def verdict(base: dict[str, Any], new: dict[str, Any], better: str, bound: float) -> str:
    """``ok`` / ``regression`` / ``unresolved`` for one metric on one workload.

    A spread across rounds wider than the bound makes the medians
    untrustworthy: the pair is ``unresolved`` unless the two sets of rounds
    do not overlap at all, in which case the direction of the gap decides.
    """
    worse = worsening(base["value"], new["value"], better)
    spread = max((side["max"] - side["min"]) / side["value"] if side["value"] else 0.0
                 for side in (base, new))
    if spread > bound:
        overlap = base["min"] <= new["max"] and new["min"] <= base["max"]
        if overlap:
            return "unresolved"
    return "regression" if worse > bound else "ok"
