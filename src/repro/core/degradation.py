"""Graceful degradation of privacy beyond the (rho, K) bound (Appendix C).

Events that exceed the protected bound are not revealed outright; instead the
effective epsilon grows with how far they exceed it, and the probability that
an adversary can detect the event (at a chosen false-positive tolerance) is
bounded by the hypothesis-testing inequality of Kairouz et al. used in
Appendix C:

    P(detect) <= min( e^eps * alpha,  1 - e^-eps * (1 - alpha) )

This module provides the effective-epsilon calculation and the curve plotted
in Fig. 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import PolicyError
from repro.utils import checks
from repro.video.chunking import num_chunks_spanned


def detection_probability_bound(epsilon: float, alpha: float) -> float:
    """Maximum probability of correctly detecting an event under epsilon-DP.

    ``alpha`` is the adversary's acceptable false-positive probability.  The
    bound saturates at 1 for large epsilon.
    """
    checks.real("epsilon", epsilon, PolicyError, at_least=0)
    if checks.probability("alpha", alpha, PolicyError) in (0, 1):
        raise PolicyError(f"alpha must lie strictly between 0 and 1, not {alpha!r}")
    first = math.exp(epsilon) * alpha
    second = 1.0 - math.exp(-epsilon) * (1.0 - alpha)
    return min(1.0, min(first, second))


def effective_epsilon(epsilon: float, *, actual_rho: float, bounded_rho: float,
                      chunk_duration: float, actual_k: int = 1, bounded_k: int = 1) -> float:
    """Effective epsilon experienced by an event that exceeds the (rho, K) bound.

    Following Section 5.3 and the proof of Theorem 6.2, the guarantee scales
    with the number of intermediate-table rows the event can actually touch
    relative to the number the mechanism budgeted for:

    * K scales linearly: a (rho, 2K)-bounded event gets 2 * epsilon;
    * rho scales through Equation 6.1's chunk count: the ratio
      ``max_chunks(actual_rho) / max_chunks(bounded_rho)``.

    Events within the bound experience at most ``epsilon`` (the ratio never
    drops below 1 because the mechanism's noise is fixed by the bound).
    """
    checks.real("epsilon", epsilon, PolicyError, at_least=0)
    checks.real("actual_rho", actual_rho, PolicyError, at_least=0)
    checks.real("bounded_rho", bounded_rho, PolicyError, at_least=0)
    checks.count("actual_k", actual_k, PolicyError, 1)
    checks.count("bounded_k", bounded_k, PolicyError, 1)
    chunk_ratio = (num_chunks_spanned(actual_rho, chunk_duration)
                   / num_chunks_spanned(bounded_rho, chunk_duration))
    k_ratio = actual_k / bounded_k
    return epsilon * max(1.0, chunk_ratio) * max(1.0, k_ratio)


@dataclass(frozen=True)
class DegradationPoint:
    """One point of the Fig. 8 curve."""

    persistence_ratio: float
    effective_epsilon: float
    detection_probability: float


def degradation_curve(*, epsilon: float, bounded_rho: float, chunk_duration: float,
                      alpha: float, ratios: Sequence[float]) -> list[DegradationPoint]:
    """Fig. 8: detection probability as a function of actual/expected persistence.

    ``ratios`` are the x-axis values (actual persistence divided by the
    protected rho).  A ratio of 1.0 corresponds to an event exactly at the
    bound, protected with the nominal epsilon.
    """
    points: list[DegradationPoint] = []
    for ratio in ratios:
        checks.real("a persistence ratio", ratio, PolicyError, at_least=0)
        actual_rho = bounded_rho * ratio
        eps_eff = effective_epsilon(epsilon, actual_rho=actual_rho, bounded_rho=bounded_rho,
                                    chunk_duration=chunk_duration)
        points.append(DegradationPoint(
            persistence_ratio=ratio,
            effective_epsilon=eps_eff,
            detection_probability=detection_probability_bound(eps_eff, alpha),
        ))
    return points
