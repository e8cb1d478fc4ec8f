"""The Laplace mechanism used to perturb every data release (Section 6.1).

Noise is drawn from a Laplace distribution with scale ``sensitivity /
epsilon``; the same mechanism powers plain numeric releases and the noisy
argmax used for ARGMAX aggregations (report-noisy-max).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import PolicyError
from repro.utils import checks
from repro.utils.rng import RandomSource


class LaplaceMechanism:
    """Draws calibrated Laplace noise from a dedicated random stream."""

    def __init__(self, random_source: RandomSource | None = None, *, seed: int = 0) -> None:
        source = random_source if random_source is not None else RandomSource(seed)
        self._rng = source.stream("laplace-mechanism")

    @staticmethod
    def scale(sensitivity: float, epsilon: float) -> float:
        """Laplace scale parameter b = sensitivity / epsilon."""
        checks.real("epsilon", epsilon, PolicyError, above=0)
        checks.real("sensitivity", sensitivity, PolicyError, at_least=0)
        return sensitivity / epsilon

    def sample(self, sensitivity: float, epsilon: float) -> float:
        """One noise sample for the given sensitivity and epsilon."""
        scale = self.scale(sensitivity, epsilon)
        if scale == 0:
            return 0.0
        return float(self._rng.laplace(0.0, scale))

    def add_noise(self, value: float, sensitivity: float, epsilon: float) -> float:
        """Return ``value`` perturbed with calibrated Laplace noise."""
        return float(value) + self.sample(sensitivity, epsilon)

    def noisy_argmax(self, candidates: Mapping[Any, float], sensitivity: float,
                     epsilon: float) -> Any:
        """Report-noisy-max over a set of candidate values.

        Each candidate's value receives an independent Laplace sample of
        scale ``sensitivity / epsilon`` and the key of the largest noisy
        value is returned.  Only the winning key is released.
        """
        if not candidates:
            raise PolicyError("noisy_argmax requires at least one candidate")
        best_key = None
        best_value = -np.inf
        for key in sorted(candidates, key=str):
            noisy = candidates[key] + self.sample(sensitivity, epsilon)
            if noisy > best_value:
                best_value = noisy
                best_key = key
        return best_key

    @staticmethod
    def confidence_interval(sensitivity: float, epsilon: float,
                            confidence: float = 0.99) -> float:
        """Half-width of the symmetric noise interval at the given confidence.

        Used to draw the noise ribbon of Fig. 5: the noisy output falls within
        ``raw +- half_width`` with probability ``confidence``.
        """
        if checks.probability("confidence", confidence, PolicyError) == 1:
            raise PolicyError("confidence 1 has no finite interval")
        scale = LaplaceMechanism.scale(sensitivity, epsilon)
        return float(-scale * np.log(1.0 - confidence))
