"""Small statistics helpers used by the evaluation harness.

The paper reports query *accuracy* as ``1 - |privid - original| / original``
(expressed as a percentage) and sweeps report root-mean-square error against
the non-private baseline.  These helpers centralise those definitions so the
benchmarks and tests agree on them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def relative_error(measured: float, reference: float) -> float:
    """Absolute error of ``measured`` relative to ``reference``.

    When the reference is zero the error is 0 if the measurement is also
    zero and infinity otherwise; this matches how the paper treats queries
    whose true answer is zero (they do not occur in the evaluation).
    """
    if reference == 0:
        return 0.0 if measured == 0 else math.inf
    return abs(measured - reference) / abs(reference)


def accuracy(measured: float, reference: float) -> float:
    """Accuracy in [0, 1] relative to a reference value (clamped below at 0)."""
    return max(0.0, 1.0 - relative_error(measured, reference))


def root_mean_square_error(measured: Sequence[float], reference: Sequence[float]) -> float:
    """Root-mean-square error between two equal-length series."""
    measured_arr = np.asarray(measured, dtype=float)
    reference_arr = np.asarray(reference, dtype=float)
    if measured_arr.shape != reference_arr.shape:
        raise ValueError("series must have the same length")
    if measured_arr.size == 0:
        return 0.0
    return float(np.sqrt(np.mean((measured_arr - reference_arr) ** 2)))
