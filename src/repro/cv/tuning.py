"""Tracker hyperparameter tuning (Appendix A, Tables 4 and 5).

The paper tunes DeepSORT / SORT per video by sweeping a grid of
hyperparameters and picking the configuration whose persistence distribution
most closely matches a manually annotated ground-truth distribution.  This
module reproduces that procedure over the synthetic tracker: it sweeps
``TrackerConfig`` grids and scores each configuration by the distance between
its persistence distribution and the ground-truth distribution.  The
detections are one :class:`~repro.cv.detector.DetectionBatch`, detected
once and tracked afresh under every configuration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.cv.detector import DetectionBatch
from repro.cv.duration import ground_truth_distribution, persistence_distribution
from repro.cv.tracker import IoUTracker, TrackerConfig
from repro.scene.objects import SceneObject


@dataclass(frozen=True)
class TuningResult:
    """Score of one hyperparameter configuration."""

    config: TrackerConfig
    distance: float
    num_tracks: int
    estimated_max: float

    def as_row(self) -> dict[str, float | int]:
        """Flatten the result into a printable row (for the Tables 4/5 bench)."""
        return {
            "max_age": self.config.max_age,
            "min_hits": self.config.min_hits,
            "iou_threshold": self.config.iou_threshold,
            "distance": self.distance,
            "num_tracks": self.num_tracks,
            "estimated_max": self.estimated_max,
        }


def distribution_distance(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Distance between two persistence distributions.

    Uses the 1-Wasserstein (earth mover's) distance between empirical
    distributions, computed directly from sorted quantiles; it is robust to
    the two samples having different sizes and captures both location and
    spread differences, which is what the paper's manual comparison is after.
    """
    if len(sample_a) == 0 and len(sample_b) == 0:
        return 0.0
    if len(sample_a) == 0 or len(sample_b) == 0:
        nonempty = sample_a if sample_a else sample_b
        return float(np.mean(np.abs(nonempty)))
    quantiles = np.linspace(0.0, 1.0, 101)
    qa = np.quantile(np.asarray(sample_a, dtype=float), quantiles)
    qb = np.quantile(np.asarray(sample_b, dtype=float), quantiles)
    return float(np.mean(np.abs(qa - qb)))


def default_grid() -> dict[str, Sequence[float | int]]:
    """Hyperparameter grid mirroring the shape of Tables 4 and 5."""
    return {
        "max_age": (8, 16, 32, 64, 96),
        "min_hits": (2, 3, 5, 7, 9),
        "iou_threshold": (0.1, 0.3, 0.5, 0.7),
    }


def iterate_grid(grid: Mapping[str, Sequence[float | int]]) -> Iterable[TrackerConfig]:
    """Yield a TrackerConfig for every combination in the grid."""
    keys = sorted(grid)
    for values in itertools.product(*(grid[key] for key in keys)):
        params = dict(zip(keys, values))
        yield TrackerConfig(
            max_age=int(params.get("max_age", 30)),
            min_hits=int(params.get("min_hits", 3)),
            iou_threshold=float(params.get("iou_threshold", 0.3)),
        )


def tune_tracker(detections: DetectionBatch, objects: Sequence[SceneObject], *,
                 grid: Mapping[str, Sequence[float | int]] | None = None,
                 categories: Iterable[str] | None = None) -> list[TuningResult]:
    """Sweep the grid and return results sorted from best (smallest distance) to worst."""
    grid = grid if grid is not None else default_grid()
    reference = ground_truth_distribution(objects, categories=categories)
    results: list[TuningResult] = []
    for config in iterate_grid(grid):
        tracker = IoUTracker(config)
        tracker.step_batch(detections)
        tracks = tracker.finalize_views()
        estimated = persistence_distribution(tracks)
        results.append(TuningResult(
            config=config,
            distance=distribution_distance(estimated, reference),
            num_tracks=len(tracks),
            estimated_max=max(estimated, default=0.0),
        ))
    results.sort(key=lambda result: result.distance)
    return results
