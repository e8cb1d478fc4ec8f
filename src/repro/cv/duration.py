"""Persistence (duration) estimation from tracks.

Section 5.2 argues that, despite detector misses, detection + tracking can
produce a *conservative* estimate of the maximum time any individual is
visible, which is all the video owner needs to parameterise a
(rho, K, epsilon) policy.  These helpers compute persistence distributions
from tracks and ground truth and the conservative maximum estimate used by
policy estimation (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cv.tracker import TrackView
from repro.scene.objects import PRIVATE_CATEGORIES, SceneObject
from repro.utils import checks


@dataclass(frozen=True)
class DurationEstimate:
    """CV-estimated versus ground-truth maximum persistence for one video."""

    ground_truth_max: float
    estimated_max: float
    miss_fraction: float
    num_tracks: int
    num_ground_truth_objects: int

    @property
    def is_conservative(self) -> bool:
        """True if the CV estimate is at least the ground-truth maximum."""
        return self.estimated_max >= self.ground_truth_max


def persistence_distribution(tracks: Iterable[TrackView]) -> list[float]:
    """Observed persistence (seconds) of each track."""
    return [track.duration for track in tracks]


def ground_truth_distribution(objects: Iterable[SceneObject], *,
                              categories: Iterable[str] | None = None) -> list[float]:
    """Ground-truth appearance durations (seconds) of private objects.

    Each appearance contributes one sample, matching the paper's definition
    of persistence as the length of a single visibility segment.
    """
    allowed = frozenset(categories) if categories is not None else PRIVATE_CATEGORIES
    durations: list[float] = []
    for scene_object in objects:
        if scene_object.category not in allowed:
            continue
        durations.extend(appearance.duration for appearance in scene_object.appearances)
    return durations


def estimate_durations(tracks: Sequence[TrackView], *, grace_period: float = 0.0) -> list[float]:
    """Per-track persistence estimates with an optional conservative grace period.

    ``grace_period`` accounts for the fact that a track only spans the frames
    in which the object was *detected*: the object may have been visible (but
    missed) for up to the tracker's gap-bridging window before the first and
    after the last detection.  Adding that slack keeps the estimate
    conservative, which is what policy estimation needs.
    """
    return [track.duration + grace_period for track in tracks]


def estimate_max_duration(tracks: Sequence[TrackView], *, grace_period: float = 0.0) -> float:
    """Conservative estimate of the maximum persistence across all tracks."""
    durations = estimate_durations(tracks, grace_period=grace_period)
    return max(durations, default=0.0)


def conservative_grace_period(max_age_frames: int, fps: float) -> float:
    """Grace period implied by the tracker's ``max_age`` gap-bridging window.

    The object may have been missed for up to ``max_age`` frames before and
    after the track, so the conservative slack is ``2 * max_age / fps``
    seconds.
    """
    checks.real("fps", fps, ValueError, above=0)
    return 2 * max_age_frames / fps


def compare_to_ground_truth(tracks: Sequence[TrackView], objects: Sequence[SceneObject], *,
                            miss_fraction: float, grace_period: float = 0.0,
                            categories: Iterable[str] | None = None) -> DurationEstimate:
    """Build the Table 1 comparison between CV estimates and ground truth."""
    allowed = frozenset(categories) if categories is not None else PRIVATE_CATEGORIES
    ground_truth = ground_truth_distribution(objects, categories=allowed)
    relevant_objects = [obj for obj in objects if obj.category in allowed]
    return DurationEstimate(
        ground_truth_max=max(ground_truth, default=0.0),
        estimated_max=estimate_max_duration(tracks, grace_period=grace_period),
        miss_fraction=miss_fraction,
        num_tracks=len(tracks),
        num_ground_truth_objects=len(relevant_objects),
    )
