"""Automatic (rho, K) policy estimation from imperfect CV (Section 5.2, Table 1).

The video owner runs detection + tracking over historical footage (optionally
with a candidate mask applied) and takes a conservative estimate of the
maximum persistence as rho.  Even with substantial detection misses the
estimate is conservative because the tracker bridges gaps and the estimate is
padded by the tracker's gap-bridging window on either side.

The footage runs the path every query's chunks run — render a
:class:`~repro.video.video.FrameBatch`, mask it, ``detect_batch``,
``step_batch`` — one block of frames at a time; the tracks come back as
:class:`~repro.cv.tracker.TrackView` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.policy import MaskPolicyMap, PrivacyPolicy
from repro.cv.detector import DetectionBatch, DetectorConfig, SyntheticDetector
from repro.cv.duration import (
    DurationEstimate,
    compare_to_ground_truth,
    conservative_grace_period,
)
from repro.cv.tracker import IoUTracker, TrackerConfig, TrackView
from repro.scene.objects import PRIVATE_CATEGORIES
from repro.utils.timebase import TimeInterval
from repro.video.chunking import filter_batch
from repro.video.geometry import BoundingBox
from repro.video.masking import EMPTY_MASK, Mask
from repro.video.video import FrameBatch, SyntheticVideo

#: Frames rendered, detected and tracked per step: bounds the render's
#: (objects x frames) arrays however long the window.
_FRAMES_PER_BLOCK = 4096

#: An object-frame counts as detected when a genuine detection of its
#: category overlaps its true box by more than this IoU.
_FOUND_IOU = 0.3


@dataclass(frozen=True)
class PolicyEstimate:
    """Outcome of policy estimation: the estimate details and the policy chosen."""

    estimate: DurationEstimate
    policy: PrivacyPolicy
    mask_name: str


def _misses(frames: FrameBatch, detections: DetectionBatch,
            allowed: frozenset[str]) -> tuple[int, int]:
    """``(missed, total)`` visible object-frames of the ``allowed`` categories.

    An object-frame is found when a detection of its category in its frame,
    not a false positive, has IoU above ``_FOUND_IOU`` with its true box.
    """
    genuine: dict[int, list[tuple[str, BoundingBox]]] = {}
    false_positive = detections.attributes.get("false_positive")
    for index, position in enumerate(detections.frame_positions.tolist()):
        if false_positive is None or not false_positive[0][index]:
            genuine.setdefault(position, []).append(
                (detections.categories[detections.category_ids[index]],
                 BoundingBox(*detections.boxes[index].tolist())))
    missed = total = 0
    for row, scene_object in enumerate(frames.scene_objects):
        if scene_object.category not in allowed:
            continue
        for position in np.flatnonzero(frames.visible[row]).tolist():
            truth = BoundingBox(*frames.boxes[row, position].tolist())
            total += 1
            missed += not any(category == scene_object.category
                              and box.iou(truth) > _FOUND_IOU
                              for category, box in genuine.get(position, ()))
    return missed, total


def track_video(video: SyntheticVideo, *, detector_config: DetectorConfig,
                tracker_config: TrackerConfig, window: TimeInterval | None = None,
                mask: Mask = EMPTY_MASK, sample_period: float | None = None,
                detector_seed: int = 0,
                categories: Iterable[str] | None = None) -> tuple[list[TrackView], float]:
    """Detect and track a window of video; return private-category tracks and miss rate.

    The miss rate is the fraction of visible (after the mask) object-frames
    of the tracked categories that no detection found (see :func:`_misses`).
    """
    allowed = frozenset(categories) if categories is not None else PRIVATE_CATEGORIES
    detector = SyntheticDetector(detector_config, seed=detector_seed)
    tracker = IoUTracker(tracker_config)
    window = video.interval if window is None else window.clamp(video.interval)
    indices = video.frame_indices(window, sample_period)
    total = 0
    missed = 0
    for first in range(0, indices.size, _FRAMES_PER_BLOCK):
        frames = filter_batch(
            video.batch_for_indices(indices[first:first + _FRAMES_PER_BLOCK]), mask)
        detections = detector.detect_batch(frames, frame_width=video.width,
                                           frame_height=video.height, categories=allowed,
                                           attributes=("false_positive",))
        block_missed, block_total = _misses(frames, detections, allowed)
        missed += block_missed
        total += block_total
        tracker.step_batch(detections)
    tracks = tracker.finalize_views()
    miss_fraction = (missed / total) if total else 0.0
    return tracks, miss_fraction


def estimate_policy(video: SyntheticVideo, *, detector_config: DetectorConfig,
                    tracker_config: TrackerConfig, window: TimeInterval | None = None,
                    mask: Mask = EMPTY_MASK, mask_name: str = MaskPolicyMap.NO_MASK,
                    sample_period: float | None = None, detector_seed: int = 0,
                    k_segments: int = 2, categories: Iterable[str] | None = None) -> PolicyEstimate:
    """Estimate a conservative (rho, K) policy for a camera (optionally masked).

    ``k_segments`` comes from owner domain knowledge (how many times the same
    individual may reappear within a query window); trackers cannot observe it
    reliably because they do not re-identify across long gaps.
    """
    tracks, miss_fraction = track_video(
        video, detector_config=detector_config, tracker_config=tracker_config,
        window=window, mask=mask, sample_period=sample_period,
        detector_seed=detector_seed, categories=categories)
    effective_period = sample_period if sample_period is not None else video.frame_period
    effective_fps = 1.0 / effective_period
    grace = conservative_grace_period(tracker_config.max_age, effective_fps)
    allowed = frozenset(categories) if categories is not None else PRIVATE_CATEGORIES
    masked_objects = []
    window = video.interval if window is None else window.clamp(video.interval)
    for scene_object in video.objects_overlapping(window):
        if scene_object.category not in allowed:
            continue
        if mask.is_empty:
            masked_objects.append(scene_object)
            continue
        visible_anywhere = any(
            appearance.box_at((appearance.interval.start + appearance.interval.end) / 2.0)
            is not None and not mask.hides(
                appearance.box_at((appearance.interval.start + appearance.interval.end) / 2.0))
            for appearance in scene_object.appearances)
        if visible_anywhere:
            masked_objects.append(scene_object)
    estimate = compare_to_ground_truth(tracks, masked_objects, miss_fraction=miss_fraction,
                                       grace_period=grace, categories=allowed)
    rho = max(estimate.estimated_max, 0.0)
    policy = PrivacyPolicy(rho=rho, k_segments=k_segments)
    return PolicyEstimate(estimate=estimate, policy=policy, mask_name=mask_name)


def build_mask_policy_map(video: SyntheticVideo, *, detector_config: DetectorConfig,
                          tracker_config: TrackerConfig, masks: dict[str, Mask],
                          window: TimeInterval | None = None,
                          sample_period: float | None = None, detector_seed: int = 0,
                          k_segments: int = 2,
                          categories: Iterable[str] | None = None) -> MaskPolicyMap:
    """Build the owner's mask -> policy map for a camera (Section 7.1).

    The unmasked policy is always estimated; each entry of ``masks`` adds a
    masked alternative with its own (typically much smaller) rho.
    """
    unmasked = estimate_policy(video, detector_config=detector_config,
                               tracker_config=tracker_config, window=window,
                               sample_period=sample_period, detector_seed=detector_seed,
                               k_segments=k_segments, categories=categories)
    policy_map = MaskPolicyMap.unmasked(unmasked.policy)
    for name, mask in masks.items():
        masked = estimate_policy(video, detector_config=detector_config,
                                 tracker_config=tracker_config, window=window, mask=mask,
                                 mask_name=name, sample_period=sample_period,
                                 detector_seed=detector_seed, k_segments=k_segments,
                                 categories=categories)
        policy_map.add(name, mask, masked.policy)
    return policy_map
