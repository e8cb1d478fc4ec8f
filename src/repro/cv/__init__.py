"""Synthetic computer-vision substrate: imperfect detection and tracking.

The paper's implementation uses Faster-RCNN (Detectron2) for object detection
and DeepSORT / SORT for tracking.  Neither pixels nor GPUs are available in
this reproduction, so the substrate instead degrades the simulator's perfect
ground truth the way a real detector would (missed detections, localisation
noise, spurious detections) and re-links the degraded detections with a
greedy IoU tracker exposing the same hyperparameters the paper tunes
(Appendix A).
"""

from repro.cv.detector import Detection, DetectionBatch, DetectorConfig, SyntheticDetector
from repro.cv.tracker import IoUTracker, Track, TrackerConfig, TrackView
from repro.cv.duration import (
    DurationEstimate,
    estimate_durations,
    estimate_max_duration,
    persistence_distribution,
)
from repro.cv.tuning import TuningResult, tune_tracker

__all__ = [
    "Detection",
    "DetectionBatch",
    "DetectorConfig",
    "SyntheticDetector",
    "IoUTracker",
    "Track",
    "TrackView",
    "TrackerConfig",
    "DurationEstimate",
    "estimate_durations",
    "estimate_max_duration",
    "persistence_distribution",
    "TuningResult",
    "tune_tracker",
]
