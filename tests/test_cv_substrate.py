"""Tests for the synthetic detector, tracker, duration estimation and tuning."""

import numpy as np
import pytest

from repro.cv.detector import DetectorConfig, SyntheticDetector
from repro.cv.duration import (
    compare_to_ground_truth,
    conservative_grace_period,
    estimate_max_duration,
    ground_truth_distribution,
    persistence_distribution,
)
from repro.cv.tracker import IoUTracker, TrackerConfig
from repro.cv.tuning import distribution_distance, iterate_grid, tune_tracker
from repro.utils.timebase import TimeInterval
from repro.video.geometry import BoundingBox

from tests.conftest import make_crossing_object, make_simple_video
from tests.scalar_oracle import Detection, detection_batch


def _track(frames, config):
    """The batch tracker over hand-written per-frame detection lists."""
    tracker = IoUTracker(config)
    tracker.step_batch(detection_batch(frames))
    return tracker.finalize_views()


def _frame(video, frame_index):
    """One frame of ``video`` as a one-frame batch."""
    return video.batch_for_indices(np.array([frame_index]))


def _straight_line_detections(num_frames: int, *, missing: set[int] = frozenset(),
                              speed: float = 20.0, category: str = "person"):
    """Per-frame detection lists for one object moving down-to-up."""
    frames = []
    y = 600.0
    for index in range(num_frames):
        if index in missing:
            frames.append([])
        else:
            frames.append([Detection(timestamp=float(index), frame_index=index,
                                     category=category,
                                     box=BoundingBox(100.0, y, 30.0, 60.0), confidence=0.9)])
        y -= speed
    return frames


class TestDetector:
    def test_deterministic_per_frame(self, simple_video):
        detector = SyntheticDetector(DetectorConfig(miss_rate=0.3), seed=5)
        first = detector.detect_batch(_frame(simple_video, 100))
        second = detector.detect_batch(_frame(simple_video, 100))
        assert first.boxes.tobytes() == second.boxes.tobytes()

    def test_zero_miss_rate_detects_everything(self, simple_video):
        detector = SyntheticDetector(DetectorConfig(miss_rate=0.0, position_jitter=0.0), seed=1)
        frame = _frame(simple_video, int(50 * simple_video.fps))
        assert len(detector.detect_batch(frame)) == frame.total_visible() > 0

    def test_full_miss_rate_detects_nothing(self, simple_video):
        detector = SyntheticDetector(DetectorConfig(miss_rate=1.0), seed=1)
        frame = _frame(simple_video, int(50 * simple_video.fps))
        assert len(detector.detect_batch(frame)) == 0

    def test_miss_fraction_matches_configuration(self, campus_small):
        config = DetectorConfig(miss_rate=0.3)
        detector = SyntheticDetector(config, seed=3)
        frames = campus_small.video.frame_batch(TimeInterval(0, 600), sample_period=2.0)
        fraction = 1.0 - len(detector.detect_batch(frames)) / frames.total_visible()
        assert fraction == pytest.approx(0.3, abs=0.08)

    def test_false_positives_generated(self, simple_video):
        detector = SyntheticDetector(DetectorConfig(miss_rate=0.0, false_positives_per_frame=2.0),
                                     seed=2)
        detections = detector.detect_batch(_frame(simple_video, 0))
        present, _ = detections.attributes["false_positive"]
        assert int(present.sum()) == 2

    def test_undetectable_categories_skipped(self, simple_video):
        config = DetectorConfig(miss_rate=0.0, detectable_categories=frozenset({"car"}))
        detector = SyntheticDetector(config, seed=1)
        frame = _frame(simple_video, int(50 * simple_video.fps))
        assert frame.total_visible() > 0
        assert len(detector.detect_batch(frame)) == 0

    def test_category_specific_miss_rate(self):
        config = DetectorConfig(miss_rate=0.1, category_miss_rates={"car": 0.9})
        assert config.miss_rate_for("car") == 0.9
        assert config.miss_rate_for("person") == 0.1


class TestTracker:
    def test_continuous_object_single_track(self):
        tracks = _track(_straight_line_detections(30),
                        TrackerConfig(max_age=5, min_hits=2, iou_threshold=0.1))
        assert len(tracks) == 1
        assert tracks[0].hits == 30

    def test_gap_bridged_with_motion_prediction(self):
        frames = _straight_line_detections(30, missing={10, 11, 12}, speed=32.0)
        tracks = _track(frames, TrackerConfig(max_age=8, min_hits=2, iou_threshold=0.1))
        assert len(tracks) == 1

    def test_gap_splits_without_motion_prediction(self):
        frames = _straight_line_detections(30, missing={10, 11, 12}, speed=32.0)
        config = TrackerConfig(max_age=8, min_hits=1, iou_threshold=0.1,
                               use_motion_prediction=False)
        tracks = _track(frames, config)
        assert len(tracks) == 2

    def test_max_age_terminates_tracks(self):
        frames = _straight_line_detections(30, missing=set(range(10, 25)), speed=2.0)
        config = TrackerConfig(max_age=3, min_hits=2, iou_threshold=0.1)
        tracks = _track(frames, config)
        assert len(tracks) == 2

    def test_min_hits_filters_noise_tracks(self):
        single = [[Detection(timestamp=0.0, frame_index=0, category="person",
                             box=BoundingBox(0, 0, 10, 10), confidence=0.9)]] + [[]] * 10
        tracks = _track(single, TrackerConfig(max_age=2, min_hits=2))
        assert tracks == []

    def test_per_category_matching(self):
        frames = []
        for index in range(10):
            frames.append([
                Detection(timestamp=float(index), frame_index=index, category="person",
                          box=BoundingBox(100, 100, 30, 60), confidence=0.9),
                Detection(timestamp=float(index), frame_index=index, category="car",
                          box=BoundingBox(100, 100, 30, 60), confidence=0.9),
            ])
        tracks = _track(frames, TrackerConfig(min_hits=2))
        assert len(tracks) == 2
        assert {track.category for track in tracks} == {"person", "car"}

    def test_track_attribute_majority(self):
        frames = []
        for index in range(6):
            color = "RED" if index < 4 else "BLUE"
            frames.append([Detection(timestamp=float(index), frame_index=index, category="car",
                                     box=BoundingBox(100, 100, 30, 60), confidence=0.9,
                                     attributes={"color": color})])
        tracks = _track(frames, TrackerConfig(min_hits=2))
        assert tracks[0].majority_attribute("color") == "RED"

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrackerConfig(max_age=-1)
        with pytest.raises(ValueError):
            TrackerConfig(min_hits=0)
        with pytest.raises(ValueError):
            TrackerConfig(iou_threshold=1.5)


class TestDurationEstimation:
    def test_persistence_distribution(self):
        tracks = _track(_straight_line_detections(20), TrackerConfig(min_hits=2))
        durations = persistence_distribution(tracks)
        assert durations == [pytest.approx(19.0)]

    def test_ground_truth_distribution_filters_private(self):
        video = make_simple_video(objects=[
            make_crossing_object("a", start=0, duration=30),
            make_crossing_object("tree", start=0, duration=500, category="tree"),
        ])
        assert ground_truth_distribution(video.objects) == [30]

    def test_grace_period(self):
        assert conservative_grace_period(16, 2.0) == 16.0
        with pytest.raises(ValueError):
            conservative_grace_period(16, 0.0)

    def test_estimate_is_conservative_with_grace(self):
        tracks = _track(
            _straight_line_detections(30, missing={0, 1, 28, 29}, speed=5.0),
            TrackerConfig(min_hits=2))
        raw_estimate = estimate_max_duration(tracks)
        padded = estimate_max_duration(tracks, grace_period=4.0)
        assert raw_estimate < 29.0
        assert padded >= 29.0

    def test_compare_to_ground_truth(self):
        video = make_simple_video(objects=[make_crossing_object("a", start=0, duration=25)])
        tracks = _track(_straight_line_detections(26), TrackerConfig(min_hits=2))
        estimate = compare_to_ground_truth(tracks, video.objects, miss_fraction=0.1,
                                           grace_period=2.0)
        assert estimate.ground_truth_max == 25
        assert estimate.is_conservative


class TestTuning:
    def test_distribution_distance_zero_for_identical(self):
        assert distribution_distance([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0)

    def test_distribution_distance_grows_with_shift(self):
        near = distribution_distance([10, 11, 12], [10, 11, 13])
        far = distribution_distance([10, 11, 12], [50, 51, 52])
        assert far > near

    def test_iterate_grid_size(self):
        grid = {"max_age": (4, 8), "min_hits": (2,), "iou_threshold": (0.1, 0.3)}
        assert len(list(iterate_grid(grid))) == 4

    def test_tune_tracker_prefers_reasonable_config(self):
        video = make_simple_video(objects=[make_crossing_object("a", start=0, duration=29)])
        frames = _straight_line_detections(30, missing={5, 6}, speed=20.0)
        grid = {"max_age": (1, 8), "min_hits": (2,), "iou_threshold": (0.1,)}
        results = tune_tracker(detection_batch(frames), video.objects, grid=grid)
        assert len(results) == 2
        # Sorted by distance: the first is the best configuration.
        assert results[0].config.max_age == 8

    def test_tune_tracker_ranks_every_configuration_by_distance(self):
        video = make_simple_video(objects=[make_crossing_object("a", start=0, duration=29)])
        frames = _straight_line_detections(30, missing={5, 6, 12}, speed=20.0)
        grid = {"max_age": (1, 2, 8), "min_hits": (1, 3), "iou_threshold": (0.1, 0.5)}
        results = tune_tracker(detection_batch(frames), video.objects, grid=grid)
        assert len(results) == 12
        distances = [result.distance for result in results]
        assert distances == sorted(distances)
