"""Columnar frame pipeline: old-vs-new parity, hashing statistics, schedules.

The legacy per-frame path (``chunk.frames()`` + ``detect_frame`` + one
``tracker.step`` per frame) must produce results identical to the columnar
path (``chunk.frame_batch()`` + ``detect_batch``): same boxes bit-for-bit,
same detections, same tracks, same query rows.  The splitmix64 draw streams
backing the detector must also behave like independent uniforms — these
statistical checks are deterministic (fixed seeds) and guard the privacy
argument's "draws are keyed, not sequenced" contract.
"""

import pickle

import numpy as np
import pytest

import repro.cv.tracker as tracker_module
from repro.core import PrividSystem, SerialEngine, ShardedEngine
from repro.core.policy import PrivacyPolicy
from repro.cv.detector import DetectorConfig, SyntheticDetector
from repro.cv.tracker import IoUTracker, TrackerConfig
from repro.query.builder import QueryBuilder
from repro.sandbox.environment import ExecutionContext
from repro.sandbox.executables import _track_chunk
from repro.scene.objects import SceneObject
from repro.scene.scenarios import build_scenario
from repro.scene.schedules import ConstantSchedule, CyclicSchedule, periodic_two_state
from repro.scene.trajectory import WaypointTrajectory
from repro.utils.hashing import (
    stream_key,
    string_token,
    unit_draw,
    unit_draws,
    unit_draws_matrix,
)
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec, split_interval
from repro.video.geometry import BoundingBox
from repro.video.masking import Mask
from repro.video.regions import Region

from tests.conftest import make_crossing_object, make_simple_video, make_stationary_object


def _rich_video():
    """A small video exercising attributes, schedules, masks and crossings."""
    light = make_stationary_object("light-1", start=0.0, duration=600.0,
                                   box=BoundingBox(600.0, 40.0, 30.0, 70.0),
                                   category="traffic_light",
                                   attributes={"kind": "intersection"})
    light.dynamic_attributes["light_state"] = periodic_two_state("RED", 50.0, "GREEN", 30.0)
    objects = [
        make_crossing_object("walker-1", start=30.0, duration=40.0,
                             attributes={"color": "RED", "plate": "AAA111"}),
        make_crossing_object("walker-2", start=45.0, duration=35.0, x=700.0,
                             attributes={"color": "BLUE", "plate": "BBB222"}),
        make_stationary_object("sitter-1", start=20.0, duration=500.0,
                               box=BoundingBox(100.0, 500.0, 30.0, 60.0)),
        light,
    ]
    return make_simple_video(objects=objects)


def _detector():
    return SyntheticDetector(DetectorConfig(miss_rate=0.2, position_jitter=3.0,
                                            attribute_error_rate=0.1,
                                            false_positives_per_frame=0.4), seed=9)


def _chunks(video, *, mask=None, chunk_duration=30.0):
    spec = ChunkSpec(window=TimeInterval(0.0, video.duration),
                     chunk_duration=chunk_duration)
    kwargs = {"mask": mask} if mask is not None else {}
    return split_interval(video, spec, **kwargs)


def _detections_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.timestamp == b.timestamp
        assert a.frame_index == b.frame_index
        assert a.category == b.category
        assert (a.box.x, a.box.y, a.box.width, a.box.height) \
            == (b.box.x, b.box.y, b.box.width, b.box.height)
        assert a.confidence == b.confidence
        assert dict(a.attributes) == dict(b.attributes)


class TestFrameBatchParity:
    def test_detect_batch_matches_detect_frame(self):
        video = _rich_video()
        detector = _detector()
        for chunk in _chunks(video):
            batch = chunk.frame_batch()
            batched = detector.detect_batch(batch, frame_width=video.width,
                                            frame_height=video.height)
            for per_frame, frame in zip(batched.per_frame_detections(),
                                        chunk.frames()):
                scalar = detector.detect_frame(frame, frame_width=video.width,
                                               frame_height=video.height)
                _detections_equal(per_frame, scalar)

    def test_detect_batch_with_region_and_mask(self):
        video = _rich_video()
        detector = _detector()
        mask = Mask(name="m", regions=(BoundingBox(80.0, 480.0, 100.0, 120.0),))
        region = Region("west", BoundingBox(0.0, 0.0, 660.0, 720.0))
        for chunk in _chunks(video, mask=mask):
            chunk = chunk.with_region(region)
            batched = detector.detect_batch(chunk.frame_batch(), frame_width=video.width,
                                            frame_height=video.height)
            for per_frame, frame in zip(batched.per_frame_detections(),
                                        chunk.frames()):
                _detections_equal(per_frame, detector.detect_frame(
                    frame, frame_width=video.width, frame_height=video.height))

    def test_detect_batch_category_filter_matches_post_filter(self):
        video = _rich_video()
        detector = _detector()
        chunk = _chunks(video)[1]
        filtered = detector.detect_batch(chunk.frame_batch(), frame_width=video.width,
                                         frame_height=video.height,
                                         categories={"person"})
        unfiltered = detector.detect_batch(chunk.frame_batch(), frame_width=video.width,
                                           frame_height=video.height)
        for narrow, wide in zip(filtered.per_frame_detections(),
                                unfiltered.per_frame_detections()):
            _detections_equal(narrow, [det for det in wide if det.category == "person"])

    def test_track_chunk_matches_legacy_loop(self):
        video = _rich_video()
        context = ExecutionContext(
            camera="cam", fps=video.fps,
            detector_config=DetectorConfig(miss_rate=0.2, position_jitter=3.0),
            tracker_config=TrackerConfig(max_age=8, min_hits=2, iou_threshold=0.1),
            detector_seed=9)
        for chunk in _chunks(video):
            batched_tracks = _track_chunk(chunk, context, categories={"person"})
            detector = context.detector()
            tracker = IoUTracker(context.tracker_config)
            for frame in chunk.frames():
                detections = [det for det in detector.detect_frame(
                    frame, frame_width=video.width, frame_height=video.height)
                    if det.category == "person"]
                tracker.step(detections)
            legacy_tracks = tracker.finalize()
            assert len(batched_tracks) == len(legacy_tracks)
            assert [t.duration for t in batched_tracks] \
                == [t.duration for t in legacy_tracks]
            assert [[obs.frame_index for obs in t.observations] for t in batched_tracks] \
                == [[obs.frame_index for obs in t.observations] for t in legacy_tracks]

    def test_query_answers_identical_across_engines_on_scenario_scene(self):
        """Scenario scenes (with schedules) run on pipe shards too."""
        scenario = build_scenario("campus", scale=0.1, duration_hours=0.25, seed=7)
        video = scenario.video

        def run(engine):
            system = PrividSystem(seed=2022, engine=engine)
            system.register_camera("cam", video,
                                   policy=PrivacyPolicy(rho=60.0, k_segments=2),
                                   epsilon_budget=100.0)
            query = (QueryBuilder("parity")
                     .split("cam", begin=0.0, end=video.duration, chunk_duration=30.0,
                            into="chunks")
                     .process("chunks", executable="count_entering_people.py", max_rows=5,
                              schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)],
                              into="people")
                     .select_count(table="people", bucket_seconds=300.0, epsilon=1.0)
                     .build())
            result = system.execute(query, charge_budget=False)
            return result.raw_series_unsafe()

        serial = run(SerialEngine())
        engine = ShardedEngine(2)
        try:
            process = run(engine)
        finally:
            engine.shutdown()
        assert serial == process


class TestVectorizedPrimitives:
    def test_waypoint_boxes_at_matches_box_at(self):
        trajectory = WaypointTrajectory([
            (0.0, BoundingBox(0.0, 0.0, 10.0, 10.0)),
            (5.0, BoundingBox(50.0, 30.0, 12.0, 14.0)),
            (5.0, BoundingBox(55.0, 30.0, 12.0, 14.0)),
            (9.0, BoundingBox(90.0, 10.0, 10.0, 10.0)),
        ])
        elapsed = np.array([-1.0, 0.0, 0.5, 2.5, 5.0, 7.3, 9.0, 12.0])
        rows = trajectory.boxes_at(elapsed)
        for value, row in zip(elapsed.tolist(), rows.tolist()):
            box = trajectory.box_at(value)
            assert row == [box.x, box.y, box.width, box.height]

    def test_mask_covered_fractions_matches_scalar(self):
        mask = Mask(name="m", regions=(BoundingBox(0.0, 0.0, 100.0, 100.0),
                                       BoundingBox(200.0, 50.0, 80.0, 90.0)))
        boxes = np.array([[10.0, 10.0, 50.0, 50.0],
                          [190.0, 40.0, 40.0, 40.0],
                          [500.0, 500.0, 30.0, 30.0],
                          [95.0, 95.0, 10.0, 10.0],
                          [0.0, 0.0, 0.0, 10.0]])
        fractions = mask.covered_fractions(boxes)
        for row, fraction in zip(boxes, fractions.tolist()):
            assert fraction == mask.covered_fraction(BoundingBox(*row.tolist()))
        hidden = mask.hides_boxes(boxes)
        for row, flag in zip(boxes, hidden.tolist()):
            assert flag == mask.hides(BoundingBox(*row.tolist()))

    def test_region_contains_points_matches_scalar(self):
        region = Region("r", BoundingBox(10.0, 20.0, 100.0, 50.0))
        xs = np.array([9.9, 10.0, 60.0, 110.0, 110.1])
        ys = np.array([20.0, 19.9, 45.0, 70.0, 70.1])
        flags = region.contains_points(xs, ys)
        from repro.video.geometry import Point
        for x, y, flag in zip(xs.tolist(), ys.tolist(), flags.tolist()):
            assert flag == region.contains(Point(x, y))

    def test_mixed_frame_step_predicts_per_detection(self):
        """A step spanning frames extrapolates each detection's own frame."""
        config = TrackerConfig(max_age=10, min_hits=1, iou_threshold=0.1,
                               use_motion_prediction=True)
        tracker = IoUTracker(config)

        def det(frame_index, x, y, confidence=0.9):
            return tracker_module.Detection(
                timestamp=float(frame_index), frame_index=frame_index,
                category="person", box=BoundingBox(x, y, 30.0, 60.0),
                confidence=confidence)

        # track A moves -40 px/frame in y; track B is stationary.
        tracker.step([det(0, 100.0, 600.0), det(0, 500.0, 300.0)])
        tracker.step([det(1, 100.0, 560.0), det(1, 500.0, 300.0)])
        # One step carrying frames 2 and 4: the frame-4 detection of A only
        # overlaps a prediction extrapolated 3 frames ahead (y=440), not the
        # first detection's frame (y=520).
        tracker.step([det(2, 500.0, 300.0, confidence=0.95),
                      det(4, 100.0, 440.0, confidence=0.9)])
        tracks = sorted(tracker.finalize(), key=lambda t: t.track_id)
        assert [[obs.frame_index for obs in t.observations] for t in tracks] \
            == [[0, 1, 4], [0, 1, 2]]


class TestTimebaseRounding:
    def test_num_frames_is_epsilon_aware(self):
        video = make_simple_video(duration=0.3, fps=10.0)
        assert video.num_frames == 3
        assert len(list(video.frames())) == 3

    def test_num_frames_exact_products_unchanged(self):
        video = make_simple_video(duration=600.0, fps=2.0)
        assert video.num_frames == 1200

    def test_frame_index_at_is_epsilon_aware(self):
        video = make_simple_video(duration=10.0, fps=10.0)
        boundary = 0.1 + 0.1 + 0.1  # 0.30000000000000004-adjacent float error
        assert video.frame_index_at(0.29999999999999993) == 3
        assert video.frame_index_at(boundary) == 3
        assert video.frame_index_at(0.25) == 2


class TestSchedules:
    def test_cyclic_schedule_matches_closure(self):
        schedule = CyclicSchedule(phases=(("RED", 75.0), ("GREEN", 45.0)))
        cycle = 120.0
        for timestamp in [0.0, 10.0, 74.999, 75.0, 100.0, 119.999, 120.0, 500.0]:
            expected = "RED" if (timestamp % cycle) < 75.0 else "GREEN"
            assert schedule.value_at(timestamp) == expected
            assert schedule(timestamp) == expected  # closure-compat shim

    def test_values_at_matches_value_at(self):
        schedule = CyclicSchedule(phases=(("A", 1.5), ("B", 2.0), ("C", 0.5)))
        timestamps = np.linspace(0.0, 40.0, 977)
        batch = schedule.values_at(timestamps)
        assert batch == [schedule.value_at(t) for t in timestamps.tolist()]

    def test_constant_schedule(self):
        schedule = ConstantSchedule("ON")
        assert schedule.value_at(123.0) == "ON"
        assert schedule.values_at(np.zeros(4)) == ["ON"] * 4

    def test_invalid_cyclic_schedule_rejected(self):
        with pytest.raises(ValueError):
            CyclicSchedule(phases=())
        with pytest.raises(ValueError):
            CyclicSchedule(phases=(("A", 0.0),))

    def test_scenario_videos_are_picklable(self):
        scenario = build_scenario("campus", scale=0.05, duration_hours=0.25, seed=7)
        clone = pickle.loads(pickle.dumps(scenario.video))
        lights = [obj for obj in clone.objects if obj.category == "traffic_light"]
        assert lights
        assert lights[0].attributes_at(10.0)["light_state"] == "RED"

    def test_closure_attributes_still_work(self):
        scene_object = SceneObject(object_id="x", category="traffic_light")
        scene_object.dynamic_attributes["state"] = lambda t: "ON" if t < 5 else "OFF"
        assert scene_object.attributes_at(1.0)["state"] == "ON"
        series = scene_object.attribute_series(np.array([1.0, 9.0]))
        assert series == [("state", None, ["ON", "OFF"])]


class TestHashStatistics:
    """The splitmix64 draw streams must look like independent uniforms.

    All assertions are deterministic (fixed seeds, fixed stream keys); the
    bounds are wide enough that a correct generator passes with enormous
    margin while a biased or correlated one fails clearly.
    """

    N = 50_000

    def _stream(self, tag: str, object_id: str = "campus/person/000042", seed: int = 7):
        key = stream_key(seed, string_token(tag), string_token(object_id))
        return unit_draws(key, np.arange(self.N, dtype=np.int64))

    def test_scalar_and_vector_draws_identical(self):
        key = stream_key(3, string_token("miss"), string_token("obj-1"))
        indices = np.array([0, 1, 17, 2 ** 31, 2 ** 40 + 123], dtype=np.int64)
        vector = unit_draws(key, indices)
        for index, value in zip(indices.tolist(), vector.tolist()):
            assert unit_draw(key, index) == value
        matrix = unit_draws_matrix([key, key ^ 1], indices)
        assert matrix[0].tolist() == vector.tolist()

    def test_uniform_mean_and_variance(self):
        for tag in ("miss", "jx", "jy", "conf"):
            draws = self._stream(tag)
            assert abs(draws.mean() - 0.5) < 0.01
            assert abs(draws.var() - 1.0 / 12.0) < 0.005

    def test_uniform_histogram_chi_square(self):
        for tag in ("miss", "conf"):
            draws = self._stream(tag)
            counts, _ = np.histogram(draws, bins=20, range=(0.0, 1.0))
            expected = self.N / 20.0
            chi_square = float(((counts - expected) ** 2 / expected).sum())
            # 19 dof: mean 19, std ~6.2; 60 is beyond p ~ 1e-5.
            assert chi_square < 60.0

    def test_streams_are_pairwise_uncorrelated(self):
        streams = {tag: self._stream(tag) for tag in ("miss", "jx", "jy", "conf")}
        tags = list(streams)
        for i, tag_a in enumerate(tags):
            for tag_b in tags[i + 1:]:
                rho = float(np.corrcoef(streams[tag_a], streams[tag_b])[0, 1])
                assert abs(rho) < 0.02, (tag_a, tag_b, rho)

    def test_lag_autocorrelation_small(self):
        draws = self._stream("miss")
        for lag in (1, 2, 7):
            rho = float(np.corrcoef(draws[:-lag], draws[lag:])[0, 1])
            assert abs(rho) < 0.02, (lag, rho)

    def test_distinct_objects_and_seeds_decorrelated(self):
        base = self._stream("miss")
        other_object = self._stream("miss", object_id="campus/person/000043")
        other_seed = self._stream("miss", seed=8)
        assert abs(float(np.corrcoef(base, other_object)[0, 1])) < 0.02
        assert abs(float(np.corrcoef(base, other_seed)[0, 1])) < 0.02
        assert not np.array_equal(base, other_object)
        assert not np.array_equal(base, other_seed)

    def test_miss_rate_realised_precisely(self):
        draws = self._stream("miss")
        for rate in (0.05, 0.29, 0.76):
            realised = float((draws < rate).mean())
            assert realised == pytest.approx(rate, abs=0.01)
