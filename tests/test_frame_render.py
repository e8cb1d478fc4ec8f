"""The one-pass chunk render against an independent scalar oracle.

``SyntheticVideo.batch_for_indices`` renders a chunk from the per-video
appearance table and ``Chunk._apply_filters`` masks it in one call.  The
oracle here shares none of that: it keeps the previous bucket index (a dict
of object lists) for the object order, and asks ``SceneObject.box_at``,
``Mask.hides`` and ``Region.contains`` one (object, frame) at a time.  The
two must agree byte for byte — object order, visibility matrix and every
visible box, ``-0.0`` included.

A chunk rendered for declared ``categories`` must in turn be that full batch
with the other rows deleted, and detections projected onto declared
``attributes`` the full detections minus the other columns: generated scenes
below, and the work pinned as exact counts.
"""

import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PrividSystem, ProcessPoolEngine, SerialEngine
from repro.cv.detector import DetectorConfig, SyntheticDetector
from repro.evaluation.runner import register_scenario_camera
from repro.query.parser import parse_query
from repro.sandbox.environment import ExecutionContext
from repro.sandbox.registry import default_registry
from repro.scene.objects import Appearance, SceneObject
from repro.scene.scenarios import SCENARIO_NAMES, build_scenario
from repro.scene.schedules import CyclicSchedule
from repro.scene.trajectory import (
    LinearTrajectory,
    StationaryTrajectory,
    Trajectory,
    WaypointTrajectory,
)
from repro.utils.timebase import TimeInterval, frame_index_range
from repro.video.chunking import Chunk, ChunkSpec, split_interval
from repro.video.geometry import BoundingBox
from repro.video.masking import EMPTY_MASK, Mask
from repro.video.regions import Region

from tests.conftest import make_crossing_object, make_simple_video, make_stationary_object


# --------------------------------------------------------------------- oracle

class OracleIndex:
    """The dict-of-lists bucket index the render used to walk, kept as the
    reference for object order (bucket-major, first seen first)."""

    def __init__(self, video):
        self.size = max(60.0, video.duration / 2048.0)
        self.buckets = {}
        for scene_object in video.objects:
            seen = set()
            for appearance in scene_object.appearances:
                first = int(appearance.interval.start // self.size)
                last = int(max(appearance.interval.start,
                               appearance.interval.end - 1e-9) // self.size)
                for bucket in range(first, last + 1):
                    if bucket not in seen:
                        self.buckets.setdefault(bucket, []).append(scene_object)
                        seen.add(bucket)

    def overlapping(self, window):
        first = int(window.start // self.size)
        last = int(max(window.start, window.end - 1e-9) // self.size)
        ordered, seen = [], set()
        for bucket in range(first, last + 1):
            for scene_object in self.buckets.get(bucket, ()):
                if id(scene_object) not in seen:
                    seen.add(id(scene_object))
                    ordered.append(scene_object)
        return [scene_object for scene_object in ordered
                if scene_object.appearances_within(window)]


def oracle_rows(chunk, index, max_frames=None):
    """``(frame indices, [(object id, visible flags, boxes or None)])``, scalar."""
    video = chunk.video
    window = chunk.interval.clamp(video.interval)
    first, last = frame_index_range(window.start, window.end, video.fps)
    step = 1
    if chunk.sample_period is not None:
        step = max(1, int(round(max(chunk.sample_period, 1.0 / video.fps) * video.fps)))
    frames = list(range(first, last, step))[:max_frames]
    rows = []
    for scene_object in index.overlapping(chunk.interval):
        boxes = []
        for frame in frames:
            box = scene_object.box_at(frame / video.fps)
            if box is not None and chunk.mask.hides(box):
                box = None
            if box is not None and chunk.region is not None \
                    and not chunk.region.contains(box.center):
                box = None
            boxes.append(box)
        if any(box is not None for box in boxes):
            rows.append((scene_object.object_id, [box is not None for box in boxes], boxes))
    return frames, rows


def assert_matches_oracle(chunk, index, max_frames=None):
    batch = chunk.frame_batch(max_frames=max_frames)
    frames, rows = oracle_rows(chunk, index, max_frames)
    assert batch.frame_indices.tolist() == frames
    assert [scene_object.object_id for scene_object in batch.scene_objects] \
        == [object_id for object_id, _, _ in rows]
    assert batch.visible.shape == (len(rows), len(frames))
    assert batch.boxes.shape == (len(rows), len(frames), 4)
    assert batch.visible.tolist() == [visible for _, visible, _ in rows]
    for row, (_, _, boxes) in enumerate(rows):
        expected = np.array([[box.x, box.y, box.width, box.height]
                             for box in boxes if box is not None], dtype=np.float64)
        assert batch.boxes[row][batch.visible[row]].tobytes() == expected.tobytes()
    assert batch.total_visible() == sum(sum(visible) for _, visible, _ in rows)
    return batch


def chunks_of(video, *, chunk_duration=30.0, window=None, mask=EMPTY_MASK,
              sample_period=None):
    spec = ChunkSpec(window=window or TimeInterval(0.0, video.duration),
                     chunk_duration=chunk_duration, sample_period=sample_period)
    return split_interval(video, spec, mask=mask, validate_frame_alignment=False)


# ------------------------------------------------------------ scenario scenes

@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_scenario_scene_matches_the_scalar_oracle(name):
    """scene x {no mask, owner mask} x {no region, each region} x
    sample_period x max_frames: byte-equal visibility and boxes."""
    scenario = build_scenario(name, duration_hours=0.1)
    video = scenario.video
    index = OracleIndex(video)
    masks = [EMPTY_MASK] + ([scenario.owner_mask] if scenario.owner_mask else [])
    regions = [None] + (list(scenario.region_scheme.regions)
                        if scenario.region_scheme else [])
    compared = 0
    # Buckets are 60 s, so every other 45 s chunk straddles a bucket boundary,
    # as does the full-rate stretch around the two-minute mark.
    settings = ((1.0, [TimeInterval(start, start + 45.0) for start in range(0, 360, 45)]),
                (None, [TimeInterval(0.0, 3.0), TimeInterval(118.0, 122.0)]))
    for mask in masks:
        for sample_period, windows in settings:
            for window in windows:
                base = Chunk(video=video, index=0, interval=window, mask=mask,
                             sample_period=sample_period)
                for region in regions:
                    chunk = base if region is None else base.with_region(region)
                    for max_frames in (None, 1):
                        batch = assert_matches_oracle(chunk, index, max_frames)
                        compared += batch.total_visible()
    assert compared > 0


def test_frame_adapters_read_the_stack():
    """``chunk.frames()``/``frame_truth`` against the oracle's per-frame view."""
    objects = [
        make_crossing_object("walker-1", start=30.0, duration=40.0),
        make_crossing_object("walker-2", start=45.0, duration=35.0, x=700.0),
        make_stationary_object("sitter-1", start=20.0, duration=500.0,
                               box=BoundingBox(100.0, 500.0, 30.0, 60.0)),
    ]
    video = make_simple_video(objects=objects)
    index = OracleIndex(video)
    mask = Mask(name="m", regions=(BoundingBox(80.0, 480.0, 100.0, 120.0),))
    for chunk in chunks_of(video, mask=mask)[:4]:
        frames, rows = oracle_rows(chunk, index)
        batch = chunk.frame_batch()
        emitted = list(chunk.frames())
        assert [frame.frame_index for frame in emitted] == frames
        for position, frame in enumerate(emitted):
            expected = [(object_id, boxes[position]) for object_id, visible, boxes in rows
                        if visible[position]]
            for truth in (frame, batch.frame_truth(position)):
                assert truth.timestamp == frames[position] / video.fps
                assert [(seen.object_id, seen.box) for seen in truth.visible] == expected


def test_quick_cold_scan_releases_match_the_parent_commit(tmp_path):
    """Golden digest of the benchmark's quick ``cold_scan`` releases (group key,
    noisy and raw value of every query), computed before the render changed."""
    from benchmarks.system import spec, workloads

    summary = workloads.run_lap("cold_scan", spec.DEFAULT_SEED, quick=True, trace=False,
                                gate=True, spawned_at=time.perf_counter(),
                                tmp_root=tmp_path, spans_path=None)
    assert summary["releases_digest"] \
        == "f762933d2b183b17ab5e86b7ac7389ffb18332098dc0a885dc6ab9568db222fe"
    assert summary["exact"]["core.noise.scale_sum"] == 180.0


# ----------------------------------------------------------------- edge cases

class Orbit(Trajectory):
    """A third-party trajectory: scalar ``box_at`` only, and strict about its domain."""

    def __init__(self, period):
        self.period = period

    def box_at(self, elapsed):
        if not 0.0 <= elapsed < self.period:
            raise ValueError("evaluated outside its appearance")
        angle = 2.0 * np.pi * elapsed / self.period
        return BoundingBox(600.0 + 200.0 * float(np.cos(angle)),
                           300.0 + 100.0 * float(np.sin(angle)), 25.0, 50.0)

    def duration_hint(self):
        return self.period


class Drifting(LinearTrajectory):
    """A LinearTrajectory subclass that changes the motion: not a table row."""

    def box_at(self, elapsed):
        return super().box_at(elapsed).translate(7.0, -3.0)

    def boxes_at(self, elapsed):
        return super().boxes_at(elapsed) + np.array([7.0, -3.0, 0.0, 0.0])


def _object(object_id, *appearances, category="person"):
    return SceneObject(object_id=object_id, category=category,
                       appearances=[Appearance(interval=TimeInterval(start, end),
                                               trajectory=trajectory)
                                    for start, end, trajectory in appearances])


class TestRenderEdgeCases:
    LINEAR = LinearTrajectory(start=BoundingBox(100.0, 600.0, 30.0, 60.0),
                              end=BoundingBox(900.0, 100.0, 40.0, 80.0), duration=40.0)
    PARKED = StationaryTrajectory(BoundingBox(-0.0, 200.0, 30.0, 60.0))

    @pytest.mark.parametrize("linear_first", [True, False])
    def test_overlapping_appearances_earlier_wins(self, linear_first):
        moving = (10.0, 50.0, self.LINEAR)
        parked = (30.0, 70.0, self.PARKED)
        appearances = (moving, parked) if linear_first else (parked, moving)
        video = make_simple_video(objects=[_object("twice", *appearances)], duration=120.0)
        index = OracleIndex(video)
        for chunk in chunks_of(video, chunk_duration=60.0):
            assert_matches_oracle(chunk, index)
        batch = chunks_of(video, chunk_duration=60.0)[0].frame_batch()
        assert [scene_object.object_id for scene_object in batch.scene_objects] == ["twice"]
        position = batch.frame_indices.tolist().index(int(40.0 * video.fps))
        winner = appearances[0][2].box_at(40.0 - appearances[0][0])
        assert batch.boxes[0, position].tolist() \
            == [winner.x, winner.y, winner.width, winner.height]
        # The stationary box keeps its -0.0: it is copied, never computed.
        parked_only = batch.frame_indices.tolist().index(int(55.0 * video.fps))
        assert np.signbit(batch.boxes[0, parked_only, 0])

    def test_object_order_across_a_bucket_boundary(self):
        # Buckets are 60 s.  "late" stands first in video.objects but is first
        # seen in bucket 1; "split" is first seen in bucket 0 through an
        # appearance that does not even overlap the window.
        video = make_simple_video(objects=[
            _object("late", (70.0, 100.0, self.LINEAR)),
            _object("early", (20.0, 80.0, self.PARKED)),
            _object("split", (0.0, 10.0, self.PARKED), (75.0, 85.0, self.LINEAR)),
        ], duration=600.0)
        index = OracleIndex(video)
        chunk = Chunk(video=video, index=0, interval=TimeInterval(30.0, 90.0))
        batch = assert_matches_oracle(chunk, index)
        assert [scene_object.object_id for scene_object in batch.scene_objects] \
            == ["early", "split", "late"]
        assert [scene_object.object_id for scene_object
                in video.objects_overlapping(chunk.interval)] == ["early", "split", "late"]
        # The same objects through one bucket come in video.objects order.
        inside = Chunk(video=video, index=0, interval=TimeInterval(75.0, 80.0))
        assert [scene_object.object_id for scene_object
                in assert_matches_oracle(inside, index).scene_objects] \
            == ["late", "early", "split"]

    def test_every_trajectory_kind_in_one_chunk(self):
        box = BoundingBox(300.0, 300.0, 30.0, 60.0)
        waypoints = WaypointTrajectory([
            (0.0, box), (10.0, box.translate(200.0, 0.0)),
            (10.0, box.translate(200.0, 150.0)),        # zero-length segment
            (25.0, box.translate(0.0, 150.0))])
        video = make_simple_video(objects=[
            _object("linear", (5.0, 45.0, self.LINEAR)),
            _object("waypoints", (2.0, 28.0, waypoints)),
            _object("parked", (0.0, 60.0, self.PARKED)),
            _object("orbit", (12.0, 30.0, Orbit(18.0))),
            _object("drifting", (0.0, 40.0, Drifting(start=self.LINEAR.start,
                                                     end=self.LINEAR.end, duration=40.0))),
            _object("both", (0.0, 8.0, self.PARKED), (8.0, 26.0, Orbit(18.0))),
        ], duration=60.0)
        index = OracleIndex(video)
        mask = Mask(name="m", regions=(BoundingBox(0.0, 0.0, 400.0, 400.0),))
        region = Region("east", BoundingBox(350.0, 0.0, 930.0, 720.0))
        for chunk in chunks_of(video, mask=mask) + chunks_of(video):
            batch = assert_matches_oracle(chunk, index)
            assert_matches_oracle(chunk.with_region(region), index)
        assert len(batch.scene_objects) >= 3

    def test_zero_area_box_is_never_hidden(self):
        flat = StationaryTrajectory(BoundingBox(50.0, 50.0, 0.0, 60.0))
        video = make_simple_video(objects=[_object("flat", (0.0, 30.0, flat)),
                                           _object("parked", (0.0, 30.0, self.PARKED))],
                                  duration=30.0)
        everything = Mask(name="all", regions=(BoundingBox(-10.0, 0.0, 1300.0, 720.0),))
        chunk = chunks_of(video, mask=everything)[0]
        batch = assert_matches_oracle(chunk, OracleIndex(video))
        assert [scene_object.object_id for scene_object in batch.scene_objects] == ["flat"]

    def test_empty_chunk_and_single_frame_chunk(self):
        video = make_simple_video(objects=[make_crossing_object("w", start=100.0,
                                                                duration=20.0)])
        index = OracleIndex(video)
        empty, busy = chunks_of(video)[0], chunks_of(video)[3]
        for chunk in (empty, busy):
            for max_frames in (None, 1, 0):
                assert_matches_oracle(chunk, index, max_frames)
        batch = empty.frame_batch()
        assert batch.scene_objects == [] and batch.total_visible() == 0
        assert list(batch.iter_frames())[0].visible == ()
        assert len(busy.frame_batch(max_frames=1)) == 1
        no_objects = make_simple_video(objects=[])
        assert no_objects.frame_batch(TimeInterval(0.0, 30.0)).visible.shape == (0, 60)
        assert no_objects.candidate_objects(TimeInterval(0.0, 30.0)) == []

    def test_every_object_hidden_leaves_an_empty_batch(self):
        video = make_simple_video(objects=[
            make_crossing_object("w1", start=0.0, duration=30.0),
            make_stationary_object("s1", start=0.0, duration=30.0,
                                   box=BoundingBox(10.0, 10.0, 30.0, 60.0))])
        everything = Mask(name="all", regions=(BoundingBox(0.0, 0.0, 1280.0, 720.0),))
        chunk = chunks_of(video, mask=everything)[0]
        batch = assert_matches_oracle(chunk, OracleIndex(video))
        assert batch.scene_objects == [] and batch.boxes.shape == (0, 60, 4)
        detections = SyntheticDetector(DetectorConfig(), seed=1).detect_batch(batch)
        assert detections.num_detections == 0

    def test_add_objects_rebuilds_the_table(self):
        video = make_simple_video(objects=[make_crossing_object("w1", start=0.0,
                                                                duration=50.0)])
        first, second = chunks_of(video)[:2]
        assert [o.object_id for o in first.frame_batch().scene_objects] == ["w1"]
        video.add_objects([make_crossing_object("w2", start=35.0, duration=20.0, x=200.0)])
        batch = assert_matches_oracle(second, OracleIndex(video))
        assert [o.object_id for o in batch.scene_objects] == ["w1", "w2"]


# ------------------------------------------------- pushdown equals post-filter

_CATEGORIES = ("person", "car", "tree", "dog")             # "dog": not detectable
_ATTRIBUTES = ("color", "plate", "light_state", "false_positive")
_LIGHT = CyclicSchedule(phases=(("RED", 7.0), ("GREEN", 5.0)))


@st.composite
def _scenes(draw):
    """A three-bucket (180 s) video: every trajectory kind, objects with two
    appearances (overlapping or apart), intervals that straddle the 60 s
    bucket edges, static and scheduled attributes."""
    def trajectory(kind, duration):
        box = BoundingBox(draw(st.floats(0.0, 1200.0)), draw(st.floats(0.0, 650.0)),
                          30.0, 60.0)
        if kind == "stationary":
            return StationaryTrajectory(box)
        if kind == "linear":
            return LinearTrajectory(start=box, end=box.translate(300.0, -120.0),
                                    duration=duration)
        if kind == "waypoint":
            return WaypointTrajectory([(0.0, box), (duration / 3.0, box.translate(90.0, 0.0)),
                                       (duration, box.translate(0.0, 90.0))])
        return Orbit(duration)

    objects = []
    for number in range(draw(st.sampled_from([0, 2, 6, 12]))):
        appearances = []
        start = draw(st.sampled_from([0.0, 15.0, 40.0, 58.0, 70.0, 115.0]))
        for _ in range(draw(st.integers(1, 2))):
            duration = draw(st.sampled_from([1.5, 4.0, 25.0, 50.0, 90.0]))
            kind = draw(st.sampled_from(["stationary", "linear", "waypoint", "orbit"]))
            appearances.append((start, start + duration, trajectory(kind, duration)))
            start += draw(st.sampled_from([0.5, 1.0, 1.25])) * duration   # 0.5: overlap
        scene_object = _object(f"o{number}", *appearances,
                               category=draw(st.sampled_from(_CATEGORIES)))
        scene_object.attributes.update(draw(st.sampled_from(
            [{}, {"color": "RED"}, {"plate": ("P", number), "color": None}])))
        if draw(st.booleans()):
            scene_object.dynamic_attributes["light_state"] = _LIGHT
        objects.append(scene_object)
    return make_simple_video(objects=objects, duration=180.0)


def _assert_same_detections(narrow, full, attributes):
    for name in ("num_frames", "categories"):
        assert getattr(narrow, name) == getattr(full, name)
    for name in ("frame_positions", "frame_indices", "timestamps", "boxes",
                 "confidences", "category_ids"):
        assert getattr(narrow, name).tobytes() == getattr(full, name).tobytes(), name
    kept = [key for key in full.attributes if attributes is None or key in attributes]
    assert list(narrow.attributes) == kept
    for key in kept:
        (present, values), (full_present, full_values) = narrow.attributes[key], \
            full.attributes[key]
        assert present.tolist() == full_present.tolist()
        assert values[present].tolist() == full_values[present].tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_declared_categories_and_attributes_equal_a_post_filter(data):
    """``frame_batch(categories=S)`` is ``frame_batch()`` minus the rows outside
    ``S`` (same objects, same order, same bits), and detections over it with
    ``attributes=A`` are the full detections minus the columns outside ``A``."""
    video = data.draw(_scenes())
    start = data.draw(st.sampled_from([0.0, 20.0, 45.5, 59.5, 60.0, 110.0]))
    length = data.draw(st.sampled_from([5.0, 30.0, 59.5, 60.0, 61.0, 125.0]))
    mask = data.draw(st.sampled_from([EMPTY_MASK, Mask(name="m", regions=(
        BoundingBox(0.0, 0.0, 500.0, 400.0), BoundingBox(900.0, 300.0, 200.0, 420.0)))]))
    region = data.draw(st.sampled_from(
        [None, Region("east", BoundingBox(400.0, 0.0, 880.0, 720.0))]))
    chunk = Chunk(video=video, index=0, interval=TimeInterval(start, start + length),
                  mask=mask, region=region,
                  sample_period=data.draw(st.sampled_from([None, 1.0, 2.5])))
    max_frames = data.draw(st.sampled_from([None, 1]))
    categories = data.draw(st.one_of(
        st.sampled_from([None, set(), {"bus"}, {"bus", "person"}]),  # "bus": in no scene
        st.sets(st.sampled_from(_CATEGORIES), min_size=1, max_size=2)))
    attributes = data.draw(st.one_of(st.none(), st.lists(
        st.sampled_from(_ATTRIBUTES), max_size=2, unique=True).map(tuple)))

    full = chunk.frame_batch(max_frames=max_frames)
    narrow = chunk.frame_batch(max_frames=max_frames, categories=categories)
    rows = [row for row, scene_object in enumerate(full.scene_objects)
            if categories is None or scene_object.category in categories]
    assert len(narrow) == len(full)
    assert narrow.frame_indices.tobytes() == full.frame_indices.tobytes()
    assert narrow.timestamps.tobytes() == full.timestamps.tobytes()
    assert [id(scene_object) for scene_object in narrow.scene_objects] \
        == [id(full.scene_objects[row]) for row in rows]
    assert narrow.visible.shape == (len(rows), len(full))
    assert narrow.boxes.shape == (len(rows), len(full), 4)
    assert narrow.visible.tobytes() == full.visible[rows].tobytes()
    assert narrow.boxes[narrow.visible].tobytes() == full.boxes[rows][full.visible[rows]].tobytes()

    detector = SyntheticDetector(DetectorConfig(
        miss_rate=0.3, attribute_error_rate=0.2,
        false_positives_per_frame=data.draw(st.sampled_from([0.0, 0.4, 1.3]))), seed=9)
    reference = detector.detect_batch(full, categories=categories)
    _assert_same_detections(
        detector.detect_batch(narrow, categories=categories, attributes=attributes),
        reference, attributes)
    # Defaults mean everything: a full batch, with or without the post-filter.
    _assert_same_detections(detector.detect_batch(narrow, categories=categories),
                            reference, None)


# ---------------------------------------------------------------- count guard

@pytest.mark.parametrize("in_view", [4, 64])
def test_one_mask_call_and_one_region_call_per_chunk(monkeypatch, in_view):
    """The filter pass costs at most one call each, however many objects are
    in view: none when no row is left to filter."""
    calls = {"mask": 0, "region": 0}
    hides_boxes, contains_points = Mask.hides_boxes, Region.contains_points

    def counted_mask(self, boxes):
        calls["mask"] += 1
        return hides_boxes(self, boxes)

    def counted_region(self, xs, ys):
        calls["region"] += 1
        return contains_points(self, xs, ys)

    monkeypatch.setattr(Mask, "hides_boxes", counted_mask)
    monkeypatch.setattr(Region, "contains_points", counted_region)
    video = make_simple_video(objects=[
        make_crossing_object(f"w{n}", start=0.5 * (n % 8), duration=80.0, x=15.0 * n)
        for n in range(in_view)], duration=90.0)
    mask = Mask(name="m", regions=(BoundingBox(0.0, 0.0, 200.0, 720.0),
                                   BoundingBox(900.0, 0.0, 380.0, 720.0)))
    region = Region("west", BoundingBox(0.0, 0.0, 640.0, 720.0))
    masked = chunks_of(video, mask=mask)
    for chunk in masked:
        assert len(chunk.video.objects_overlapping(chunk.interval)) == in_view
        chunk.frame_batch()
    assert calls == {"mask": len(masked), "region": 0}
    for chunk in masked:
        chunk.with_region(region).frame_batch()
    assert calls == {"mask": 2 * len(masked), "region": len(masked)}
    for chunk in chunks_of(video):
        chunk.frame_batch()
        chunk.with_region(region).frame_batch()
    assert calls == {"mask": 2 * len(masked), "region": 2 * len(masked)}
    for chunk in masked:
        batch = chunk.with_region(region).frame_batch(categories={"car"})
        assert len(batch) == len(chunk.frame_batch()) and batch.scene_objects == []
    assert calls == {"mask": 3 * len(masked), "region": 2 * len(masked)}


def test_the_people_counter_masks_only_person_rows(monkeypatch):
    """Exact work of ``count_entering_people.py`` on a fixed campus window: the
    fifteen trees and the traffic light (16 rows x 30 frames in every chunk)
    never reach the mask, and a chunk with no person in view makes no call."""
    handed = []
    hides_boxes = Mask.hides_boxes

    def counted_mask(self, boxes):
        handed.append(len(boxes))
        return hides_boxes(self, boxes)

    monkeypatch.setattr(Mask, "hides_boxes", counted_mask)
    scenario = build_scenario("campus", scale=0.15, duration_hours=0.5, seed=7)
    chunks = chunks_of(scenario.video, mask=scenario.owner_mask, sample_period=1.0)
    people = [sum(scene_object.category == "person" for scene_object
                  in scenario.video.frame_batch(chunk.interval, sample_period=1.0).scene_objects)
              for chunk in chunks]
    for chunk in chunks:
        chunk.frame_batch()
    assert len(handed) == len(chunks) == 60 and sum(handed) == 29340
    assert handed == [30 * (16 + rows) for rows in people]
    del handed[:]
    counter = default_registry().resolve("count_entering_people.py")
    context = ExecutionContext(camera="campus", fps=scenario.video.fps,
                               detector_config=scenario.detector_config,
                               tracker_config=scenario.tracker_config)
    for chunk in chunks:
        counter.fresh_instance().process(chunk, context)
    assert handed == [30 * rows for rows in people if rows]
    assert len(handed) == 17 and sum(handed) == 540


# -------------------------------------------------------------------- pickles

class TestFootagePickles:
    def test_pickle_bytes_do_not_depend_on_render_history(self):
        scenario = build_scenario("campus", scale=0.15, duration_hours=0.5, seed=7)
        video = scenario.video
        video.content_fingerprint()
        fresh = pickle.dumps(video)
        for chunk in chunks_of(video, mask=scenario.owner_mask, sample_period=1.0)[:30]:
            chunk.frame_batch()
        video.objects_overlapping(TimeInterval(0.0, 300.0))
        assert video._appearance_table is not None
        assert pickle.dumps(video) == fresh
        received = pickle.loads(fresh)
        assert received._appearance_table is None
        # The fingerprint memo travels (shards rely on it); the table is rebuilt.
        assert received._content_fingerprint == video.content_fingerprint()
        index = OracleIndex(received)
        for chunk in chunks_of(received, mask=scenario.owner_mask, sample_period=1.0)[:3]:
            assert_matches_oracle(chunk, index)

    def test_process_broadcast_bytes_do_not_depend_on_serial_history(self):
        scenario = build_scenario("campus", scale=0.15, duration_hours=0.5, seed=7)

        def query(begin, end):
            return parse_query(
                f"SPLIT campus BEGIN {begin} END {end} BY TIME 30sec STRIDE 0sec "
                "INTO chunks;\n"
                "PROCESS chunks USING count_entering_people.py TIMEOUT 5sec "
                'PRODUCING 5 ROWS WITH SCHEMA (kind:STRING="", dy:NUMBER=0) INTO rows;\n'
                "SELECT COUNT(*) FROM rows CONSUMING 1;")

        def run(engine, begin, end):
            system.engine = engine
            return [release.raw_value_unsafe for release
                    in system.execute(query(begin, end), charge_budget=False).releases]

        with ProcessPoolEngine(max_workers=2) as pool:
            system = PrividSystem(seed=3, engine=pool, cache=None)
            register_scenario_camera(system, scenario, epsilon_budget=100.0,
                                     sample_period=1.0)
            before = run(pool, 0, 240)
            sent_before = pool.dispatch_stats.broadcast_bytes
            # In-process history: renders footage not seen so far, and the
            # sandbox memoises on the registered executable.
            serial = run(SerialEngine(), 0, 240)
            run(SerialEngine(), 240, 1500)
            pool.reset_dispatch_stats()
            after = run(pool, 0, 240)
            # None of it reached the bytes: the repeat finds its footage part
            # and its manifest already published ...
            assert pool.dispatch_stats.broadcast_bytes == 0
            assert pool.dispatch_stats.broadcast_reuses == 2
            with ProcessPoolEngine(max_workers=2) as late:
                again = run(late, 0, 240)
                # ... and an engine that starts after it ships what the
                # first one shipped.
                assert late.dispatch_stats.broadcast_bytes == sent_before > 0
        assert serial == before == after == again
