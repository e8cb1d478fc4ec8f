"""Columnar post-detection dataflow: parity, equivalence and IPC budgets.

Covers the array-native pipeline past detection:

* the batch tracker core (``IoUTracker.step_batch``) must produce
  bit-identical tracks to the scalar per-frame oracle
  (``tests/scalar_oracle.py``) on **every** scenario
  scene — same ids, same observation sequences (boxes, confidences,
  attributes), same majority attributes, same fragmentation under miss gaps —
  and on generated detection histories (threshold 0.0, confidence ties, two
  categories matched across, shuffled storage, zero-area boxes);
* whole queries answered through the batch tracker must release
  exactly the same values as the scalar oracle (a test-local scalar
  ``_track_chunk`` patched in — the oracle lives in the tests, not behind a
  runtime switch), with no chunk of either run a sandbox fallback;
* that oracle is also the **no-pushdown reference**: it renders every
  category and draws every attribute whatever the executable declares, and
  every bundled executable must emit the same rows either way on every
  scenario scene — an executable reading a key it did not declare fails here;
* the sandbox's row contract — at most ``max_rows`` schema-coerced rows,
  stamped with ``chunk`` and ``region``, one default row on a crash or a
  non-sequence output — holds for any executable output, and the
  list-per-column ``Table`` stores dict rows value for value
  (property-based);
* COUNT, a clamped SUM and a chunk-bucket GROUP BY over a schema-built table
  release what a dict-row reference computes, keys compared by ``repr``
  (property-based);
* the process engine's spec dispatch must keep per-dispatch IPC payloads
  within a fixed byte budget regardless of scene size, while producing
  byte-identical outcomes.
"""

import functools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sandbox.executables as executables_module
from repro.core import PrividSystem, SerialEngine, ShardedEngine
from repro.core.cache import DiskChunkStore
from repro.core.policy import PrivacyPolicy
from repro.cv.detector import DetectionBatch, DetectorConfig, SyntheticDetector
from repro.cv.tracker import IoUTracker, TrackerConfig
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query
from repro.relational.aggregates import compute_releases, planned_releases
from repro.relational.plan import PlanContext
from repro.relational.sensitivity import SensitivityInfo
from repro.relational.table import (
    CHUNK_COLUMN,
    REGION_COLUMN,
    ColumnSpec,
    DataType,
    Schema,
    Table,
)
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.scene.objects import Appearance, SceneObject
from repro.scene.scenarios import SCENARIO_NAMES, build_scenario
from repro.scene.trajectory import LinearTrajectory
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec
from repro.video.geometry import BoundingBox
from repro.video.masking import EMPTY_MASK
from repro.video.regions import BoundaryType
from repro.video.video import SyntheticVideo

from tests.conftest import grid_region_scheme, make_crossing_object, make_simple_video, \
    split_interval
from tests.scalar_oracle import batch_tracks, scalar_tracks, to_track


def _scenario_video(name):
    duration_hours = 0.1
    if name in ("campus", "highway", "urban"):
        scenario = build_scenario(name, scale=0.2, duration_hours=duration_hours)
    else:
        scenario = build_scenario(name, duration_hours=duration_hours)
    return scenario


def _tracks_both_ways(video, detector, tracker_config, *, chunk_duration=30.0,
                      window=None, categories=None):
    window = window or TimeInterval(0.0, min(video.duration, 360.0))
    spec = ChunkSpec(window=window, chunk_duration=chunk_duration)
    pairs = []
    for chunk in split_interval(video, spec):
        detections = detector.detect_batch(chunk.frame_batch(),
                                           frame_width=video.width,
                                           frame_height=video.height,
                                           categories=categories)
        batched = IoUTracker(tracker_config)
        batched.step_batch(detections)
        pairs.append((scalar_tracks(tracker_config, [detections]), batch_tracks(batched)))
    return pairs


class TestTrackerParityAcrossScenes:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scalar_and_batch_tracks_identical_on_scenario(self, name):
        """Every scenario scene: same tracks bit for bit, both cores."""
        scenario = _scenario_video(name)
        video = scenario.video
        detector = SyntheticDetector(scenario.detector_config, seed=3)
        total_tracks = 0
        for scalar_tracks, batch_tracks in _tracks_both_ways(
                video, detector, scenario.tracker_config):
            # Track.__eq__ compares ids, categories, miss counters and the
            # full observation sequences (timestamps, frame indices, boxes,
            # confidences, attributes) — exact equality is the contract.
            assert scalar_tracks == batch_tracks
            total_tracks += len(scalar_tracks)
            for scalar_track, batch_track in zip(scalar_tracks, batch_tracks):
                for key in ("color", "plate", "speed_kmh", "light_state",
                            "has_leaves"):
                    assert scalar_track.majority_attribute(key) \
                        == batch_track.majority_attribute(key)
        assert total_tracks > 0 or name == "uav"  # sparse scenes may be empty

    def test_fragmentation_identical_under_miss_gaps(self):
        """High miss rates fragment tracks; both cores fragment identically."""
        video = make_simple_video(objects=[
            make_crossing_object(f"walker-{index}", start=10.0 * index,
                                 duration=80.0, x=200.0 + 90.0 * index)
            for index in range(5)
        ], duration=240.0)
        detector = SyntheticDetector(DetectorConfig(miss_rate=0.55,
                                                    position_jitter=4.0), seed=11)
        config = TrackerConfig(max_age=1, min_hits=1, use_motion_prediction=False)
        fragments_scalar = fragments_batch = 0
        for scalar_tracks, batch_tracks in _tracks_both_ways(
                video, detector, config, window=TimeInterval(0.0, 240.0)):
            assert scalar_tracks == batch_tracks
            fragments_scalar += len(scalar_tracks)
            fragments_batch += len(batch_tracks)
        assert fragments_scalar == fragments_batch
        # The miss gaps must actually have fragmented the 5 ground-truth
        # walkers, otherwise this test exercises nothing.
        assert fragments_scalar > 5

    def test_track_views_match_materialised_tracks(self):
        video = make_simple_video(objects=[
            make_crossing_object("walker-1", start=20.0, duration=60.0,
                                 attributes={"color": "RED", "plate": "XYZ"}),
        ], duration=120.0)
        detector = SyntheticDetector(DetectorConfig(miss_rate=0.2), seed=5)
        spec = ChunkSpec(window=TimeInterval(0.0, 120.0), chunk_duration=60.0)
        for chunk in split_interval(video, spec):
            detections = detector.detect_batch(chunk.frame_batch(),
                                               frame_width=video.width,
                                               frame_height=video.height)
            tracker = IoUTracker(TrackerConfig(min_hits=1))
            tracker.step_batch(detections)
            for view in tracker.finalize_views():
                track = to_track(view)
                assert view.track_id == track.track_id
                assert view.category == track.category
                assert view.hits == track.hits
                assert view.first_timestamp == track.first_timestamp
                assert view.last_timestamp == track.last_timestamp
                assert view.duration == track.duration
                assert view.first_box == track.first_box
                assert view.last_box == track.last_box
                assert view.attribute_values("color") \
                    == track.attribute_values("color")
                assert view.majority_attribute("plate") \
                    == track.majority_attribute("plate")


def _chunk_batches(video, detector, *, duration, chunk_duration):
    spec = ChunkSpec(window=TimeInterval(0.0, duration),
                     chunk_duration=chunk_duration)
    return [detector.detect_batch(chunk.frame_batch(),
                                  frame_width=video.width,
                                  frame_height=video.height)
            for chunk in split_interval(video, spec)]


def _batch_tracks(config, batches):
    tracker = IoUTracker(config)
    for batch in batches:
        tracker.step_batch(batch)
    return batch_tracks(tracker)


class TestTrackerMultiBatch:
    """One tracker fed several batches: state carried across ``step_batch``.

    These drive the cross-batch lifecycle — a stream of chunks, all-empty
    batches draining the active window, mass expiry followed by a second
    wave, a track dying before its velocity ring fills — and hold the core
    to the scalar oracle bit for bit.
    """

    def _wave_video(self, *, first=6, second=0, gap_start=120.0,
                    duration=300.0):
        objects = [make_crossing_object(f"a{index}", start=4.0 * index,
                                        duration=50.0, x=120.0 + 40.0 * index)
                   for index in range(first)]
        objects += [make_crossing_object(f"b{index}", start=gap_start + 4.0 * index,
                                         duration=50.0, x=150.0 + 40.0 * index)
                    for index in range(second)]
        return make_simple_video(objects=objects, duration=duration)

    @pytest.mark.parametrize("miss_rate, jitter, seed, chunk_duration, max_age", [
        (0.3, 3.0, 9, 60.0, 2),
        (0.4, 4.0, 13, 30.0, 1),
    ])
    def test_multi_batch_stream_matches_scalar(self, miss_rate, jitter, seed,
                                               chunk_duration, max_age):
        video = self._wave_video(first=6, duration=240.0)
        detector = SyntheticDetector(DetectorConfig(miss_rate=miss_rate,
                                                    position_jitter=jitter),
                                     seed=seed)
        batches = _chunk_batches(video, detector, duration=240.0,
                                 chunk_duration=chunk_duration)
        config = TrackerConfig(max_age=max_age, min_hits=1)
        tracks = _batch_tracks(config, batches)
        assert tracks == scalar_tracks(config, batches)
        assert len(tracks) > 0

    def test_zero_candidate_batches_age_and_expire_tracks(self):
        # Batches with no detections at all (empty stretches of footage)
        # still advance time: actives age each frame and expire on
        # schedule, identically to the scalar oracle stepping empty frames.
        video = self._wave_video(first=3, second=3, gap_start=180.0,
                                 duration=300.0)
        detector = SyntheticDetector(DetectorConfig(miss_rate=0.2), seed=7)
        batches = _chunk_batches(video, detector, duration=300.0,
                                 chunk_duration=30.0)
        assert any(batch.num_detections == 0 for batch in batches)
        config = TrackerConfig(max_age=2, min_hits=1)
        tracker = IoUTracker(config)
        saw_empty_active = False
        for batch in batches:
            tracker.step_batch(batch)
            if batch.num_detections == 0:
                saw_empty_active = len(tracker._core.active) == 0
        assert saw_empty_active  # the gap really drained the active window
        assert batch_tracks(tracker) == scalar_tracks(config, batches)

    def test_mass_expiry_then_second_wave(self):
        # Wave one opens more than 16 tracks, the gap expires every active
        # one, wave two opens as many again on the same tracker.
        video = self._wave_video(first=20, second=20, gap_start=200.0,
                                 duration=380.0)
        detector = SyntheticDetector(DetectorConfig(miss_rate=0.3,
                                                    position_jitter=3.0), seed=21)
        batches = _chunk_batches(video, detector, duration=380.0,
                                 chunk_duration=40.0)
        config = TrackerConfig(max_age=1, min_hits=1)
        tracker = IoUTracker(config)
        for batch in batches:
            tracker.step_batch(batch)
        core = tracker._core
        assert len(core.track_id) > 16
        assert len(core.finished) + len(core.active) == len(core.track_id)
        assert batch_tracks(tracker) == scalar_tracks(config, batches)

    def test_track_death_before_ring_fills(self):
        video = make_simple_video(objects=[
            make_crossing_object("brief", start=10.0, duration=2.0)],
            duration=60.0)
        detector = SyntheticDetector(DetectorConfig(), seed=3)
        batches = _chunk_batches(video, detector, duration=60.0,
                                 chunk_duration=60.0)
        config = TrackerConfig(max_age=0, min_hits=1,
                               use_motion_prediction=False)
        tracker = IoUTracker(config)
        for batch in batches:
            tracker.step_batch(batch)
        core = tracker._core
        assert core.finished, "the brief track must have expired"
        for row in core.finished:
            assert 0 < core.hit_count(row) < 5  # genuinely mid-ring
        assert batch_tracks(tracker) == scalar_tracks(config, batches)


def _detection_batch(num_frames, first_frame, stride, rows, num_categories):
    """A DetectionBatch from ``(position, x, y, w, h, confidence, category)`` rows."""
    table = np.array(rows, dtype=np.float64).reshape(-1, 7)
    positions = table[:, 0].astype(np.int64)
    frame_indices = first_frame + stride * positions
    return DetectionBatch(
        num_frames=num_frames,
        frame_positions=positions,
        frame_indices=frame_indices,
        timestamps=frame_indices / 2.0,
        boxes=table[:, 1:5],
        confidences=table[:, 5],
        category_ids=table[:, 6].astype(np.int64),
        categories=("person", "car")[:num_categories],
    )


@st.composite
def _detection_streams(draw):
    """1-3 batches of 0-8 frames and 0-14 detections on a small grid.

    Coordinates and sizes come from a handful of values so boxes overlap,
    touch, nest and have zero area; confidences tie; storage order is
    frame-major or shuffled; frame indices never go back across batches.
    """
    num_categories = draw(st.integers(1, 2))
    stride = draw(st.integers(1, 2))
    coordinate = st.sampled_from([0.0, 10.0, 20.0, 30.0])
    size = st.sampled_from([0.0, 10.0, 20.0])
    batches = []
    first_frame = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 3))):
        num_frames = draw(st.integers(0, 8))
        rows = draw(st.lists(
            st.tuples(st.integers(0, num_frames - 1), coordinate, coordinate,
                      size, size, st.sampled_from([0.5, 0.7, 0.9]),
                      st.integers(0, num_categories - 1)),
            max_size=14)) if num_frames else []
        if draw(st.booleans()):
            rows = sorted(rows, key=lambda row: row[0])
        batches.append(_detection_batch(num_frames, first_frame, stride, rows,
                                        num_categories))
        # The next batch may start on the frame index this one ended on.
        first_frame += stride * max(0, num_frames - 1) + draw(st.integers(0, 2))
    return batches


class TestTrackerParityOnGeneratedHistories:
    @settings(max_examples=300, deadline=None)
    @given(batches=_detection_streams(),
           max_age=st.integers(0, 3),
           iou_threshold=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
           per_category=st.booleans(),
           use_motion_prediction=st.booleans())
    def test_batch_core_matches_scalar_oracle(self, batches, max_age, iou_threshold,
                                            per_category, use_motion_prediction):
        config = TrackerConfig(max_age=max_age, min_hits=1,
                               iou_threshold=iou_threshold,
                               per_category=per_category,
                               use_motion_prediction=use_motion_prediction)
        assert _batch_tracks(config, batches) == scalar_tracks(config, batches)


class TestBatchTimeOrder:
    """``step_batch`` rejects a batch that starts before frames already seen.

    The scalar oracle never predicts backwards (``frames_ahead > 0``)
    while the batch core extrapolates by whatever gap it is given, so such a
    stream would link boxes wrongly without an error.
    """

    def _batch(self, first_frame):
        return _detection_batch(2, first_frame, 1, [
            (0, 10.0, 10.0, 20.0, 20.0, 0.9, 0),
            (1, 14.0, 10.0, 20.0, 20.0, 0.9, 0)], 1)

    def test_batch_restarting_before_consumed_frames_is_rejected(self):
        tracker = IoUTracker(TrackerConfig(max_age=0, min_hits=1, iou_threshold=0.1))
        tracker.step_batch(self._batch(0))
        tracker.step_batch(self._batch(2))
        with pytest.raises(ValueError, match="time order"):
            tracker.step_batch(self._batch(0))

    def test_stream_in_order_is_accepted(self):
        config = TrackerConfig(max_age=5, min_hits=1, iou_threshold=0.1)
        # An empty batch consumes no frame index, and a batch may start at
        # the frame index the previous one ended on.
        batches = [self._batch(0), self._batch(2),
                   _detection_batch(3, 4, 1, [], 1), self._batch(3)]
        assert _batch_tracks(config, batches) == scalar_tracks(config, batches)


def _no_pushdown_detect_chunk(chunk, context, *, categories=None, attributes=None,
                              max_frames=None):
    """``executables._detect_chunk`` without its declarations (the reference):
    every category is rendered, masked and region-tested, every attribute is
    drawn, and ``categories`` only filters the detections afterwards."""
    return context.detector().detect_batch(
        chunk.frame_batch(max_frames=max_frames), frame_width=chunk.video.width,
        frame_height=chunk.video.height, categories=categories)


def _scalar_track_chunk(chunk, context, *, categories=None, attributes=None):
    """``executables._track_chunk`` on the scalar oracle over the no-pushdown
    reference (the whole-query oracle)."""
    detections = _no_pushdown_detect_chunk(chunk, context, categories=categories)
    return scalar_tracks(context.tracker_config, [detections])


@pytest.fixture
def sandbox_outcomes(monkeypatch):
    """Counts chunks and sandbox fallbacks: the sandbox turns a crashing
    executable (or a crashing oracle patched into one) into default rows, so
    a comparison of release values must first know that nothing crashed."""
    counted = {"chunks": 0, "fallbacks": 0}
    run_chunk_outcome = SandboxRunner.run_chunk_outcome

    def counting(self, chunk, context, **kwargs):
        outcome = run_chunk_outcome(self, chunk, context, **kwargs)
        counted["chunks"] += 1
        counted["fallbacks"] += outcome.fallback
        return outcome

    monkeypatch.setattr(SandboxRunner, "run_chunk_outcome", counting)
    return counted


class TestQueryReleaseParity:
    def _count_query(self, duration):
        return (QueryBuilder("parity")
                .split("cam", begin=0.0, end=duration, chunk_duration=30.0,
                       into="chunks")
                .process("chunks", executable="count_entering_people.py", max_rows=5,
                         schema=[("kind", "STRING", ""), ("dy", "NUMBER", 0.0)],
                         into="people")
                .select_count(table="people", bucket_seconds=120.0, epsilon=1.0)
                .build())

    def _releases(self, scenario, duration):
        system = PrividSystem(seed=77)
        system.register_camera("cam", scenario.video,
                               policy=PrivacyPolicy(rho=60.0, k_segments=2),
                               epsilon_budget=100.0,
                               detector_config=scenario.detector_config,
                               tracker_config=scenario.tracker_config)
        result = system.execute(self._count_query(duration), charge_budget=False)
        return result.raw_series_unsafe()

    @pytest.mark.parametrize("name", ["campus", "urban"])
    def test_batch_and_scalar_paths_release_identical_values(self, name, monkeypatch,
                                                             sandbox_outcomes):
        scenario = _scenario_video(name)
        batch_releases = self._releases(scenario, scenario.video.duration)
        chunks = sandbox_outcomes["chunks"]
        monkeypatch.setattr(executables_module, "_track_chunk", _scalar_track_chunk)
        scalar_releases = self._releases(scenario, scenario.video.duration)
        # A crash inside the sandbox is a crash, not a difference of values.
        assert sandbox_outcomes == {"chunks": 2 * chunks, "fallbacks": 0} and chunks > 0
        assert batch_releases == scalar_releases
        assert any(value != 0.0 for _, value in batch_releases)

    def test_a_crashing_oracle_is_seen_as_fallbacks(self, monkeypatch, sandbox_outcomes):
        """The guard above fires: an oracle with a closed keyword signature
        raises inside the sandbox and every chunk becomes a default row."""
        def closed_signature(chunk, context, *, categories=None):
            raise AssertionError("unreachable: called with attributes=")

        monkeypatch.setattr(executables_module, "_track_chunk", closed_signature)
        self._releases(_scenario_video("campus"), 60.0)
        assert sandbox_outcomes == {"chunks": 2, "fallbacks": 2}


#: The five bundled detect-and-emit executables (the counter for both of its
#: registered categories; a displacement small enough to match at this scale).
_BUNDLED = (
    executables_module.EnteringObjectCounter(category="person"),
    executables_module.EnteringObjectCounter(category="car"),
    executables_module.DirectionalCrossingCounter(direction="north", min_displacement=20.0),
    executables_module.UniqueVehicleReporter(),
    executables_module.TreeLeafClassifier(),
    executables_module.RedLightObserver(),
)


class TestExecutableDeclarations:
    def test_rows_equal_the_no_pushdown_reference_on_every_scenario(self, monkeypatch):
        """Each executable tells the render and the detector what it reads;
        its rows must be those of the run that renders and draws everything,
        chunk by chunk (raw rows: a crash raises here instead of falling back)."""
        def rows(chunks, context):
            return [[list(executable.fresh_instance().process(chunk, context))
                     for chunk in chunks] for executable in _BUNDLED]

        emitted = set()
        for name in SCENARIO_NAMES:
            scenario = _scenario_video(name)
            video = scenario.video
            context = ExecutionContext(camera=name, fps=video.fps,
                                       detector_config=scenario.detector_config,
                                       tracker_config=scenario.tracker_config,
                                       detector_seed=5)
            mask = scenario.owner_mask or EMPTY_MASK
            # Short full-rate chunks inside one 60 s render bucket, and one
            # long sampled chunk across six (a whole red phase fits in it).
            chunks = split_interval(video, ChunkSpec(TimeInterval(0.0, 240.0), 30.0),
                                    mask=mask)
            chunks += split_interval(video, ChunkSpec(TimeInterval(0.0, 360.0), 360.0,
                                                      sample_period=0.5), mask=mask)
            with monkeypatch.context() as patched:
                declared = rows(chunks, context)
                patched.setattr(executables_module, "_detect_chunk",
                                _no_pushdown_detect_chunk)
                assert declared == rows(chunks, context), name
            emitted.update(index for index, per_chunk in enumerate(declared)
                           if any(per_chunk))
        # Equal because empty proves nothing: every executable emitted somewhere.
        assert emitted == set(range(len(_BUNDLED)))


def _reference_coerced_rows(schema, raw_rows, max_rows, chunk_timestamp, region):
    """The sandbox's row semantics, written out: truncate, coerce, stamp."""
    rows = []
    for raw in list(raw_rows)[:max_rows]:
        row = schema.coerce_row(raw)
        row[CHUNK_COLUMN] = chunk_timestamp
        row[REGION_COLUMN] = region
        rows.append(row)
    return rows


_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
)


_NUMPY_VALUES = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(np.int64),
    st.integers(min_value=0, max_value=2**40).map(np.uint64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.booleans().map(np.bool_),
)

#: A row item: a dict over declared, missing and extra keys (values plain or
#: numpy scalars), or something that is not a dict at all.
_KEYS = st.sampled_from(["alpha", "beta", "gamma", "delta", "extra"])
_DICTS = st.dictionaries(_KEYS, st.one_of(_VALUES, _NUMPY_VALUES), max_size=5)
_ITEMS = st.one_of(
    _DICTS, _DICTS,  # half the items are dicts
    _VALUES,
    st.lists(_VALUES, max_size=2),
)


class _ScriptedExecutable(executables_module.ProcessExecutable):
    """Returns its drawn output, or raises it when it is an exception."""

    name = "scripted"

    def __init__(self, output):
        self.output = output

    def process(self, chunk, context):
        if isinstance(self.output, Exception):
            raise self.output
        return self.output


@functools.cache
def _regioned_chunk():
    """One chunk that starts at 30 s and carries a region name."""
    video = make_simple_video(objects=[], duration=60.0)
    return split_interval(video, ChunkSpec(window=TimeInterval(30.0, 60.0),
                                           chunk_duration=30.0),
                          region_scheme=grid_region_scheme(
                              video.width, video.height, 1, 2,
                              boundary=BoundaryType.HARD))[1]


class TestSandboxRowContract:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_run_chunk_outcome_keeps_the_row_contract(self, data):
        """Whatever the executable returns or raises, the sandbox yields at
        most ``max_rows`` schema-coerced rows keyed in schema order, then
        ``chunk`` and ``region``; only a raise or a non-sequence output is a
        fallback (one default row)."""
        names = data.draw(st.lists(
            st.sampled_from(["alpha", "beta", "gamma", "delta"]),
            min_size=1, max_size=3, unique=True))
        specs = tuple(
            ColumnSpec(name,
                       data.draw(st.sampled_from([DataType.NUMBER, DataType.STRING])),
                       data.draw(st.one_of(st.floats(allow_nan=False,
                                                     allow_infinity=False),
                                           st.text(max_size=4), st.none())))
            for name in names)
        schema = Schema(columns=specs)
        max_rows = data.draw(st.integers(min_value=1, max_value=40))
        shape = data.draw(st.sampled_from(["list", "tuple", "other", "raise"]))
        items = data.draw(st.lists(_ITEMS, max_size=40))
        output = {"list": items, "tuple": tuple(items),
                  "other": data.draw(st.one_of(st.none(), st.dictionaries(_KEYS, _VALUES),
                                               st.text(max_size=4), st.integers(),
                                               st.sets(st.integers(), max_size=3))),
                  "raise": RuntimeError("executable crashed")}[shape]
        chunk = _regioned_chunk()
        runner = SandboxRunner(_ScriptedExecutable(output), schema, max_rows=max_rows,
                               timeout_seconds=30.0)
        outcome = runner.run_chunk_outcome(chunk, ExecutionContext(camera="cam", fps=2.0))
        fallback = shape in ("other", "raise")
        assert outcome.fallback is fallback
        expected = _reference_coerced_rows(schema, [None] if fallback else items,
                                           max_rows, 30.0, "r0c1")
        # By repr: the text strategy can draw "NAN", which a NUMBER column
        # coerces to nan, and nan != nan.
        assert repr(outcome.rows) == repr(expected)
        assert type(outcome.rows) is list
        assert all(list(row) == [*names, CHUNK_COLUMN, REGION_COLUMN]
                   for row in outcome.rows)

    def test_disk_entry_bytes_keep_the_row_key_order(self, tmp_path):
        """A disk entry is the JSON of the sandbox's rows, so their key order
        (schema order, ``chunk``, ``region``) is part of the stored bytes, even
        when the executable emits keys in another order or a non-dict item."""
        schema = Schema(columns=(ColumnSpec("plate", DataType.STRING, ""),
                                 ColumnSpec("speed", DataType.NUMBER, 0.0)))
        output = [{"extra": 1, "speed": np.float32(2.5), "plate": "P1"}, 7]
        runner = SandboxRunner(_ScriptedExecutable(output), schema, max_rows=5,
                               timeout_seconds=30.0)
        outcome = runner.run_chunk_outcome(_regioned_chunk(),
                                           ExecutionContext(camera="cam", fps=2.0))
        assert outcome.fallback is False
        store = DiskChunkStore(tmp_path)
        assert store.put("k" * 64, outcome.rows)
        (entry,) = tmp_path.glob("*.json")
        assert entry.read_bytes() == (
            b'{"format":1,"rows":['
            b'{"plate":"P1","speed":2.5,"chunk":30.0,"region":"r0c1"},'
            b'{"plate":"","speed":0.0,"chunk":30.0,"region":"r0c1"}]}')
        assert store.get("k" * 64) == outcome.rows


#: What an untrusted executable can leave in a NUMBER column of a hand-fed
#: table: finite floats, a negative zero, floats past float64's exact
#: integers, None, ints and strings.
_NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.floats(min_value=2.0 ** 53, max_value=1e300),
    st.none(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(max_size=4),
)

#: The SELECT shapes the property draws: COUNT, a clamped SUM, and COUNT
#: grouped by a chunk bucket; ``{width}`` is filled with a float literal.
_SELECTS = (
    "SELECT COUNT(*) FROM rows CONSUMING 1;",
    "SELECT SUM(range(v, {low}, {high})) FROM rows CONSUMING 1;",
    "SELECT COUNT(*) FROM rows GROUP BY bin(chunk, {width}) CONSUMING 1;",
    "SELECT COUNT(*) FROM rows GROUP BY hour(chunk) CONSUMING 1;",
)


def _reference_releases(rows, function, low, high, width, keys):
    """``{repr(key): raw value}`` of COUNT(*) or SUM(range(v, low, high)) over
    a list of row dicts, grouped by ``bin(chunk, width)`` over ``keys``
    (``width`` None: one release keyed None), per Appendix D."""
    groups = {}
    for row in rows:
        key = None if width is None else math.floor(row[CHUNK_COLUMN] / width) * width
        groups.setdefault(key, []).append(row)
    released = {}
    for key in keys:
        members = groups.get(key, [])
        if function == "COUNT":
            released[repr(key)] = float(len(members))
            continue
        clamped = []
        for row in members:
            try:
                value = float(row["v"])
            except (TypeError, ValueError):
                value = low
            clamped.append(low if math.isnan(value) else min(high, max(low, value)))
        released[repr(key)] = float(sum(clamped))
    return released


class TestRelationalReference:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_releases_equal_the_dict_row_reference(self, data):
        schema = Schema(columns=(ColumnSpec("v", DataType.NUMBER, 0.0),
                                 ColumnSpec("s", DataType.STRING, "")))
        rows = data.draw(st.lists(st.fixed_dictionaries({
            "v": _NUMBER_CELLS,
            "s": st.text(max_size=4),
            CHUNK_COLUMN: st.integers(min_value=0, max_value=400).map(lambda i: i * 7.5),
            REGION_COLUMN: st.sampled_from(["", "r0c1"]),
        }), max_size=12))
        table = Table.from_schema(schema, name="rows")
        table.extend(rows)
        shape = data.draw(st.sampled_from(_SELECTS))
        low = data.draw(st.integers(min_value=0, max_value=1000)) / 10
        high = low + data.draw(st.integers(min_value=0, max_value=1000)) / 10
        width = data.draw(st.sampled_from([1.0, 7.5, 60.0, 90.25]))
        query = parse_query(
            "SPLIT cam BEGIN 0 END 3600 BY TIME 30sec STRIDE 0sec INTO chunks;\n"
            "PROCESS chunks USING counter TIMEOUT 5sec PRODUCING 5 ROWS "
            'WITH SCHEMA (v:NUMBER=0, s:STRING="") INTO rows;\n'
            + shape.format(low=repr(low), high=repr(high), width=repr(width)))
        (select,) = query.selects
        group = select.group_by
        if group is None:
            width, keys = None, [None]
        else:
            width = group.expressions[0][1].width
            present = list(dict.fromkeys(math.floor(row[CHUNK_COLUMN] / width) * width
                                         for row in rows))
            keys = present + [max(present, default=0.0) + width]
            group = replace(group, expected_keys=tuple(keys))
        info = SensitivityInfo(delta=1.0, ranges={"v": (low, high)})
        source = select.source.evaluate(PlanContext(tables={"rows": table}))
        releases = compute_releases(
            source, select.aggregation,
            planned_releases(select.aggregation, info, group), group)
        assert {repr(release.group_key): release.raw_value for release in releases} \
            == _reference_releases(rows, select.aggregation.function, low, high, width, keys)
        for name in ("v", "s", CHUNK_COLUMN, REGION_COLUMN):
            assert table.column_values(name) == [row[name] for row in rows]


class TestColumnarTableEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_table_round_trips_arbitrary_rows_like_dict_storage(self, data):
        names = data.draw(st.lists(
            st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4,
            unique=True))
        rows = [{name: data.draw(_VALUES) for name in names}
                for _ in range(data.draw(st.integers(min_value=0, max_value=8)))]
        table = Table(columns=tuple(names), rows=[dict(row) for row in rows])
        assert len(table) == len(rows)
        assert table.rows == rows
        assert list(table) == rows
        for name in names:
            assert table.column_values(name) == [row[name] for row in rows]

    def test_schema_table_stores_coerced_rows(self):
        schema = Schema(columns=(ColumnSpec("value", DataType.NUMBER, 0.0),
                                 ColumnSpec("label", DataType.STRING, "")))
        table = Table.from_schema(schema, name="t")
        table.extend([{**schema.coerce_row(raw), CHUNK_COLUMN: 0.0, REGION_COLUMN: ""}
                      for raw in ({"value": 1.5, "label": "x"}, {"value": 2.5},
                                  {"value": None, "label": "y"})])
        # None coerced to the declared default before storage.
        assert table.column_values("value") == [1.5, 2.5, 0.0]
        assert table.column_values("label") == ["x", "", "y"]

    def test_number_column_stores_a_non_float_value_untouched(self):
        schema = Schema(columns=(ColumnSpec("value", DataType.NUMBER, 0.0),))
        table = Table.from_schema(schema)
        table.extend([{"value": 1.0, "chunk": 0.0, "region": ""}])
        table.extend([{"value": "rogue", "chunk": 0.0, "region": ""}])
        assert table.column_values("value") == [1.0, "rogue"]


class TestBooleanCoercionSymmetry:
    def test_number_and_string_bool_coercion_are_symmetric(self):
        assert DataType.NUMBER.coerce(True, 0.0) == 1.0
        assert DataType.NUMBER.coerce(False, 0.0) == 0.0
        assert DataType.STRING.coerce(True, "") == "true"
        assert DataType.STRING.coerce(False, "") == "false"


def _heavy_video(num_walkers: int = 500) -> SyntheticVideo:
    video = SyntheticVideo(name="heavy", fps=2.0, width=1280.0, height=720.0,
                           duration=240.0)
    video.add_objects([
        SceneObject(
            object_id=f"walker-{index}",
            category="person",
            appearances=[Appearance(
                interval=TimeInterval(float(index % 200), float(index % 200) + 40.0),
                trajectory=LinearTrajectory(
                    start=BoundingBox(50.0 + index % 1000, 650.0, 30.0, 60.0),
                    end=BoundingBox(50.0 + index % 1000, 10.0, 30.0, 60.0),
                    duration=40.0),
            )],
            attributes={"color": "RED", "plate": f"P{index:05d}"},
        )
        for index in range(num_walkers)
    ])
    return video


PERSON_SCHEMA = Schema(columns=(ColumnSpec("kind", DataType.STRING, ""),
                                ColumnSpec("dy", DataType.NUMBER, 0.0)))

#: Per-dispatch task frame ceiling for ``process:N`` (pipe shards): a
#: payload ref plus a few ints/floats per chunk — scene size must not leak in.
DISPATCH_PAYLOAD_BUDGET_BYTES = 4096


class TestProcessEngineSpecDispatch:
    def test_per_dispatch_payload_stays_under_budget(self):
        video = _heavy_video()
        assert len(pickle.dumps(video)) > 100_000  # the scene itself is heavy
        spec = ChunkSpec(window=TimeInterval(0.0, 240.0), chunk_duration=30.0)
        chunks = split_interval(video, spec)
        runner = SandboxRunner(
            executables_module.EnteringObjectCounter(),
            PERSON_SCHEMA, max_rows=50, timeout_seconds=30.0)
        context = ExecutionContext(camera="cam", fps=video.fps)
        serial = list(SerialEngine().imap_chunks(runner, chunks, context))
        with ShardedEngine(2) as engine:
            outcomes = list(engine.imap_chunks(runner, chunks, context))
            stats = engine.dispatch_stats
        assert [outcome.rows for outcome in outcomes] \
            == [outcome.rows for outcome in serial]
        assert stats.dispatches >= 2
        assert stats.payload_bytes_max < DISPATCH_PAYLOAD_BUDGET_BYTES, \
            f"per-dispatch payload {stats.payload_bytes_max}B exceeds budget"
        # The heavy constants went out exactly once, through the broadcast:
        # the footage as one part, the rest as one small manifest.
        assert stats.broadcasts == 2
        assert stats.broadcast_bytes > 100_000

    def test_two_cameras_in_one_stream_ship_two_parts_once_each(self, footage_pickles):
        video_a = _heavy_video(40)
        video_b = _heavy_video(30)
        video_b.name = "heavy-b"
        spec = ChunkSpec(window=TimeInterval(0.0, 120.0), chunk_duration=30.0)
        chunks = split_interval(video_a, spec) + split_interval(video_b, spec)
        runner = SandboxRunner(
            executables_module.EnteringObjectCounter(),
            PERSON_SCHEMA, max_rows=50, timeout_seconds=30.0)
        context = ExecutionContext(camera="cam", fps=video_a.fps)
        serial = list(SerialEngine().imap_chunks(runner, chunks, context))
        with ShardedEngine(2, chunksize=3) as engine:
            outcomes = list(engine.imap_chunks(runner, chunks, context))
            stats = engine.dispatch_stats
        assert [outcome.rows for outcome in outcomes] \
            == [outcome.rows for outcome in serial]
        # The second camera is discovered mid-stream: its part and a second
        # manifest naming both go out; the first camera's part is not re-shipped.
        assert footage_pickles == ["heavy", "heavy-b"]
        assert stats.broadcasts == 4
        assert stats.broadcast_bytes < len(pickle.dumps(video_a)) \
            + len(pickle.dumps(video_b)) + 8192
