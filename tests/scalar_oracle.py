"""Scalar, frame-by-frame oracle of the frame views, the detector and the tracker.

The library runs one frame model: a chunk (or a block of an owner's footage)
renders as a columnar ``FrameBatch``, ``SyntheticDetector.detect_batch``
turns it into a columnar ``DetectionBatch`` and ``IoUTracker.step_batch``
links the whole batch.  This module is the independent reference those
paths are held to, one frame and one object at a time in plain Python:

* frame views — ``FrameTruth``: one frame's visible objects and boxes, read
  from a batch position or a chunk;
* ``detect_frame`` — the detector's draws keyed per (seed, stream, object,
  frame) and evaluated with the scalar ``unit_draw``;
* ``ScalarTracker`` — the greedy IoU tracker stepping one frame's
  ``Detection`` list at a time over classic ``Track`` objects;
* adapters from the columnar outputs to those objects (``per_frame_detections``,
  ``to_track``), and back (``detection_batch``).

The parity tests compare the two bit for bit, so every float below is
computed with the same IEEE operations in the same order as the batch code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.cv.detector import (
    _TAG_ATTRIBUTE,
    _TAG_CONFIDENCE,
    _TAG_FP_COUNT,
    _TAG_FP_X,
    _TAG_FP_Y,
    _TAG_JITTER_X,
    _TAG_JITTER_Y,
    _TAG_MISS,
    DetectionBatch,
    SyntheticDetector,
)
from repro.cv.tracker import TrackerConfig, TrackView
from repro.utils.hashing import stream_key, string_token, unit_draw
from repro.video.geometry import BoundingBox

# ---------------------------------------------------------------- frame views


@dataclass(frozen=True)
class VisibleObject:
    """A ground-truth object visible in a single frame, with its box."""

    scene_object: Any
    box: BoundingBox

    @property
    def object_id(self) -> str:
        return self.scene_object.object_id

    @property
    def category(self) -> str:
        return self.scene_object.category


@dataclass(frozen=True)
class FrameTruth:
    """Ground truth for one frame: its timestamp and all visible objects."""

    timestamp: float
    frame_index: int
    visible: tuple[VisibleObject, ...]


def frame_truth(batch, position: int) -> FrameTruth:
    """The per-frame view of batch position ``position``."""
    rows = np.flatnonzero(batch.visible[:, position])
    seen = zip(rows.tolist(), batch.boxes[rows, position].tolist())
    return FrameTruth(timestamp=float(batch.timestamps[position]),
                      frame_index=int(batch.frame_indices[position]),
                      visible=tuple(VisibleObject(batch.scene_objects[row], BoundingBox(*box))
                                    for row, box in seen))


def iter_frames(batch) -> Iterator[FrameTruth]:
    """Every position of a batch as a :class:`FrameTruth`."""
    for position in range(len(batch)):
        yield frame_truth(batch, position)


def chunk_frames(chunk) -> Iterator[FrameTruth]:
    """A chunk's masked, region-filtered frames, one at a time."""
    yield from iter_frames(chunk.frame_batch())


# ------------------------------------------------------------------- detector


@dataclass(frozen=True)
class Detection:
    """One detector output in one frame."""

    timestamp: float
    frame_index: int
    category: str
    box: BoundingBox
    confidence: float
    attributes: Mapping[str, Any] = field(default_factory=dict)


def _key(detector: SyntheticDetector, tag: int, object_id: str, *extra: int) -> int:
    return stream_key(detector.seed, tag, string_token(object_id), *extra)


def _signed_draw(key: int, index: int) -> float:
    return 2.0 * unit_draw(key, index) - 1.0


def detect_frame(detector: SyntheticDetector, frame: FrameTruth, *,
                 frame_width: float = 1280.0, frame_height: float = 720.0) -> list[Detection]:
    """Detect one ground-truth frame, object by object, draw by draw."""
    config = detector.config
    index = frame.frame_index
    detections: list[Detection] = []
    for visible in frame.visible:
        if visible.category not in config.detectable_categories:
            continue
        object_id = visible.object_id
        if unit_draw(_key(detector, _TAG_MISS, object_id), index) \
                < config.miss_rate_for(visible.category):
            continue
        box = visible.box
        if config.position_jitter > 0:
            box = BoundingBox(
                box.x + config.position_jitter * _signed_draw(
                    _key(detector, _TAG_JITTER_X, object_id), index),
                box.y + config.position_jitter * _signed_draw(
                    _key(detector, _TAG_JITTER_Y, object_id), index),
                box.width, box.height)
        confidence = config.min_confidence + (1.0 - config.min_confidence) * unit_draw(
            _key(detector, _TAG_CONFIDENCE, object_id), index)
        attributes = {}
        for name, value in visible.scene_object.attributes_at(frame.timestamp).items():
            draw = unit_draw(_key(detector, _TAG_ATTRIBUTE, object_id, string_token(name)),
                             index)
            if draw >= config.attribute_error_rate:
                attributes[name] = value
        detections.append(Detection(timestamp=frame.timestamp, frame_index=index,
                                    category=visible.category, box=box,
                                    confidence=confidence, attributes=attributes))
    rate = config.false_positives_per_frame
    if rate > 0:
        count = int(rate) + (1 if unit_draw(stream_key(detector.seed, _TAG_FP_COUNT), index)
                             < rate % 1 else 0)
        for slot in range(count):
            x = frame_width * unit_draw(stream_key(detector.seed, _TAG_FP_X, slot), index)
            y = frame_height * unit_draw(stream_key(detector.seed, _TAG_FP_Y, slot), index)
            detections.append(Detection(timestamp=frame.timestamp, frame_index=index,
                                        category="person", box=BoundingBox(x, y, 20.0, 40.0),
                                        confidence=config.min_confidence,
                                        attributes={"false_positive": True}))
    return detections


def detection_at(batch: DetectionBatch, index: int) -> Detection:
    """One detection of a batch, materialised from the columns."""
    x, y, width, height = batch.boxes[index].tolist()
    return Detection(
        timestamp=float(batch.timestamps[index]),
        frame_index=int(batch.frame_indices[index]),
        category=batch.categories[int(batch.category_ids[index])],
        box=BoundingBox(x, y, width, height),
        confidence=float(batch.confidences[index]),
        attributes={key: values[index] for key, (present, values) in batch.attributes.items()
                    if present[index]},
    )


def per_frame_detections(batch: DetectionBatch) -> list[list[Detection]]:
    """The batch as per-frame ``Detection`` lists, each in emission order."""
    per_frame: list[list[Detection]] = [[] for _ in range(batch.num_frames)]
    for index, position in enumerate(batch.frame_positions.tolist()):
        per_frame[position].append(detection_at(batch, index))
    return per_frame


def detection_batch(frames: Sequence[Sequence[Detection]]) -> DetectionBatch:
    """Per-frame ``Detection`` lists (list ``i`` is frame position ``i``) as one
    frame-major :class:`DetectionBatch` — hand-written histories for the
    batch tracker."""
    flat = [(position, detection) for position, detections in enumerate(frames)
            for detection in detections]
    categories = tuple(dict.fromkeys(detection.category for _, detection in flat))
    attributes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for row, (_, detection) in enumerate(flat):
        for key, value in detection.attributes.items():
            if key not in attributes:
                attributes[key] = (np.zeros(len(flat), dtype=bool),
                                   np.empty(len(flat), dtype=object))
            attributes[key][0][row] = True
            attributes[key][1][row] = value
    return DetectionBatch(
        num_frames=len(frames),
        frame_positions=np.array([position for position, _ in flat], dtype=np.int64),
        frame_indices=np.array([d.frame_index for _, d in flat], dtype=np.int64),
        timestamps=np.array([d.timestamp for _, d in flat], dtype=np.float64),
        boxes=np.array([[d.box.x, d.box.y, d.box.width, d.box.height] for _, d in flat],
                       dtype=np.float64).reshape(-1, 4),
        confidences=np.array([d.confidence for _, d in flat], dtype=np.float64),
        category_ids=np.array([categories.index(d.category) for _, d in flat], dtype=np.int64),
        categories=categories,
        attributes=attributes,
    )


# -------------------------------------------------------------------- tracker


@dataclass
class Track:
    """A sequence of detections the scalar tracker believes belong to one object."""

    track_id: int
    category: str
    observations: list[Detection] = field(default_factory=list)
    misses: int = 0

    #: Velocity is estimated over (up to) this many recent observations.
    VELOCITY_WINDOW = 5

    @property
    def hits(self) -> int:
        return len(self.observations)

    @property
    def first_timestamp(self) -> float:
        return self.observations[0].timestamp

    @property
    def last_timestamp(self) -> float:
        return self.observations[-1].timestamp

    @property
    def duration(self) -> float:
        return self.last_timestamp - self.first_timestamp

    @property
    def first_box(self) -> BoundingBox:
        return self.observations[0].box

    @property
    def last_box(self) -> BoundingBox:
        return self.observations[-1].box

    def reference_bounds(self, frame_index: int, use_motion: bool
                         ) -> tuple[float, float, float, float, float]:
        """The box to match at ``frame_index`` as ``(x1, y1, x2, y2, area)``:
        the last box, moved by the velocity over the last few observations
        (frame gap clamped to >= 1) when predicting forwards."""
        last = self.observations[-1]
        x, y, width, height = last.box.x, last.box.y, last.box.width, last.box.height
        frames_ahead = frame_index - last.frame_index
        if use_motion and len(self.observations) >= 2 and frames_ahead > 0:
            baseline = self.observations[-min(len(self.observations), self.VELOCITY_WINDOW)]
            frame_gap = max(1, last.frame_index - baseline.frame_index)
            x = x + (x - baseline.box.x) / frame_gap * frames_ahead
            y = y + (y - baseline.box.y) / frame_gap * frames_ahead
        return x, y, x + width, y + height, width * height

    def attribute_values(self, key: str) -> list[Any]:
        return [detection.attributes[key] for detection in self.observations
                if key in detection.attributes]

    def majority_attribute(self, key: str, default: Any = None) -> Any:
        values = self.attribute_values(key)
        if not values:
            return default
        return Counter(values).most_common(1)[0][0]


class ScalarTracker:
    """The greedy IoU tracker, one frame's ``Detection`` list per step."""

    def __init__(self, config: TrackerConfig | None = None) -> None:
        self.config = config or TrackerConfig()
        self._active: list[Track] = []
        self._finished: list[Track] = []
        self._next_id = 0

    def step(self, detections: Sequence[Detection]) -> None:
        """Consume the detections of one frame (frames in time order); a step
        carrying several frames predicts each detection at its own frame."""
        config = self.config
        candidates = self._active
        matched = [False] * len(candidates)
        new_tracks: list[Track] = []
        for detection in sorted(detections, key=lambda det: -det.confidence):
            box = detection.box
            det_x1, det_y1 = box.x, box.y
            det_x2, det_y2 = det_x1 + box.width, det_y1 + box.height
            det_area = box.width * box.height
            best, best_iou = -1, config.iou_threshold
            for index, track in enumerate(candidates):
                if matched[index]:
                    continue
                if config.per_category and track.category != detection.category:
                    continue
                ref_x1, ref_y1, ref_x2, ref_y2, ref_area = track.reference_bounds(
                    detection.frame_index, config.use_motion_prediction)
                left = det_x1 if det_x1 > ref_x1 else ref_x1
                right = det_x2 if det_x2 < ref_x2 else ref_x2
                top = det_y1 if det_y1 > ref_y1 else ref_y1
                bottom = det_y2 if det_y2 < ref_y2 else ref_y2
                if right > left and bottom > top:
                    intersection = (right - left) * (bottom - top)
                    union = det_area + ref_area - intersection
                    iou = intersection / union if union > 0 else 0.0
                else:
                    iou = 0.0
                if iou >= best_iou:
                    best, best_iou = index, iou
            if best >= 0:
                candidates[best].observations.append(detection)
                candidates[best].misses = 0
                matched[best] = True
            else:
                new_tracks.append(Track(track_id=self._next_id, category=detection.category,
                                        observations=[detection]))
                self._next_id += 1
        self._active = candidates + new_tracks
        for index, track in enumerate(candidates):
            if not matched[index]:
                track.misses += 1
        self._finished.extend(track for track in self._active
                              if track.misses > config.max_age)
        self._active = [track for track in self._active if track.misses <= config.max_age]

    def finalize(self) -> list[Track]:
        """Every confirmed track, finished ones first."""
        tracks = self._finished + self._active
        self._finished, self._active = [], []
        return [track for track in tracks if track.hits >= self.config.min_hits]


def track_detection_stream(frames: Iterable[Sequence[Detection]],
                           config: TrackerConfig | None = None) -> list[Track]:
    """The scalar tracker over a stream of per-frame detection lists."""
    tracker = ScalarTracker(config)
    for detections in frames:
        tracker.step(detections)
    return tracker.finalize()


def scalar_tracks(config: TrackerConfig, batches: Iterable[DetectionBatch]) -> list[Track]:
    """The scalar tracker over every frame of ``batches``, in order."""
    return track_detection_stream((frame for batch in batches
                                   for frame in per_frame_detections(batch)), config)


def to_track(view: TrackView) -> Track:
    """A batch track view materialised as a scalar :class:`Track`."""
    core = view._core
    observations = []
    for detection_id in core.det_indices[view._row]:
        batch, index = core.resolve(detection_id)
        observations.append(detection_at(batch, index))
    return Track(track_id=view.track_id, category=view.category,
                 observations=observations, misses=view.misses)


def batch_tracks(tracker) -> list[Track]:
    """Flush a batch :class:`~repro.cv.tracker.IoUTracker` into scalar tracks."""
    return [to_track(view) for view in tracker.finalize_views()]
