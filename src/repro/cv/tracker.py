"""Greedy IoU multi-object tracker (stand-in for SORT / DeepSORT).

The tracker links per-frame detections into tracks by greedily matching each
detection to the existing track whose last box has the highest IoU above a
threshold.  It exposes the hyperparameters the paper tunes in Appendix A:

* ``max_age`` — number of consecutive frames a track survives without a match
  before it is terminated (gap bridging);
* ``min_hits`` — matches required before a track is *confirmed* (reported);
* ``iou_threshold`` — minimum IoU for a detection/track association.

Like the real trackers, the combination of gap bridging and greedy
association can merge distinct objects that pass through the same area into
one long track, which is precisely why CV-estimated maximum durations are
*conservative over-estimates* of the ground truth (Table 1).

Each step snapshots the active tracks' (possibly motion-predicted)
reference boxes once, then scans them per detection in plain Python floats —
highest confidence first, best IoU at or above the threshold, ties broken
towards the later candidate.  Frames carry a handful of detections, so there
is no vectorized matching path: a numpy IoU matrix lost to this loop at every
frame size the bundled scenes produce (docs/architecture.md, "Track").

Two tracker cores share that policy:

* the scalar :meth:`IoUTracker.step` consumes one frame's ``Detection`` list
  at a time and keeps classic ``Track`` objects — the reference twin, driven
  frame by frame by :mod:`repro.cv.tuning` and
  :mod:`repro.analysis.policy_estimation`;
* the batch :meth:`IoUTracker.step_batch` advances a whole chunk's
  :class:`~repro.cv.detector.DetectionBatch` through
  :class:`_BatchTrackerCore` — per-row Python lists for track state,
  detection data read from the batch columns — and materialises Python
  objects only at API boundaries (:class:`TrackView` /
  :meth:`IoUTracker.finalize`).  It is what every query runs.

The two cores apply the identical matching order, arithmetic and tie-breaks,
and are asserted bit-identical by the parity tests (scenario scenes and
generated histories).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.cv.detector import Detection, DetectionBatch
from repro.utils import checks
from repro.video.geometry import BoundingBox

@dataclass(frozen=True)
class TrackerConfig:
    """Hyperparameters of the greedy IoU tracker.

    ``use_motion_prediction`` enables a constant-velocity extrapolation of
    each track's box while it is unmatched, mirroring the Kalman prediction
    step of SORT/DeepSORT; without it, fast-moving objects with detection
    gaps fragment into many short tracks.
    """

    max_age: int = 30
    min_hits: int = 3
    iou_threshold: float = 0.3
    per_category: bool = True
    use_motion_prediction: bool = True

    def __post_init__(self) -> None:
        checks.count("max_age", self.max_age, ValueError)
        checks.count("min_hits", self.min_hits, ValueError, 1)
        checks.probability("iou_threshold", self.iou_threshold, ValueError)


@dataclass(slots=True)
class Track:
    """A sequence of detections the tracker believes belong to one object.

    Slotted: tracks are materialised per chunk at the batch-core API
    boundary, so the per-instance footprint matters.
    """

    track_id: int
    category: str
    observations: list[Detection] = field(default_factory=list)
    misses: int = 0
    #: Matching cache maintained by :meth:`_rebuild_motion_cache`; keyed on
    #: the observation count, so only count-changing edits (the tracker's
    #: appends) invalidate it — same-length in-place replacement of
    #: observations mid-tracking is unsupported.
    _motion_cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def hits(self) -> int:
        """Number of matched detections."""
        return len(self.observations)

    @property
    def first_timestamp(self) -> float:
        """Timestamp of the first matched detection."""
        return self.observations[0].timestamp

    @property
    def last_timestamp(self) -> float:
        """Timestamp of the most recent matched detection."""
        return self.observations[-1].timestamp

    @property
    def duration(self) -> float:
        """Observed persistence of the track in seconds."""
        if not self.observations:
            return 0.0
        return self.last_timestamp - self.first_timestamp

    @property
    def first_box(self) -> BoundingBox:
        """Bounding box of the first matched detection."""
        return self.observations[0].box

    @property
    def last_box(self) -> BoundingBox:
        """Bounding box of the most recent matched detection."""
        return self.observations[-1].box

    #: Velocity is estimated over (up to) this many recent observations.
    #: A longer baseline averages out localisation jitter the way SORT's
    #: Kalman filter does — a two-point estimate amplifies per-box jitter
    #: into large extrapolation errors across long detection gaps.
    VELOCITY_WINDOW = 5

    def predicted_box(self, frames_ahead: int) -> BoundingBox:
        """Constant-velocity extrapolation of the track's box.

        The per-frame velocity is estimated across the last few matched
        detections (normalised by the frame span between them) and projected
        ``frames_ahead`` frames past the last detection — the same role the
        Kalman prediction step plays in SORT.
        """
        if len(self.observations) < 2 or frames_ahead <= 0:
            return self.last_box
        baseline = self.observations[-min(len(self.observations), self.VELOCITY_WINDOW)]
        last = self.observations[-1]
        frame_gap = max(1, last.frame_index - baseline.frame_index)
        vx = (last.box.x - baseline.box.x) / frame_gap
        vy = (last.box.y - baseline.box.y) / frame_gap
        return last.box.translate(vx * frames_ahead, vy * frames_ahead)

    def _reference_bounds(self, frame_index: int, use_motion: bool
                          ) -> tuple[float, float, float, float, float]:
        """Reference box for matching as ``(x1, y1, x2, y2, area)`` floats.

        Equivalent to ``predicted_box(...)`` (same arithmetic, same results)
        but works from the cached motion state so the hot path avoids
        materialising a :class:`BoundingBox` per candidate per step.
        """
        cache = self._motion_cache
        if cache is None or cache[0] != len(self.observations):
            cache = self._rebuild_motion_cache()
        _, x, y, width, height, area, last_frame, vx, vy = cache
        if use_motion and vx is not None:
            frames_ahead = frame_index - last_frame
            if frames_ahead > 0:
                x = x + vx * frames_ahead
                y = y + vy * frames_ahead
        return x, y, x + width, y + height, area

    def _rebuild_motion_cache(self) -> tuple:
        """Recompute the matching cache from the observation list.

        The cache holds ``(num_observations, x, y, width, height, area,
        last_frame_index, vx, vy)``; ``vx``/``vy`` are None until the track
        has two observations.  It is keyed on the observation count, so
        appends (and other length-changing edits) are picked up
        transparently; same-length in-place replacement is not.
        """
        observations = self.observations
        last = observations[-1]
        box = last.box
        vx = vy = None
        if len(observations) >= 2:
            baseline = observations[-min(len(observations), self.VELOCITY_WINDOW)]
            frame_gap = max(1, last.frame_index - baseline.frame_index)
            vx = (box.x - baseline.box.x) / frame_gap
            vy = (box.y - baseline.box.y) / frame_gap
        cache = (len(observations), box.x, box.y, box.width, box.height,
                 box.width * box.height, last.frame_index, vx, vy)
        self._motion_cache = cache
        return cache

    def attribute_values(self, key: str) -> list[Any]:
        """All observed values of an attribute across the track."""
        values = []
        for detection in self.observations:
            if key in detection.attributes:
                values.append(detection.attributes[key])
        return values

    def majority_attribute(self, key: str, default: Any = None) -> Any:
        """Most frequently observed value of an attribute (ties broken arbitrarily)."""
        values = self.attribute_values(key)
        if not values:
            return default
        return Counter(values).most_common(1)[0][0]

    def is_confirmed(self, min_hits: int) -> bool:
        """True once the track has accumulated at least ``min_hits`` detections."""
        return self.hits >= min_hits


class _BatchTrackerCore:
    """Whole-chunk twin of the scalar tracker loop.

    One row per track ever created, held in plain parallel lists: the
    matching state ``row_state`` (last box, its area, last frame index and
    the smoothed velocity as one tuple), the velocity window ``row_ring``
    (a deque of the last ``Track.VELOCITY_WINDOW`` observations), the
    consecutive-miss counter ``row_miss`` and the matched detection ids
    ``det_indices`` (a track's hit count is the length of its list).
    ``active`` lists the live rows in creation order, ``finished`` the
    expired ones in expiry order.

    Detections are read straight from
    :class:`~repro.cv.detector.DetectionBatch` columns — one ``np.lexsort``
    puts a batch in frame-major, confidence-descending stable order and one
    ``tolist()`` per column hands the loop Python scalars.  There is no
    numpy inside the per-frame loop: frames carry a handful of detections
    and candidates, where element access and small-array set-up cost more
    than the arithmetic they replace (docs/architecture.md, "Track").

    Per-frame matching applies exactly the scalar core's policy (greedy
    best-IoU-at-least-threshold with ties to the later candidate,
    per-category matching, constant-velocity prediction while unmatched) in
    the same IEEE operations, so associations — and therefore tracks — are
    bit-identical.
    """

    def __init__(self, config: TrackerConfig, next_id: int = 0) -> None:
        self.config = config
        self.next_id = next_id
        self.track_id: list[int] = []
        self.category_id: list[int] = []
        #: (x, y, width, height, area, last frame index, velocity x,
        #: velocity y); the velocities are 0.0 until two observations.
        self.row_state: list[tuple] = []
        self.row_ring: list[deque[tuple[float, float, int]]] = []
        self.row_miss: list[int] = []
        #: Per-track detection ids (offsets into the consumed batches).
        self.det_indices: list[list[int]] = []
        self.active: list[int] = []
        self.finished: list[int] = []
        self.categories: list[str] = []
        self._category_ids: dict[str, int] = {}
        self.batches: list[DetectionBatch] = []
        self.offsets: list[int] = []
        self._total_detections = 0
        #: Largest frame index consumed so far (None before the first
        #: detection): batches must not start before it.
        self._last_frame_index: int | None = None

    # ------------------------------------------------------------ bookkeeping

    def _core_category(self, label: str) -> int:
        identifier = self._category_ids.get(label)
        if identifier is None:
            identifier = len(self.categories)
            self._category_ids[label] = identifier
            self.categories.append(label)
        return identifier

    def hit_count(self, row: int) -> int:
        """Number of matched detections of one track row."""
        return len(self.det_indices[row])

    def resolve(self, detection_id: int) -> tuple[DetectionBatch, int]:
        """Map a core-global detection id back to its (batch, local index)."""
        if len(self.batches) == 1:
            return self.batches[0], detection_id
        position = bisect_right(self.offsets, detection_id) - 1
        return self.batches[position], detection_id - self.offsets[position]

    # ---------------------------------------------------------------- updates

    def _new_track(self, detection_id: int, category: int, x: float, y: float,
                   width: float, height: float, frame_index: int) -> int:
        row = len(self.track_id)
        self.track_id.append(self.next_id)
        self.next_id += 1
        self.category_id.append(category)
        self.row_state.append((x, y, width, height, width * height,
                               frame_index, 0.0, 0.0))
        self.row_ring.append(deque([(x, y, frame_index)],
                                   maxlen=Track.VELOCITY_WINDOW))
        self.row_miss.append(0)
        self.det_indices.append([detection_id])
        return row

    def _expire(self) -> None:
        """Move tracks whose misses exceeded max_age to the finished list.

        Same sweep as the scalar core: the active list is filtered in order,
        so finished tracks are appended in active-list order.
        """
        max_age = self.config.max_age
        row_miss = self.row_miss
        self.finished.extend(row for row in self.active
                             if row_miss[row] > max_age)
        self.active[:] = [row for row in self.active
                          if row_miss[row] <= max_age]

    def _age_gap(self, gap: int) -> None:
        """Advance ``gap`` consecutive empty frames in one pass.

        Equivalent to ``gap`` scalar miss steps.  A track with ``m`` misses
        crosses ``max_age`` at gap offset ``max_age + 1 - m``; sequential
        empty steps finish tracks ordered by that offset (ties in
        active-list order) and stop aging a track at its expiry frame, so a
        crossing track's final miss count is ``max_age + 1``, not
        ``m + gap``.
        """
        limit = self.config.max_age + 1
        row_miss = self.row_miss
        expiring: list[tuple[int, int]] = []
        for row in self.active:
            count = row_miss[row] + gap
            if count >= limit:
                expiring.append((limit - row_miss[row], row))
                count = limit
            row_miss[row] = count
        if expiring:
            # Stable: equal offsets keep active-list order.
            expiring.sort(key=lambda entry: entry[0])
            self.finished.extend(row for _, row in expiring)
            self.active[:] = [row for row in self.active
                              if row_miss[row] < limit]

    # --------------------------------------------------------------- matching

    def step_batch(self, batch: DetectionBatch) -> None:
        """Advance the tracker over every frame of one detection batch."""
        # Frame-major, confidence-descending, stable: ties keep storage
        # order, which is the scalar emission order by the DetectionBatch
        # contract — the batched equivalent of the scalar per-step sort.
        order = np.lexsort((-batch.confidences, batch.frame_positions))
        frame_indices = batch.frame_indices[order].tolist()
        total = len(frame_indices)
        last_seen = self._last_frame_index
        if total and last_seen is not None and frame_indices[0] < last_seen:
            raise ValueError(
                f"batch starts at frame index {frame_indices[0]}, before "
                f"frame index {last_seen} already consumed; batches must "
                f"arrive in time order")
        offset = self._total_detections
        self.batches.append(batch)
        self.offsets.append(offset)
        self._total_detections += total
        if not total:
            self._age_gap(batch.num_frames)
            return
        self._last_frame_index = frame_indices[-1]
        active = self.active
        config = self.config
        threshold = config.iou_threshold
        use_motion = config.use_motion_prediction
        max_age = config.max_age
        batch_to_core = [self._core_category(label) for label in batch.categories]
        positions = batch.frame_positions[order].tolist()
        boxes = batch.boxes[order].tolist()
        detection_ids = (order + offset).tolist()
        detection_categories = [batch_to_core[identifier] for identifier
                                in batch.category_ids[order].tolist()]
        # While everything the core has ever seen shares one category the
        # per-category guard always passes; the registry is complete for
        # this batch here, so the flag is loop-invariant.
        check_categories = config.per_category and len(self.categories) > 1
        category_id = self.category_id
        row_state = self.row_state
        row_ring = self.row_ring
        row_miss = self.row_miss
        det_indices = self.det_indices
        ends = [index for index in range(1, total)
                if positions[index] != positions[index - 1]]
        ends.append(total)
        start = 0
        previous_position = -1
        for end in ends:
            position = positions[start]
            # Empty frames between two visited ones age in one pass.
            if position - previous_position > 1:
                self._age_gap(position - previous_position - 1)
            previous_position = position
            frame_index = frame_indices[start]
            num_candidates = len(active)
            matched = [False] * num_candidates
            candidate_categories = [category_id[row] for row in active] \
                if check_categories else None
            # Reference bounds as in the scalar core's _reference_bounds:
            # the last box moved by the smoothed velocity.  Every candidate
            # ages here; a match below resets its counter.
            references: list[tuple[float, float, float, float, float]] = []
            may_expire = False
            for row in active:
                x, y, width, height, area, last_frame, vx, vy = row_state[row]
                if use_motion:
                    frames_ahead = frame_index - last_frame
                    x = x + vx * frames_ahead
                    y = y + vy * frames_ahead
                references.append((x, y, x + width, y + height, area))
                count = row_miss[row] + 1
                row_miss[row] = count
                if count > max_age:
                    may_expire = True
            new_rows: list[int] = []
            for index in range(start, end):
                detection_category = detection_categories[index]
                det_x1, det_y1, det_width, det_height = boxes[index]
                det_x2 = det_x1 + det_width
                det_y2 = det_y1 + det_height
                det_area = det_width * det_height
                best = -1
                best_iou = threshold
                for candidate in range(num_candidates):
                    if matched[candidate]:
                        continue
                    if candidate_categories is not None \
                            and candidate_categories[candidate] != detection_category:
                        continue
                    ref_x1, ref_y1, ref_x2, ref_y2, ref_area = references[candidate]
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
                        best_iou = iou
                        best = candidate
                if best < 0:
                    new_rows.append(self._new_track(
                        detection_ids[index], detection_category,
                        det_x1, det_y1, det_width, det_height, frame_index))
                    continue
                # Record the matched box and advance the velocity window:
                # baseline = oldest ringed observation after the append,
                # frame gap clamped to >= 1 — the IEEE operations of
                # Track._rebuild_motion_cache.
                matched[best] = True
                row = active[best]
                ring = row_ring[row]
                ring.append((det_x1, det_y1, frame_index))
                baseline_x, baseline_y, baseline_frame = ring[0]
                frame_gap = frame_index - baseline_frame
                if frame_gap < 1:
                    frame_gap = 1
                row_state[row] = (det_x1, det_y1, det_width, det_height,
                                  det_area, frame_index,
                                  (det_x1 - baseline_x) / frame_gap,
                                  (det_y1 - baseline_y) / frame_gap)
                row_miss[row] = 0
                det_indices[row].append(detection_ids[index])
            # New tracks join after the frame's scans, as in the scalar core.
            active.extend(new_rows)
            if may_expire:
                self._expire()
            start = end
        self._age_gap(batch.num_frames - 1 - previous_position)

    # -------------------------------------------------------------- finishing

    def confirmed_rows(self) -> list[int]:
        """Rows of every confirmed track, in finished-then-active order."""
        min_hits = self.config.min_hits
        det_indices = self.det_indices
        return [row for row in self.finished + self.active
                if len(det_indices[row]) >= min_hits]


class TrackView:
    """Columnar stand-in for a confirmed :class:`Track` (the batch boundary).

    Exposes the track surface the executables consume — endpoints, boxes,
    hit counts, majority attributes — straight from the batch columns, so a
    chunk's row emission materialises at most two :class:`BoundingBox`
    objects per track.  :meth:`to_track` is the full materialisation adapter
    (used by :meth:`IoUTracker.finalize` and the parity tests).
    """

    __slots__ = ("_core", "_row")

    def __init__(self, core: _BatchTrackerCore, row: int) -> None:
        self._core = core
        self._row = row

    @property
    def track_id(self) -> int:
        return self._core.track_id[self._row]

    @property
    def category(self) -> str:
        return self._core.categories[self._core.category_id[self._row]]

    @property
    def hits(self) -> int:
        """Number of matched detections."""
        return self._core.hit_count(self._row)

    @property
    def misses(self) -> int:
        return self._core.row_miss[self._row]

    def is_confirmed(self, min_hits: int) -> bool:
        """True once the track has accumulated at least ``min_hits`` detections."""
        return self.hits >= min_hits

    def _boundary(self, position: int) -> tuple[DetectionBatch, int]:
        detection_id = self._core.det_indices[self._row][position]
        return self._core.resolve(detection_id)

    @property
    def first_timestamp(self) -> float:
        """Timestamp of the first matched detection."""
        batch, index = self._boundary(0)
        return float(batch.timestamps[index])

    @property
    def last_timestamp(self) -> float:
        """Timestamp of the most recent matched detection."""
        batch, index = self._boundary(-1)
        return float(batch.timestamps[index])

    @property
    def duration(self) -> float:
        """Observed persistence of the track in seconds."""
        return self.last_timestamp - self.first_timestamp

    @property
    def first_box(self) -> BoundingBox:
        """Bounding box of the first matched detection."""
        batch, index = self._boundary(0)
        x, y, width, height = batch.boxes[index].tolist()
        return BoundingBox(x, y, width, height)

    @property
    def last_box(self) -> BoundingBox:
        """Bounding box of the most recent matched detection."""
        batch, index = self._boundary(-1)
        x, y, width, height = batch.boxes[index].tolist()
        return BoundingBox(x, y, width, height)

    def attribute_values(self, key: str) -> list[Any]:
        """All observed values of an attribute across the track."""
        values: list[Any] = []
        for detection_id in self._core.det_indices[self._row]:
            batch, index = self._core.resolve(detection_id)
            column = batch.attributes.get(key)
            if column is not None and column[0][index]:
                values.append(column[1][index])
        return values

    def majority_attribute(self, key: str, default: Any = None) -> Any:
        """Most frequently observed value of an attribute (ties broken arbitrarily)."""
        values = self.attribute_values(key)
        if not values:
            return default
        return Counter(values).most_common(1)[0][0]

    @property
    def observations(self) -> list[Detection]:
        """The track's detections, materialised from the batch columns.

        Full materialisation — row emission should prefer the columnar
        accessors above; this exists for the ``Track`` API surface.
        """
        core = self._core
        observations: list[Detection] = []
        for detection_id in core.det_indices[self._row]:
            batch, index = core.resolve(detection_id)
            observations.append(batch.detection_at(index))
        return observations

    def to_track(self) -> Track:
        """Materialise the classic :class:`Track` (observations included)."""
        return Track(track_id=self.track_id, category=self.category,
                     observations=self.observations, misses=self.misses)


class IoUTracker:
    """Online greedy IoU tracker over a stream of per-frame detections.

    A tracker instance runs in one of two modes: scalar (:meth:`step`, one
    frame's ``Detection`` list at a time — the reference twin) or batch
    (:meth:`step_batch`, a whole chunk's
    :class:`~repro.cv.detector.DetectionBatch` — what queries run).  Over
    frames in time order the modes produce bit-identical tracks; they cannot
    be mixed on one instance.
    """

    def __init__(self, config: TrackerConfig | None = None) -> None:
        self.config = config or TrackerConfig()
        self._active: list[Track] = []
        self._finished: list[Track] = []
        self._next_id = 0
        self._core: _BatchTrackerCore | None = None

    def step(self, detections: Sequence[Detection]) -> None:
        """Consume the detections of one frame (frames must arrive in time order)."""
        if self._core is not None:
            raise RuntimeError("tracker already advanced in batch mode; "
                               "scalar step() cannot be mixed with step_batch()")
        config = self.config
        candidates = self._active
        num_candidates = len(candidates)
        matched = [False] * num_candidates
        if detections:
            # A step normally carries one frame's detections, so each
            # candidate's (motion-predicted) reference box is computed
            # exactly once; mixed-frame steps (allowed by the signature)
            # fall back to per-detection prediction below.
            frame_index = detections[0].frame_index
            mixed_frames = any(det.frame_index != frame_index for det in detections)
            use_motion = config.use_motion_prediction
            references = [track._reference_bounds(frame_index, use_motion)
                          for track in candidates]
            categories = [track.category for track in candidates] \
                if config.per_category else None
            ordered = sorted(detections, key=lambda det: -det.confidence) \
                if len(detections) > 1 else list(detections)
            threshold = config.iou_threshold
            new_tracks: list[Track] = []
            for detection in ordered:
                best = -1
                best_iou = threshold
                box = detection.box
                det_x1 = box.x
                det_y1 = box.y
                det_x2 = det_x1 + box.width
                det_y2 = det_y1 + box.height
                det_area = box.width * box.height
                for index in range(num_candidates):
                    if matched[index]:
                        continue
                    if categories is not None and categories[index] != detection.category:
                        continue
                    if mixed_frames and detection.frame_index != frame_index:
                        reference = candidates[index]._reference_bounds(
                            detection.frame_index, use_motion)
                    else:
                        reference = references[index]
                    ref_x1, ref_y1, ref_x2, ref_y2, ref_area = reference
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
                        best_iou = iou
                        best = index
                if best >= 0:
                    track = candidates[best]
                    track.observations.append(detection)
                    track.misses = 0
                    matched[best] = True
                else:
                    new_tracks.append(Track(track_id=self._next_id,
                                            category=detection.category,
                                            observations=[detection]))
                    self._next_id += 1
            if new_tracks:
                self._active.extend(new_tracks)
        max_age = config.max_age
        expired = False
        for index in range(num_candidates):
            if not matched[index]:
                track = candidates[index]
                track.misses += 1
                if track.misses > max_age:
                    expired = True
        if expired:
            still_active: list[Track] = []
            for track in self._active:
                if track.misses > max_age:
                    self._finished.append(track)
                else:
                    still_active.append(track)
            self._active = still_active

    def step_batch(self, batch: DetectionBatch) -> None:
        """Consume a whole chunk's detections at once (the columnar core).

        Bit-identical to calling :meth:`step` with each frame's detection
        list of ``batch.per_frame_detections()`` in order — including frames
        with no detections, which age unmatched tracks exactly as empty
        scalar steps do.  Batches must arrive in time order: one that starts
        before a frame index already consumed raises ``ValueError`` (the
        scalar twin does not extrapolate backwards, so the tracks would
        silently differ).
        """
        if self._active or self._finished:
            raise RuntimeError("tracker already advanced in scalar mode; "
                               "step_batch() cannot be mixed with step()")
        if self._core is None:
            self._core = _BatchTrackerCore(self.config, next_id=self._next_id)
        self._core.step_batch(batch)

    def finalize_views(self) -> list[TrackView]:
        """Flush the batch core and return every confirmed track as a view.

        The cheap API boundary of the columnar pipeline: row emission reads
        track endpoints and attribute majorities straight from the batch
        columns instead of materialised ``Detection`` lists.  Only valid in
        batch mode (after :meth:`step_batch`); an unused tracker returns [].
        """
        core = self._core
        if core is None:
            if self._active or self._finished:
                raise RuntimeError("finalize_views() requires batch mode; "
                                   "use finalize() after scalar step()")
            return []
        self._core = None
        self._next_id = core.next_id
        return [TrackView(core, row) for row in core.confirmed_rows()]

    def finalize(self) -> list[Track]:
        """Flush remaining active tracks and return every *confirmed* track."""
        if self._core is not None:
            return [view.to_track() for view in self.finalize_views()]
        all_tracks = self._finished + self._active
        self._finished = []
        self._active = []
        return [track for track in all_tracks if track.is_confirmed(self.config.min_hits)]


def track_detection_stream(detections_by_frame: Iterable[Sequence[Detection]],
                           config: TrackerConfig | None = None) -> list[Track]:
    """Run the tracker over a bare stream of per-frame detection lists."""
    tracker = IoUTracker(config)
    for detections in detections_by_frame:
        tracker.step(detections)
    return tracker.finalize()
