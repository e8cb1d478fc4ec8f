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

Each frame snapshots the active tracks' (possibly motion-predicted)
reference boxes once, then scans them per detection in plain Python floats —
highest confidence first, best IoU at or above the threshold, ties broken
towards the later candidate.  Frames carry a handful of detections, so there
is no vectorized matching path: a numpy IoU matrix lost to this loop at every
frame size the bundled scenes produce (docs/architecture.md, "Track").

:meth:`IoUTracker.step_batch` advances a whole
:class:`~repro.cv.detector.DetectionBatch` (one chunk, or one block of an
owner's footage) through :class:`_BatchTrackerCore` — per-row Python lists
for track state, detection data read from the batch columns — and
:meth:`IoUTracker.finalize_views` hands back each confirmed track as a
:class:`TrackView` over those columns.  Queries, policy estimation and
tracker tuning all run this one path.  The tests hold it bit for bit to a
frame-by-frame scalar oracle (``tests/scalar_oracle.py``) on scenario
scenes, generated histories and multi-batch streams.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cv.detector import DetectionBatch
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


class _BatchTrackerCore:
    """The tracker loop over whole detection batches.

    One row per track ever created, held in plain parallel lists: the
    matching state ``row_state`` (last box, its area, last frame index and
    the smoothed velocity as one tuple), the velocity window ``row_ring``
    (a deque of the last ``VELOCITY_WINDOW`` observations), the
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

    Per frame the policy is greedy best-IoU-at-least-threshold with ties to
    the later candidate, per-category matching, and constant-velocity
    prediction while unmatched; frames without a detection age every
    active track exactly as a frame-by-frame loop stepping them would.
    """

    #: Velocity is estimated over (up to) this many recent observations.
    #: A longer baseline averages out localisation jitter the way SORT's
    #: Kalman filter does — a two-point estimate amplifies per-box jitter
    #: into large extrapolation errors across long detection gaps.
    VELOCITY_WINDOW = 5

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
                                   maxlen=self.VELOCITY_WINDOW))
        self.row_miss.append(0)
        self.det_indices.append([detection_id])
        return row

    def _expire(self) -> None:
        """Move tracks whose misses exceeded max_age to the finished list.

        The active list is filtered in order, so finished tracks are
        appended in active-list order.
        """
        max_age = self.config.max_age
        row_miss = self.row_miss
        self.finished.extend(row for row in self.active
                             if row_miss[row] > max_age)
        self.active[:] = [row for row in self.active
                          if row_miss[row] <= max_age]

    def _age_gap(self, gap: int) -> None:
        """Advance ``gap`` consecutive empty frames in one pass.

        Equivalent to ``gap`` frames without a detection, one by one.  A
        track with ``m`` misses crosses ``max_age`` at gap offset
        ``max_age + 1 - m``; sequential empty steps finish tracks ordered by
        that offset (ties in active-list order) and stop aging a track at
        its expiry frame, so a crossing track's final miss count is
        ``max_age + 1``, not ``m + gap``.
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
        offset = self._total_detections
        if not batch.frame_positions.size:
            self.batches.append(batch)
            self.offsets.append(offset)
            self._age_gap(batch.num_frames)
            return
        # Frame-major, confidence-descending, stable: ties keep storage
        # order, which is each frame's emission order by the DetectionBatch
        # contract.
        order = np.lexsort((-batch.confidences, batch.frame_positions))
        frame_indices = batch.frame_indices[order].tolist()
        total = len(frame_indices)
        last_seen = self._last_frame_index
        if last_seen is not None and frame_indices[0] < last_seen:
            raise ValueError(
                f"batch starts at frame index {frame_indices[0]}, before "
                f"frame index {last_seen} already consumed; batches must "
                f"arrive in time order")
        self.batches.append(batch)
        self.offsets.append(offset)
        self._total_detections += total
        self._last_frame_index = frame_indices[-1]
        active = self.active
        config = self.config
        threshold = config.iou_threshold
        use_motion = config.use_motion_prediction
        max_age = config.max_age
        batch_to_core = [self._core_category(label) for label in batch.categories]
        positions = batch.frame_positions[order].tolist()
        boxes = batch.boxes[order].tolist()
        local_ids = order.tolist()      # a detection's id is offset + its local id
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
            # Reference bounds: the last box moved by the smoothed
            # velocity.  Every candidate
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
                    # A new track is active at once: this frame's scans stop
                    # at its candidates, so it can match from the next frame.
                    active.append(self._new_track(
                        offset + local_ids[index], detection_category,
                        det_x1, det_y1, det_width, det_height, frame_index))
                    continue
                # Record the matched box and advance the velocity window:
                # baseline = oldest ringed observation after the append,
                # frame gap clamped to >= 1.
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
                det_indices[row].append(offset + local_ids[index])
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
    """One confirmed track, read from the batch columns (the tracker's output).

    Exposes the track surface the executables and the owner's tools consume
    — endpoints, boxes, duration, hit counts, majority attributes — straight
    from the batch columns, so a chunk's row emission materialises at most
    two :class:`BoundingBox` objects per track.
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


class IoUTracker:
    """Online greedy IoU tracker over a time-ordered stream of detection batches."""

    def __init__(self, config: TrackerConfig | None = None) -> None:
        self.config = config or TrackerConfig()
        self._next_id = 0
        self._core: _BatchTrackerCore | None = None

    def step_batch(self, batch: DetectionBatch) -> None:
        """Consume a whole batch of detections (every frame of it, in order).

        Frames with no detection age unmatched tracks like any other frame.
        Batches must arrive in time order: one that starts before a frame
        index already consumed raises ``ValueError`` — motion prediction
        would extrapolate backwards and silently link the wrong boxes.
        """
        if self._core is None:
            self._core = _BatchTrackerCore(self.config, next_id=self._next_id)
        self._core.step_batch(batch)

    def finalize_views(self) -> list[TrackView]:
        """Flush the tracker and return every confirmed track as a view.

        Tracks come finished first (in expiry order), then the still-active
        ones (in creation order).  Track ids continue across flushes; an
        unused tracker returns [].
        """
        core = self._core
        if core is None:
            return []
        self._core = None
        self._next_id = core.next_id
        return [TrackView(core, row) for row in core.confirmed_rows()]
