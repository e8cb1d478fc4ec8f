"""Synthetic object detector.

The detector consumes ground-truth frames from the scene simulator and
produces per-frame detections with the failure modes of a real CNN detector:

* **missed detections** — each visible object is dropped in a frame with a
  configurable probability (per category or global), reproducing the miss
  rates reported in Table 1 (29% for campus, 5% for highway, 76% for urban);
* **localisation noise** — detected boxes are jittered;
* **false positives** — spurious detections appear at a configurable rate;
* **attribute read errors** — attributes such as colour or licence plate are
  occasionally misread or unavailable.

All randomness is *derived deterministically* from ``(seed, stream, object_id,
frame_index)`` via the counter-based splitmix64 scheme of
:mod:`repro.utils.hashing`, so the same frame always produces the same
detections, regardless of how many times (or in which order) chunks are
processed.  This keeps the non-private baseline and the Privid execution of a
query comparable apart from chunking effects, exactly as in the paper's
evaluation.

The preferred entry point is :meth:`SyntheticDetector.detect_batch`, which
detects a whole :class:`~repro.video.video.FrameBatch` (typically one chunk)
with vectorized draws and returns a columnar :class:`DetectionBatch` — frame
index/timestamp/box/confidence arrays plus per-key attribute columns — so the
post-detection dataflow (tracker, row emission) can stay array-native.
:class:`Detection` objects are only materialised at API boundaries through
the batch's lazy adapters; the per-frame :meth:`detect_frame` path computes
the same draws scalar-by-scalar and therefore yields bit-identical
detections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.utils import checks
from repro.utils.hashing import (
    signed_draw,
    stream_key,
    string_token,
    unit_draw,
    unit_draws,
    unit_draws_matrix,
)
from repro.video.geometry import BoundingBox
from repro.video.video import FrameTruth, VisibleObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.video.video import FrameBatch

#: Lane tokens naming the detector's independent draw streams.
_TAG_MISS = string_token("miss")
_TAG_JITTER_X = string_token("jx")
_TAG_JITTER_Y = string_token("jy")
_TAG_CONFIDENCE = string_token("conf")
_TAG_ATTRIBUTE = string_token("attr")
_TAG_FP_COUNT = string_token("fp-count")
_TAG_FP_X = string_token("fp-x")
_TAG_FP_Y = string_token("fp-y")


@dataclass(frozen=True, slots=True)
class Detection:
    """One detector output in one frame.

    Detections carry no stable identity across frames — linking them into
    tracks is the tracker's job — but they do carry the attribute readings
    (colour, plate, ...) a downstream executable may use.  Slotted: the
    columnar pipeline only materialises Detections at adapter boundaries,
    but those boundaries can still cover thousands of detections per chunk.
    """

    timestamp: float
    frame_index: int
    category: str
    box: BoundingBox
    confidence: float
    attributes: Mapping[str, Any] = field(default_factory=dict)

    _FIELDS = ("timestamp", "frame_index", "category", "box", "confidence",
               "attributes")

    def __getstate__(self) -> tuple[Any, ...]:
        # Explicit state hooks: default slot-state pickling restores via
        # setattr, which a frozen dataclass forbids on Python 3.10.
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __setstate__(self, state: tuple[Any, ...]) -> None:
        for name, value in zip(self._FIELDS, state):
            object.__setattr__(self, name, value)


@dataclass
class DetectionBatch:
    """Columnar detections for one frame batch (typically one chunk).

    Detections are stored as parallel arrays in *segment-major* order: each
    object's detections are contiguous (frames ascending), objects in batch
    order, false-positive slots after them.  Because any object contributes
    at most one detection per frame, ascending storage order *within a
    frame* equals the scalar path's per-frame emission order — consumers
    that need frame-major order (the tracker, the per-frame adapters) sort
    stably by ``frame_positions`` and inherit the correct within-frame
    order from the storage-order tie-break.  ``attributes`` maps each
    attribute key ever observed in the batch to a ``(present, values)``
    column pair: ``present`` marks the detections carrying the key and
    ``values`` holds the observed value (unspecified where absent).
    """

    num_frames: int
    frame_positions: np.ndarray
    frame_indices: np.ndarray
    timestamps: np.ndarray
    boxes: np.ndarray
    confidences: np.ndarray
    category_ids: np.ndarray
    categories: tuple[str, ...]
    attributes: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.frame_positions.size)

    @property
    def num_detections(self) -> int:
        """Total detections across the batch."""
        return int(self.frame_positions.size)

    def category_of(self, index: int) -> str:
        """Category label of one detection."""
        return self.categories[int(self.category_ids[index])]

    def attributes_of(self, index: int) -> dict[str, Any]:
        """Attribute mapping of one detection (materialised from the columns)."""
        observed: dict[str, Any] = {}
        for key, (present, values) in self.attributes.items():
            if present[index]:
                observed[key] = values[index]
        return observed

    def detection_at(self, index: int) -> Detection:
        """Materialise one :class:`Detection` from the columns."""
        x, y, width, height = self.boxes[index].tolist()
        return Detection(
            timestamp=float(self.timestamps[index]),
            frame_index=int(self.frame_indices[index]),
            category=self.category_of(index),
            box=BoundingBox(x, y, width, height),
            confidence=float(self.confidences[index]),
            attributes=self.attributes_of(index),
        )

    def first_index_per_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """``(frame_positions, detection_index)`` of each frame's first detection.

        Within a frame, ascending storage index equals scalar emission
        order, so the first occurrence of each frame position (which
        ``np.unique`` reports relative to the original array) is that
        frame's first detection.
        """
        positions, first = np.unique(self.frame_positions, return_index=True)
        return positions, first

    def per_frame_detections(self) -> list[list[Detection]]:
        """Materialise the legacy per-frame ``Detection`` lists (lazy adapter).

        Element-for-element identical to what the scalar
        :meth:`SyntheticDetector.detect_frame` loop produces over the same
        frames — the parity contract the columnar pipeline is tested against.
        """
        per_frame: list[list[Detection]] = [[] for _ in range(self.num_frames)]
        if not self.frame_positions.size:
            return per_frame
        positions_list = self.frame_positions.tolist()
        frames_list = self.frame_indices.tolist()
        timestamps_list = self.timestamps.tolist()
        boxes_list = self.boxes.tolist()
        confidences_list = self.confidences.tolist()
        category_ids = self.category_ids.tolist()
        categories = self.categories
        attribute_columns = [(key, present, values)
                             for key, (present, values) in self.attributes.items()]
        for index, position in enumerate(positions_list):
            attributes: dict[str, Any] = {}
            for key, present, values in attribute_columns:
                if present[index]:
                    attributes[key] = values[index]
            x, y, width, height = boxes_list[index]
            per_frame[position].append(Detection(
                timestamp=timestamps_list[index],
                frame_index=frames_list[index],
                category=categories[category_ids[index]],
                box=BoundingBox(x, y, width, height),
                confidence=confidences_list[index],
                attributes=attributes,
            ))
        return per_frame


@dataclass(frozen=True)
class DetectorConfig:
    """Failure-mode parameters of the synthetic detector."""

    miss_rate: float = 0.1
    category_miss_rates: Mapping[str, float] = field(default_factory=dict)
    false_positives_per_frame: float = 0.0
    position_jitter: float = 2.0
    attribute_error_rate: float = 0.02
    min_confidence: float = 0.5
    detectable_categories: frozenset[str] = frozenset(
        {"person", "car", "taxi", "bike", "tree", "traffic_light"})

    def __post_init__(self) -> None:
        for name in ("miss_rate", "attribute_error_rate", "min_confidence"):
            checks.probability(name, getattr(self, name), ValueError)
        for name in ("false_positives_per_frame", "position_jitter"):
            checks.real(name, getattr(self, name), ValueError, at_least=0)
        for category, rate in self.category_miss_rates.items():
            checks.probability(f"the miss rate of {category!r}", rate, ValueError)

    def miss_rate_for(self, category: str) -> float:
        """Effective miss probability for a category."""
        return float(self.category_miss_rates.get(category, self.miss_rate))


class SyntheticDetector:
    """Stateless, deterministic stand-in for a CNN object detector."""

    def __init__(self, config: DetectorConfig | None = None, *, seed: int = 0) -> None:
        self.config = config or DetectorConfig()
        self.seed = int(seed)

    def _key(self, tag: int, object_id: str, *extra: int) -> int:
        """Stream key for one (tag, object) draw stream."""
        return stream_key(self.seed, tag, string_token(object_id), *extra)

    def _detects(self, visible_object: VisibleObject, frame_index: int) -> bool:
        """Decide (deterministically) whether the object is detected in this frame."""
        miss_rate = self.config.miss_rate_for(visible_object.category)
        draw = unit_draw(self._key(_TAG_MISS, visible_object.object_id), frame_index)
        return draw >= miss_rate

    def _jittered_box(self, visible_object: VisibleObject, frame_index: int) -> BoundingBox:
        """Apply deterministic localisation noise to the ground-truth box."""
        jitter = self.config.position_jitter
        if jitter <= 0:
            return visible_object.box
        dx = jitter * signed_draw(self._key(_TAG_JITTER_X, visible_object.object_id),
                                  frame_index)
        dy = jitter * signed_draw(self._key(_TAG_JITTER_Y, visible_object.object_id),
                                  frame_index)
        return visible_object.box.translate(dx, dy)

    def _observed_attributes(self, visible_object: VisibleObject, frame_index: int,
                             timestamp: float) -> dict[str, Any]:
        """Read the object's attributes, occasionally failing per attribute."""
        observed: dict[str, Any] = {}
        error_rate = self.config.attribute_error_rate
        for key, value in visible_object.scene_object.attributes_at(timestamp).items():
            draw = unit_draw(self._key(_TAG_ATTRIBUTE, visible_object.object_id,
                                       string_token(key)), frame_index)
            if draw >= error_rate:
                observed[key] = value
        return observed

    def _confidence(self, visible_object: VisibleObject, frame_index: int) -> float:
        """Deterministic pseudo-confidence in [min_confidence, 1]."""
        spread = 1.0 - self.config.min_confidence
        return self.config.min_confidence + spread * unit_draw(
            self._key(_TAG_CONFIDENCE, visible_object.object_id), frame_index)

    def _false_positives(self, frame: FrameTruth, frame_width: float,
                         frame_height: float) -> list[Detection]:
        """Generate spurious detections for a frame (deterministic count and placement)."""
        rate = self.config.false_positives_per_frame
        if rate <= 0:
            return []
        count = int(rate) + (1 if unit_draw(stream_key(self.seed, _TAG_FP_COUNT),
                                            frame.frame_index) < rate % 1 else 0)
        detections: list[Detection] = []
        for slot in range(count):
            x = frame_width * unit_draw(stream_key(self.seed, _TAG_FP_X, slot),
                                        frame.frame_index)
            y = frame_height * unit_draw(stream_key(self.seed, _TAG_FP_Y, slot),
                                         frame.frame_index)
            detections.append(Detection(
                timestamp=frame.timestamp,
                frame_index=frame.frame_index,
                category="person",
                box=BoundingBox(x, y, 20.0, 40.0),
                confidence=self.config.min_confidence,
                attributes={"false_positive": True},
            ))
        return detections

    def detect_frame(self, frame: FrameTruth, *, frame_width: float = 1280.0,
                     frame_height: float = 720.0) -> list[Detection]:
        """Detect objects in a single ground-truth frame (legacy scalar path)."""
        detections: list[Detection] = []
        for visible_object in frame.visible:
            if visible_object.category not in self.config.detectable_categories:
                continue
            if not self._detects(visible_object, frame.frame_index):
                continue
            detections.append(Detection(
                timestamp=frame.timestamp,
                frame_index=frame.frame_index,
                category=visible_object.category,
                box=self._jittered_box(visible_object, frame.frame_index),
                confidence=self._confidence(visible_object, frame.frame_index),
                attributes=self._observed_attributes(visible_object, frame.frame_index,
                                                     frame.timestamp),
            ))
        detections.extend(self._false_positives(frame, frame_width, frame_height))
        return detections

    def detect_batch(self, batch: "FrameBatch", *, frame_width: float = 1280.0,
                     frame_height: float = 720.0,
                     categories: Iterable[str] | None = None,
                     attributes: Iterable[str] | None = None) -> DetectionBatch:
        """Detect a whole frame batch at once as a columnar :class:`DetectionBatch`.

        All miss/jitter/confidence/attribute draws for every object are
        computed as vectorized splitmix64 lanes over the frame indices, and
        the detected (object, frame) pairs of the whole chunk drop out of a
        single ``nonzero`` over the stacked miss matrix — no per-detection
        Python work at all.  The per-(seed, object, frame) keying — and
        therefore every draw — is bit-identical to :meth:`detect_frame` over
        the same frames (the batch's
        :meth:`DetectionBatch.per_frame_detections` adapter restores the
        legacy per-frame lists exactly).  ``categories`` optionally restricts
        the output (and skips the work) to the given object classes,
        mirroring the post-hoc filter the executables used to apply;
        ``attributes`` likewise names the only keys to read (``()``: none) —
        streams are keyed per (object, attribute), so no other draw moves.
        """
        config = self.config
        wanted = frozenset(categories) if categories is not None else None
        read = frozenset(attributes) if attributes is not None else None
        num_frames = len(batch)
        category_registry: dict[str, int] = {}
        blocks: list[_Block] = []
        if num_frames:
            jitter = config.position_jitter
            spread = 1.0 - config.min_confidence
            error_rate = config.attribute_error_rate
            # First pass: collect every draw stream of the chunk — four per
            # object (miss, jitter x/y, confidence) plus one per attribute —
            # so all of them evaluate in a single stacked mix64 pass over the
            # frame lanes.
            entries: list[tuple[Any, str, int, list[str]]] = []
            selected: list[int] = []
            stream_keys: list[int] = []
            for row, scene_object in enumerate(batch.scene_objects):
                category = scene_object.category
                if category not in config.detectable_categories:
                    continue
                if wanted is not None and category not in wanted:
                    continue
                object_token = string_token(scene_object.object_id)
                attribute_keys = [key for key in scene_object.attribute_keys()
                                  if read is None or key in read]
                entries.append((scene_object, category, len(stream_keys), attribute_keys))
                selected.append(row)
                stream_keys.append(stream_key(self.seed, _TAG_MISS, object_token))
                stream_keys.append(stream_key(self.seed, _TAG_JITTER_X, object_token))
                stream_keys.append(stream_key(self.seed, _TAG_JITTER_Y, object_token))
                stream_keys.append(stream_key(self.seed, _TAG_CONFIDENCE, object_token))
                stream_keys.extend(stream_key(self.seed, _TAG_ATTRIBUTE, object_token,
                                              string_token(key)) for key in attribute_keys)
            if entries:
                draws = unit_draws_matrix(stream_keys, batch.frame_indices)
                num_entries = len(entries)
                # One stacked pass over every entry: detected (object, frame)
                # pairs fall out of a single nonzero, in entry-major order —
                # each object appears at most once per frame, so ascending
                # storage order within a frame equals the scalar emission
                # order by construction.
                first_rows = np.fromiter((first_row for _, _, first_row, _ in entries),
                                         dtype=np.int64, count=num_entries)
                miss_rates = np.fromiter(
                    (config.miss_rate_for(category) for _, category, _, _ in entries),
                    dtype=np.float64, count=num_entries)
                # The batch is already segment-major: the wanted categories
                # are a row slice of its stack.
                stack_rows = np.array(selected, dtype=np.int64)
                detected = (draws[first_rows] >= miss_rates[:, np.newaxis]) \
                    & batch.visible[stack_rows]
                entry_ids, positions = np.nonzero(detected)
                if positions.size:
                    flat_boxes = batch.boxes[stack_rows[entry_ids], positions]
                    xs = flat_boxes[:, 0]
                    ys = flat_boxes[:, 1]
                    det_rows = first_rows[entry_ids]
                    if jitter > 0:
                        xs = xs + jitter * (2.0 * draws[det_rows + 1, positions] - 1.0)
                        ys = ys + jitter * (2.0 * draws[det_rows + 2, positions] - 1.0)
                    confidences = config.min_confidence \
                        + spread * draws[det_rows + 3, positions]
                    boxes = np.empty((positions.size, 4), dtype=np.float64)
                    boxes[:, 0] = xs
                    boxes[:, 1] = ys
                    boxes[:, 2] = flat_boxes[:, 2]
                    boxes[:, 3] = flat_boxes[:, 3]
                    entry_categories = np.fromiter(
                        (category_registry.setdefault(category, len(category_registry))
                         for _, category, _, _ in entries),
                        dtype=np.int64, count=num_entries)
                    attributes: list[tuple[str, Any, Any, np.ndarray, np.ndarray]] = []
                    if any(attribute_keys for _, _, _, attribute_keys in entries):
                        counts = np.bincount(entry_ids, minlength=num_entries)
                        starts = np.zeros(num_entries + 1, dtype=np.int64)
                        np.cumsum(counts, out=starts[1:])
                        for index, (scene_object, _, first_row, attribute_keys) \
                                in enumerate(entries):
                            if not attribute_keys or starts[index] == starts[index + 1]:
                                continue
                            entry_slice = slice(int(starts[index]), int(starts[index + 1]))
                            entry_positions = positions[entry_slice]
                            series = scene_object.attribute_series(
                                batch.timestamps[entry_positions], attribute_keys)
                            local = np.arange(entry_slice.start, entry_slice.stop,
                                              dtype=np.int64)
                            for offset, (key, constant, values) in enumerate(series):
                                kept = draws[first_row + 4 + offset,
                                             entry_positions] >= error_rate
                                attributes.append((key, constant, values,
                                                   local[kept], np.nonzero(kept)[0]))
                    blocks.append(_Block(
                        positions=positions,
                        boxes=boxes,
                        confidences=confidences,
                        category_ids=entry_categories[entry_ids],
                        attributes=attributes,
                    ))
            blocks.extend(self._false_positive_blocks(batch, frame_width, frame_height,
                                                      wanted=wanted, read=read,
                                                      category_registry=category_registry))
        return _assemble_batch(batch, num_frames, blocks,
                               tuple(category_registry))

    def _false_positive_blocks(self, batch: "FrameBatch", frame_width: float,
                               frame_height: float, *,
                               wanted: frozenset[str] | None, read: frozenset[str] | None,
                               category_registry: dict[str, int]) -> list["_Block"]:
        """Vectorized false-positive column blocks, one per placement slot."""
        rate = self.config.false_positives_per_frame
        if rate <= 0:
            return []
        if wanted is not None and "person" not in wanted:
            return []
        base = int(rate)
        fraction = rate % 1
        frames = batch.frame_indices
        counts = np.full(frames.size, base, dtype=np.int64)
        if fraction > 0:
            counts = counts + (unit_draws(stream_key(self.seed, _TAG_FP_COUNT),
                                          frames) < fraction)
        max_count = int(counts.max(initial=0))
        blocks: list[_Block] = []
        for slot in range(max_count):
            selected = np.nonzero(counts > slot)[0]
            if selected.size == 0:
                break
            slot_frames = frames[selected]
            boxes = np.empty((selected.size, 4), dtype=np.float64)
            boxes[:, 0] = frame_width * unit_draws(
                stream_key(self.seed, _TAG_FP_X, slot), slot_frames)
            boxes[:, 1] = frame_height * unit_draws(
                stream_key(self.seed, _TAG_FP_Y, slot), slot_frames)
            boxes[:, 2] = 20.0
            boxes[:, 3] = 40.0
            person = category_registry.setdefault("person", len(category_registry))
            all_rows = np.arange(selected.size, dtype=np.int64)
            blocks.append(_Block(
                positions=selected,
                boxes=boxes,
                confidences=np.full(selected.size, self.config.min_confidence),
                category_ids=np.full(selected.size, person, dtype=np.int64),
                attributes=[("false_positive", True, None, all_rows, all_rows)]
                if read is None or "false_positive" in read else [],
            ))
        return blocks


    def detect_frames(self, frames: Sequence[FrameTruth] | Any, *, frame_width: float = 1280.0,
                      frame_height: float = 720.0) -> list[tuple[FrameTruth, list[Detection]]]:
        """Detect objects in a sequence of frames, preserving order."""
        return [(frame, self.detect_frame(frame, frame_width=frame_width,
                                          frame_height=frame_height))
                for frame in frames]

    def expected_miss_fraction(self, frames: Sequence[FrameTruth]) -> float:
        """Empirical fraction of ground-truth object-frames the detector missed.

        Used by the Table 1 benchmark to report the "% objects CV missed"
        column alongside the duration estimates.
        """
        total = 0
        missed = 0
        for frame in frames:
            for visible_object in frame.visible:
                if visible_object.category not in self.config.detectable_categories:
                    continue
                total += 1
                if not self._detects(visible_object, frame.frame_index):
                    missed += 1
        if total == 0:
            return 0.0
        return missed / total


@dataclass
class _Block:
    """Columnar detections of one assembly block, in storage order.

    One block covers all ground-truth objects of a chunk (entry-major), and
    one more per false-positive placement slot.  ``attributes`` holds
    ``(key, constant, values, local_rows, value_rows)`` tuples: the
    attribute applies to the block-relative ``local_rows``, with the value
    being ``constant`` when ``values`` is None and ``values[value_rows[i]]``
    otherwise.
    """

    positions: np.ndarray
    boxes: np.ndarray
    confidences: np.ndarray
    category_ids: np.ndarray
    attributes: list[tuple[str, Any, Any, np.ndarray, np.ndarray]]


def _assign_attribute(values: np.ndarray, indices: np.ndarray, value: Any) -> None:
    """Broadcast one attribute value into an object column without unrolling.

    Sequence-valued attributes must be assigned element by element — numpy
    would otherwise try to scatter the sequence across the indices.
    """
    if isinstance(value, (list, tuple, set, dict, np.ndarray)):
        for index in indices.tolist():
            values[index] = value
    else:
        values[indices] = value


def _assemble_batch(batch: "FrameBatch", num_frames: int, blocks: list[_Block],
                    categories: tuple[str, ...]) -> DetectionBatch:
    """Concatenate assembly blocks into one segment-major DetectionBatch."""
    if not blocks:
        return DetectionBatch(
            num_frames=num_frames,
            frame_positions=np.empty(0, dtype=np.int64),
            frame_indices=np.empty(0, dtype=np.int64),
            timestamps=np.empty(0, dtype=np.float64),
            boxes=np.empty((0, 4), dtype=np.float64),
            confidences=np.empty(0, dtype=np.float64),
            category_ids=np.empty(0, dtype=np.int64),
            categories=categories,
        )
    if len(blocks) == 1:
        block = blocks[0]
        positions = block.positions
        boxes = block.boxes
        confidences = block.confidences
        category_ids = block.category_ids
    else:
        positions = np.concatenate([block.positions for block in blocks])
        boxes = np.concatenate([block.boxes for block in blocks])
        confidences = np.concatenate([block.confidences for block in blocks])
        category_ids = np.concatenate([block.category_ids for block in blocks])
    total = positions.size
    attributes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    offset = 0
    for block in blocks:
        for key, constant, values, local_rows, value_rows in block.attributes:
            if key not in attributes:
                attributes[key] = (np.zeros(total, dtype=bool),
                                   np.empty(total, dtype=object))
            present, column = attributes[key]
            targets = local_rows + offset if offset else local_rows
            if targets.size:
                present[targets] = True
                if values is None:
                    _assign_attribute(column, targets, constant)
                else:
                    for destination, source in zip(targets.tolist(),
                                                   value_rows.tolist()):
                        column[destination] = values[source]
        offset += block.positions.size
    return DetectionBatch(
        num_frames=num_frames,
        frame_positions=positions,
        frame_indices=batch.frame_indices[positions],
        timestamps=batch.timestamps[positions],
        boxes=boxes,
        confidences=confidences,
        category_ids=category_ids,
        categories=categories,
        attributes=attributes,
    )
