"""Synthetic video model.

A :class:`SyntheticVideo` is the stand-in for a camera's recorded footage: it
knows its frame rate, resolution, duration, and the ground-truth scene
objects visible over time.  Instead of pixels, "rendering" a frame produces
the list of ground-truth objects visible at that instant together with their
bounding boxes; the synthetic detector (``repro.cv.detector``) then degrades
that perfect information the way a real CNN would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

from repro.utils import checks
from repro.utils.timebase import (
    TimeInterval,
    frame_index_of,
    frame_index_range,
    is_integral_frame_count,
    num_frames_in,
)
from repro.video.geometry import BoundingBox

if TYPE_CHECKING:  # imported only for type annotations to avoid a package cycle
    from repro.scene.objects import SceneObject

#: Session-unique tokens telling footage *states* apart even when their
#: name/fps/duration coincide (two test videos are both called "test-cam"),
#: renewed whenever a video's objects change; chunk caching and the engines'
#: footage broadcast key on this.
_CONTENT_TOKENS = itertools.count(1)


@dataclass(frozen=True)
class VisibleObject:
    """A ground-truth object visible in a single frame, with its box."""

    scene_object: SceneObject
    box: BoundingBox

    @property
    def object_id(self) -> str:
        """Identifier of the underlying scene object."""
        return self.scene_object.object_id

    @property
    def category(self) -> str:
        """Class of the underlying scene object (person, car, ...)."""
        return self.scene_object.category

    @property
    def attributes(self) -> dict[str, Any]:
        """Attributes of the underlying scene object (colour, plate, ...)."""
        return self.scene_object.attributes


@dataclass(frozen=True)
class FrameTruth:
    """Ground truth for one frame: its timestamp and all visible objects."""

    timestamp: float
    frame_index: int
    visible: tuple[VisibleObject, ...]

    def of_category(self, category: str) -> tuple[VisibleObject, ...]:
        """Visible objects of the given category."""
        return tuple(obj for obj in self.visible if obj.category == category)


@dataclass
class FrameBatch:
    """Columnar ground truth for a run of frames (the chunk hot-path format).

    Segment-major, like the detector's output: ``scene_objects[i]`` owns row
    ``i`` of the ``(objects, frames)`` visibility matrix and of the
    ``(objects, frames, 4)`` stack of ``[x, y, width, height]`` boxes
    (unspecified where ``visible`` is False); every object has a visible
    frame.  The batched detector consumes the stack directly;
    :meth:`iter_frames` adapts it for per-frame third-party executables.
    """

    frame_indices: np.ndarray
    timestamps: np.ndarray
    scene_objects: list[SceneObject]
    visible: np.ndarray
    boxes: np.ndarray
    width: float
    height: float
    fps: float

    def __len__(self) -> int:
        return int(self.frame_indices.size)

    @property
    def num_frames(self) -> int:
        """Number of frames in the batch."""
        return int(self.frame_indices.size)

    def total_visible(self) -> int:
        """Total ground-truth object-frame pairs in the batch."""
        return int(self.visible.sum())

    def frame_truth(self, position: int) -> FrameTruth:
        """Legacy per-frame view of batch position ``position``."""
        rows = np.flatnonzero(self.visible[:, position])
        seen = zip(rows.tolist(), self.boxes[rows, position].tolist())
        return FrameTruth(timestamp=float(self.timestamps[position]),
                          frame_index=int(self.frame_indices[position]),
                          visible=tuple(VisibleObject(self.scene_objects[row], BoundingBox(*box))
                                        for row, box in seen))

    def iter_frames(self) -> Iterator[FrameTruth]:
        """Yield legacy :class:`FrameTruth` objects for every batch position."""
        for position in range(len(self)):
            yield self.frame_truth(position)


#: Trajectory kinds of an appearance-table row.
_STATIONARY, _LINEAR, _OTHER = 0, 1, 2


class _AppearanceTable:
    """Every appearance of a video as numpy columns, plus their time-bucket index.

    Rows are object-major (``video.objects`` order, then appearance order):
    ascending rows keep an object's appearances together, earlier first.
    ``owner`` is the object's position in ``video.objects``, ``slot`` the
    appearance's position within it, ``category`` the owner's id in
    ``category_ids``.  ``base``/``delta``/``duration`` hold a
    linear trajectory's start box, ``end - start`` and duration; a
    stationary row keeps its box in ``base``; any other kind leaves them
    neutral and is evaluated by its own ``boxes_at``.  Time bucket
    ``first_bucket + b`` touches, ascending, the rows
    ``bucket_rows[bucket_offsets[b]:bucket_offsets[b + 1]]``, so a windowed
    lookup never scans a full day's objects.  Arrays only: a shard worker
    caches several decoded videos, each with its own table.

    The chunk render and the owner's tools (``repro.analysis.persistence``)
    both read it, so both go stale together: code that changes
    ``video.objects`` must call ``add_objects`` or ``invalidate_index``.
    """

    __slots__ = ("start", "end", "owner", "slot", "kind", "base", "delta", "duration", "category",
                 "category_ids", "bucket_size", "first_bucket", "bucket_offsets", "bucket_rows")

    def __init__(self, objects: Sequence[SceneObject], bucket_size: float) -> None:
        from repro.scene.trajectory import LinearTrajectory, StationaryTrajectory

        def xywh(box: BoundingBox) -> tuple[float, float, float, float]:
            return box.x, box.y, box.width, box.height

        count = sum(len(scene_object.appearances) for scene_object in objects)
        columns = np.empty((count, 15), dtype=np.float64)
        self.category_ids: dict[str, int] = {}
        row = 0
        for position, scene_object in enumerate(objects):
            category = self.category_ids.setdefault(scene_object.category, len(self.category_ids))
            for slot, appearance in enumerate(scene_object.appearances):
                trajectory = appearance.trajectory
                # Exact types: a subclass may override boxes_at.
                if type(trajectory) is StationaryTrajectory:
                    motion = (_STATIONARY, 1.0, *xywh(trajectory.box), *xywh(trajectory.box))
                elif type(trajectory) is LinearTrajectory:
                    motion = (_LINEAR, trajectory.duration,
                              *xywh(trajectory.start), *xywh(trajectory.end))
                else:
                    motion = (_OTHER, 1.0) + (0.0,) * 8
                columns[row] = (appearance.interval.start, appearance.interval.end,
                                position, slot, *motion, category)
                row += 1
        self.start = columns[:, 0].copy()
        self.end = columns[:, 1].copy()
        self.owner = columns[:, 2].astype(np.int64)
        self.slot = columns[:, 3].astype(np.int64)
        self.kind = columns[:, 4].astype(np.int8)
        self.duration = columns[:, 5].copy()
        self.base = columns[:, 6:10].copy()
        self.delta = columns[:, 10:14] - self.base
        self.category = columns[:, 14].astype(np.int64)
        del columns     # scratch: free it before the index's larger temporaries
        self.bucket_size = bucket_size
        first = (self.start // bucket_size).astype(np.int64)
        last = (np.maximum(self.start, self.end - 1e-9) // bucket_size).astype(np.int64)
        # One (row, bucket) pair per bucket a row touches, then bucket-major;
        # the stable sort keeps rows ascending within a bucket.  int32 and few
        # temporaries: the pairs outnumber the rows (a day-long object
        # touches every bucket) and the build runs once per decoded video.
        spans = last - first + 1
        rows = np.repeat(np.arange(count, dtype=np.int32), spans)
        buckets = np.repeat((first - (np.cumsum(spans) - spans)).astype(np.int32), spans)
        buckets += np.arange(rows.size, dtype=np.int32)
        self.first_bucket = int(first.min()) if count else 0
        self.bucket_rows = rows[np.argsort(buckets, kind="stable")]
        self.bucket_offsets = np.concatenate(
            ([0], np.cumsum(np.bincount(buckets - self.first_bucket))))

    def rows_in(self, window: TimeInterval, categories: Iterable[str] | None = None
                ) -> tuple[np.ndarray, bool]:
        """Rows in the buckets ``window`` touches, bucket-major, and whether
        it touches several (only then can a row be listed twice); of the
        ``categories`` only, when given (a subset in the same order)."""
        size = self.bucket_size
        buckets = self.bucket_offsets.size - 1
        first = min(max(int(window.start // size) - self.first_bucket, 0), buckets)
        last = int(max(window.start, window.end - 1e-9) // size) - self.first_bucket
        stop = min(max(last + 1, first), buckets)
        listed = self.bucket_rows[self.bucket_offsets[first]:self.bucket_offsets[stop]]
        if categories is not None:
            listed = listed[self.wanted(categories)[self.category[listed]]]
        return listed, stop - first > 1

    def wanted(self, categories: Iterable[str]) -> np.ndarray:
        """Per category id, whether it is one of ``categories``."""
        wanted = np.zeros(len(self.category_ids), dtype=bool)
        wanted[[self.category_ids[category] for category in categories
                if category in self.category_ids]] = True
        return wanted

    def boxes(self, objects: Sequence[SceneObject], rows: np.ndarray, timestamps: np.ndarray,
              shown: np.ndarray | None = None) -> np.ndarray:
        """Boxes of ``rows`` at ``timestamps``, the two broadcast together (a
        ``(rows, 1)`` column against a frame row in the render, pairwise in
        the owner's sampler), with a trailing ``[x, y, width, height]`` axis.

        Every row is evaluated as a linear trajectory, then the other kinds
        are overwritten; each step is elementwise, so a box equals
        ``Appearance.box_at`` bit for bit.  A row of another kind asks its own
        ``boxes_at``, only where ``shown`` (default: everywhere).
        """
        fraction = np.minimum(np.maximum(
            (timestamps - self.start[rows]) / self.duration[rows], 0.0), 1.0)
        base = self.base[rows]
        boxes = base + self.delta[rows] * fraction[..., np.newaxis]
        kind = self.kind[rows]
        # A stationary box is copied, never computed as base + 0 * fraction,
        # which would turn -0.0 into 0.0.
        np.copyto(boxes, base, where=(kind == _STATIONARY)[..., np.newaxis])
        other = kind == _OTHER
        if other.any():
            shape = fraction.shape
            shown = np.broadcast_to(True if shown is None else shown, shape)
            timestamps = np.broadcast_to(timestamps, shape)
            for row in dict.fromkeys(rows[other].tolist()):
                appearance = objects[self.owner[row]].appearances[self.slot[row]]
                at = (rows == row) & shown
                boxes[at] = appearance.trajectory.boxes_at(
                    timestamps[at] - appearance.interval.start)
        return boxes


@dataclass
class SyntheticVideo:
    """A camera's footage over a fixed observation window.

    ``duration`` is the total recorded time in seconds; frame timestamps run
    from 0 (inclusive) to ``duration`` (exclusive) in steps of ``1 / fps``.
    """

    name: str
    fps: float
    width: float
    height: float
    duration: float
    objects: list[SceneObject] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("fps", "duration", "width", "height"):
            checks.real(name, getattr(self, name), ValueError, above=0)
        self._index_bucket_size: float = max(60.0, self.duration / 2048.0)
        self._appearance_table: _AppearanceTable | None = None
        self._content_token: int = next(_CONTENT_TOKENS)
        self._content_fingerprint: str | None = None

    @property
    def content_token(self) -> int:
        """Session-unique identity of this footage state."""
        return self._content_token

    def content_fingerprint(self) -> str:
        """Stable digest of the footage *content* (scene objects + parameters).

        Unlike :attr:`content_token` (a session-unique counter), this digest
        is identical across processes and sessions for identical footage and
        changes whenever the ground-truth content changes, which is what lets
        an on-disk chunk result store be shared between ``PrividSystem``
        instances and processes with a sound invalidation story: mutated
        footage (``add_objects``) produces a new fingerprint, so stale disk
        entries can never be returned for it.  Computed lazily (full-day
        scenes hold tens of thousands of objects) and memoized until the
        footage is mutated.

        Closure-valued dynamic attributes have no content-stable identity
        (a callable hashes by qualified name, which two closures with
        different captured state share), so scenes that carry any mix the
        session-unique token into the digest: their cache entries stay
        correct but are only shareable within one process — the same
        limitation those scenes already have with the sharded engine.
        Declarative :mod:`repro.scene.schedules` scenes (every bundled
        scene) are fully content-addressed.
        """
        if self._content_fingerprint is None:
            from repro.core.cache import fingerprint
            from repro.scene.schedules import AttributeSchedule

            session_salt = 0
            for scene_object in self.objects:
                dynamic = getattr(scene_object, "dynamic_attributes", None) or {}
                if any(callable(value) and not isinstance(value, AttributeSchedule)
                       for value in dynamic.values()):
                    session_salt = self._content_token
                    break
            self._content_fingerprint = fingerprint(
                self.name, self.fps, self.width, self.height, self.duration,
                self.metadata, session_salt, tuple(self.objects))
        return self._content_fingerprint

    def __getstate__(self) -> dict[str, Any]:
        """Pickle the footage without the appearance table (receivers rebuild
        it), so a video's bytes do not depend on what was rendered before.
        The content-fingerprint memo keeps travelling: shards rely on it."""
        state = self.__dict__.copy()
        state["_appearance_table"] = None
        return state

    def _table(self) -> _AppearanceTable:
        """The appearance table, built on first use."""
        if self._appearance_table is None:
            self._appearance_table = _AppearanceTable(self.objects, self._index_bucket_size)
        return self._appearance_table

    def invalidate_index(self) -> None:
        """Drop everything derived from the objects and renew the state token
        (called after objects are added)."""
        self._appearance_table = None
        self._content_fingerprint = None
        self._content_token = next(_CONTENT_TOKENS)

    def candidate_objects(self, window: TimeInterval) -> list[SceneObject]:
        """Objects that *may* overlap ``window`` (superset, from the bucket index),
        bucket-major and first seen first: the order batches and trackers inherit."""
        table = self._table()
        owners = table.owner[table.rows_in(window)[0]].tolist()
        return [self.objects[position] for position in dict.fromkeys(owners)]

    @property
    def interval(self) -> TimeInterval:
        """The full observation window of the video."""
        return TimeInterval(0.0, self.duration)

    @property
    def num_frames(self) -> int:
        """Total number of frames in the video (epsilon-aware rounding)."""
        return num_frames_in(self.duration, self.fps)

    @property
    def frame_period(self) -> float:
        """Seconds between consecutive frames."""
        return 1.0 / self.fps

    def frame_index_at(self, timestamp: float) -> int:
        """Frame index containing ``timestamp`` (epsilon-aware rounding)."""
        return frame_index_of(timestamp, self.fps)

    def frame_timestamp(self, frame_index: int) -> float:
        """Timestamp of the first instant of frame ``frame_index``."""
        return frame_index / self.fps

    def validate_chunking(self, chunk_duration: float, stride: float) -> None:
        """Raise ValueError unless chunking parameters map to whole frames.

        Appendix D requires both the chunk duration and the stride to
        correspond to an integer number of frames.
        """
        checks.real("chunk duration", chunk_duration, ValueError, above=0)
        if not is_integral_frame_count(chunk_duration, self.fps):
            raise ValueError(
                f"chunk duration {chunk_duration}s is not an integer number of frames "
                f"at {self.fps} fps")
        if not is_integral_frame_count(stride, self.fps):
            raise ValueError(
                f"stride {stride}s is not an integer number of frames at {self.fps} fps")

    def visible_objects_at(self, timestamp: float,
                           candidates: Iterable[SceneObject] | None = None) -> list[VisibleObject]:
        """Ground-truth objects visible at ``timestamp`` with their boxes.

        ``candidates`` restricts the search to a pre-computed set of objects
        (used by chunk iteration); by default the time-bucket index narrows
        the search.
        """
        if candidates is None:
            candidates = self.candidate_objects(
                TimeInterval(timestamp, timestamp + self.frame_period))
        visible: list[VisibleObject] = []
        for scene_object in candidates:
            box = scene_object.box_at(timestamp)
            if box is not None:
                visible.append(VisibleObject(scene_object, box))
        return visible

    def frame_truth(self, frame_index: int) -> FrameTruth:
        """Ground truth for a single frame by index."""
        timestamp = self.frame_timestamp(frame_index)
        return FrameTruth(timestamp=timestamp, frame_index=frame_index,
                          visible=tuple(self.visible_objects_at(timestamp)))

    def _sample_step(self, sample_period: float | None) -> int:
        """Frame step implementing ``sample_period`` subsampling."""
        if sample_period is None:
            return 1
        period = max(sample_period, self.frame_period)
        return max(1, int(round(period * self.fps)))

    def _frame_indices(self, window: TimeInterval, sample_period: float | None) -> np.ndarray:
        """Indices of the (sub)sampled frames inside ``window``."""
        first_frame, last_frame = frame_index_range(window.start, window.end, self.fps)
        return np.arange(first_frame, last_frame, self._sample_step(sample_period),
                         dtype=np.int64)

    def batch_for_indices(self, frame_indices: np.ndarray,
                          window: TimeInterval | None = None, *,
                          categories: Iterable[str] | None = None) -> FrameBatch:
        """Columnar ground truth for an explicit array of frame indices.

        The one render every view derives from: the table rows in
        ``window``'s time buckets (default: the frames' span) become a
        visibility matrix in one broadcast, a box stack in another
        (``_AppearanceTable.boxes``), and fold into one row per object.  Every
        step is elementwise per (row, frame), so visible boxes equal
        ``SceneObject.box_at`` bit for bit, and with
        ``categories`` the batch is the full one minus every other category's rows.
        """
        frame_indices = np.asarray(frame_indices, dtype=np.int64)
        timestamps = frame_indices.astype(np.float64) / self.fps
        table = self._table()
        listed, several = table.bucket_rows[:0], False
        if frame_indices.size:
            if window is None:
                window = TimeInterval(float(timestamps[0]),
                                      float(timestamps[-1]) + self.frame_period)
            listed, several = table.rows_in(window, categories)
        rows = np.unique(listed) if several else listed
        starts = table.start[rows][:, np.newaxis]
        visible = (timestamps >= starts) & (timestamps < table.end[rows][:, np.newaxis])
        seen = visible.any(axis=1)
        if not seen.all():
            rows, visible = rows[seen], visible[seen]
        if not rows.size:       # nothing (wanted) in view: the frames, and no row
            return FrameBatch(frame_indices, timestamps, [], visible,
                              np.empty(visible.shape + (4,)), self.width, self.height, self.fps)
        boxes = table.boxes(self.objects, rows[:, np.newaxis], timestamps, visible)
        owners = table.owner[rows]
        later = np.flatnonzero(owners[1:] == owners[:-1]) + 1
        if later.size:
            # Fold an object's later appearances into its first row; where
            # appearances overlap the earlier one wins, as in box_at.
            lead = np.ones(rows.size, dtype=bool)
            lead[later] = False
            for index in later.tolist():
                if lead[index - 1]:
                    into = index - 1
                fresh = visible[index] & ~visible[into]
                boxes[into, fresh] = boxes[index, fresh]
                visible[into] |= fresh
            owners, visible, boxes = owners[lead], visible[lead], boxes[lead]
        if several:
            # Rows ascend, but objects are listed bucket-major, first seen first.
            members, first_seen = np.unique(table.owner[listed], return_index=True)
            order = np.argsort(first_seen[np.searchsorted(members, owners)])
            owners, visible, boxes = owners[order], visible[order], boxes[order]
        return FrameBatch(frame_indices=frame_indices, timestamps=timestamps,
                          scene_objects=[self.objects[position] for position in owners.tolist()],
                          visible=visible, boxes=boxes, width=self.width, height=self.height,
                          fps=self.fps)

    def frame_batch(self, window: TimeInterval | None = None, *,
                    sample_period: float | None = None) -> FrameBatch:
        """Columnar ground truth for every frame in ``window`` at once."""
        window = self.interval if window is None else window.clamp(self.interval)
        return self.batch_for_indices(self._frame_indices(window, sample_period), window)

    #: Frames per block when the legacy iterator adapts over batches; bounds
    #: peak memory on day-long windows while amortising the batch setup.
    _FRAMES_PER_BLOCK = 4096

    def frames(self, window: TimeInterval | None = None, *,
               sample_period: float | None = None) -> Iterator[FrameTruth]:
        """Yield ground truth for every frame in ``window`` (default: whole video).

        ``sample_period`` optionally subsamples frames (in seconds); the
        default yields every frame.  Subsampling is used heavily by the
        benchmarks to keep full-day scenarios tractable without changing the
        shape of the results.

        This is the legacy per-frame adapter over :meth:`frame_batch`: frames
        are rendered in columnar blocks and materialised one
        :class:`FrameTruth` at a time.
        """
        window = self.interval if window is None else window.clamp(self.interval)
        step = self._sample_step(sample_period)
        first_frame, last_frame = frame_index_range(window.start, window.end, self.fps)
        block = self._FRAMES_PER_BLOCK * step
        for block_first in range(first_frame, last_frame, block):
            block_last = min(block_first + block, last_frame)
            indices = np.arange(block_first, block_last, step, dtype=np.int64)
            yield from self.batch_for_indices(indices).iter_frames()

    #: Instants per box block when the owner's tools walk appearances; bounds
    #: the box and mask temporaries however long the scene.
    _INSTANTS_PER_BLOCK = 1024

    def sample_appearances(self, sample_period: float, categories: Iterable[str]
                           ) -> tuple[np.ndarray, np.ndarray, Iterator[np.ndarray]]:
        """Walk every appearance of ``categories`` from its start, as
        ``t = start`` then ``t += sample_period`` while ``t < end`` does.

        Returns ``(owners, lengths, boxes)``: per walk (an appearance with at
        least one instant), its object's position in ``objects`` and its
        number of instants; then every instant's box, walk after walk in time
        order, as ``(n, 4)`` blocks of ``_INSTANTS_PER_BLOCK`` (the last one
        shorter).  Instants are running sums (a row-wise ``cumsum``):
        ``start + k * sample_period`` rounds differently.  The walk holds a
        block and one group of rows at a time, never the whole video's instants.
        """
        table, block = self._table(), self._INSTANTS_PER_BLOCK
        rows = np.flatnonzero(table.wanted(categories)[table.category])
        # An upper bound on each walk's length, shortest first so that rows
        # padded to a common length waste little.
        bound = np.ceil((table.end[rows] - table.start[rows]) / sample_period).astype(np.int64) + 2
        order = np.argsort(bound, kind="stable")
        rows, bound = rows[order], bound[order]

        def walks() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
            """Per group of rows that fill one block once padded (one row at
            the least): the rows, their padded sums, and which are instants."""
            first = 0
            while first < rows.size:
                cells = bound[first:first + block] * np.arange(1, min(block, rows.size - first) + 1)
                stop = first + max(1, int(np.searchsorted(cells, block, side="right")))
                group, end = rows[first:stop], table.end[rows[first:stop], np.newaxis]
                width = int(bound[stop - 1])
                while True:     # the bound leaves room for rounding; widen if it falls short
                    steps = np.full((group.size, width), float(sample_period))
                    steps[:, 0] = table.start[group]
                    sums = np.cumsum(steps, axis=1)
                    if (sums[:, -1:] >= end).all():
                        break
                    width *= 2
                yield group, sums, sums < end
                first = stop

        def boxes() -> Iterator[np.ndarray]:
            held_rows, held_times = rows[:0], table.start[:0]
            for group, sums, inside in walks():
                held_rows = np.concatenate((held_rows, np.repeat(group, inside.sum(axis=1))))
                held_times = np.concatenate((held_times, sums[inside]))
                while held_rows.size >= block:
                    yield table.boxes(self.objects, held_rows[:block], held_times[:block])
                    held_rows, held_times = held_rows[block:], held_times[block:]
            if held_rows.size:
                yield table.boxes(self.objects, held_rows, held_times)

        lengths = np.concatenate([bound[:0]] + [inside.sum(axis=1) for _, _, inside in walks()])
        walked = lengths > 0
        return table.owner[rows[walked]], lengths[walked], boxes()

    def objects_overlapping(self, window: TimeInterval) -> list[SceneObject]:
        """Objects with at least one appearance overlapping ``window``."""
        return [scene_object for scene_object in self.candidate_objects(window)
                if scene_object.appearances_within(window)]

    def objects_of_category(self, category: str) -> list[SceneObject]:
        """All objects of the given category."""
        return [scene_object for scene_object in self.objects
                if scene_object.category == category]

    def private_objects(self) -> list[SceneObject]:
        """All objects of categories the paper treats as private."""
        return [scene_object for scene_object in self.objects if scene_object.is_private]

    def add_objects(self, new_objects: Iterable[SceneObject]) -> None:
        """Append additional ground-truth objects to the video."""
        self.objects.extend(new_objects)
        self.invalidate_index()
